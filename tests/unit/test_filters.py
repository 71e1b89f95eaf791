"""Unit tests for repro.core.filters: the one pair of scans (paper eq. 5)
and the eq. 15 kernel built on them."""

import numpy as np
import pytest

from repro.common.rng import RandomState
from repro.core.filters import (
    DoubleExponentialKernel,
    _scan_reverse,
    decay_from_tau,
    exp_scan,
    exp_scan_adjoint,
)


def stepped_scan(xs, decay):
    """``y[t] = decay*y[t-1] + x[t]`` along axis 1, one step at a time."""
    out = np.empty_like(xs)
    carry = np.zeros_like(xs[:, 0])
    for t in range(xs.shape[1]):
        carry = decay * carry + xs[:, t]
        out[:, t] = carry
    return out


class TestDecayConversion:
    def test_paper_tau_value(self):
        # Table I: tau = 4 -> alpha = e^(-1/4)
        assert decay_from_tau(4.0) == pytest.approx(np.exp(-0.25))

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            decay_from_tau(0.0)
        with pytest.raises(ValueError):
            decay_from_tau(-1.0)


class TestScans:
    def test_impulse_response_is_geometric(self):
        impulse = np.zeros((1, 10, 1))
        impulse[0, 0, 0] = 1.0
        alpha = decay_from_tau(4.0)
        response = exp_scan(impulse, alpha)[0, :, 0]
        np.testing.assert_allclose(response, alpha ** np.arange(10),
                                   rtol=1e-12)

    def test_dc_gain(self):
        # Constant input 1 converges to 1/(1 - alpha).
        alpha = decay_from_tau(4.0)
        out = exp_scan(np.ones((1, 300, 1)), alpha)
        assert out[0, -1, 0] == pytest.approx(1.0 / (1.0 - alpha), rel=1e-9)

    def test_exp_scan_matches_stepped_recursion(self):
        xs = RandomState(0).normal(0, 1, (4, 25, 7))
        np.testing.assert_allclose(exp_scan(xs.copy(), 0.6),
                                   stepped_scan(xs, 0.6), rtol=1e-12)

    def test_exp_scan_in_place_aliasing(self):
        xs = RandomState(1).normal(0, 1, (3, 17, 5))
        want = exp_scan(xs.copy(), 0.8)
        buf = xs.copy()
        out = exp_scan(buf, 0.8, out=buf)
        assert out is buf
        np.testing.assert_allclose(out, want, rtol=1e-12)

    def test_carry_seeds_the_first_step(self):
        out = exp_scan(np.zeros((1, 5, 1)), 0.5, carry=np.array([[8.0]]))
        np.testing.assert_allclose(out[0, :, 0], 8.0 * 0.5 ** np.arange(1, 6))

    def test_adjoint_is_the_engines_reverse_kernel(self):
        xs = RandomState(2).normal(0, 1, (4, 25, 7))
        buf = np.ascontiguousarray(xs.swapaxes(0, 1))   # time-major copy
        out = _scan_reverse(buf, 0.6)
        assert out is buf
        np.testing.assert_array_equal(exp_scan_adjoint(xs, 0.6),
                                      out.swapaxes(0, 1))
        # The anti-causal recursion, reversed in time, is the causal one.
        np.testing.assert_allclose(
            exp_scan_adjoint(xs, 0.6),
            stepped_scan(xs[:, ::-1], 0.6)[:, ::-1], rtol=1e-12)

    def test_adjoint_leaves_its_input_alone(self):
        xs = RandomState(3).normal(0, 1, (2, 9, 3))
        before = xs.copy()
        exp_scan_adjoint(xs, 0.7)
        np.testing.assert_array_equal(xs, before)

    def test_adjoint_is_transpose(self):
        """<F x, y> == <x, F^T y> for random x, y (the adjoint identity)."""
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 30, 1))
        y = rng.normal(size=(1, 30, 1))
        alpha = 0.7788
        lhs = np.sum(exp_scan(x, alpha) * y)
        rhs = np.sum(x * exp_scan_adjoint(y, alpha))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("shape", [(3, 17, 5), (1, 1, 2), (0, 4, 3),
                                       (2, 0, 3)])
    def test_shapes_and_dtype_kept(self, shape):
        for dtype in (np.float64, np.float32):
            xs = np.ones(shape, dtype)
            for scan in (exp_scan, exp_scan_adjoint):
                out = scan(xs, 0.5)
                assert out.shape == shape and out.dtype == dtype


class TestDoubleExponentialKernel:
    def test_kernel_zero_at_origin(self):
        kernel = DoubleExponentialKernel(tau_m=4.0, tau_s=1.0)
        assert kernel.kernel(10)[0] == 0.0

    def test_kernel_positive_after_origin(self):
        kernel = DoubleExponentialKernel(tau_m=4.0, tau_s=1.0)
        values = kernel.kernel(30)
        assert np.all(values[1:] > 0.0)

    def test_requires_tau_m_gt_tau_s(self):
        with pytest.raises(ValueError):
            DoubleExponentialKernel(tau_m=1.0, tau_s=4.0)
        with pytest.raises(ValueError):
            DoubleExponentialKernel(tau_m=2.0, tau_s=2.0)

    def test_convolve_matches_direct_convolution(self):
        rng = np.random.default_rng(3)
        spikes = (rng.random(40) < 0.2).astype(float)
        kernel = DoubleExponentialKernel(tau_m=4.0, tau_s=1.0)
        fast = kernel.convolve(spikes[:, None])[:, 0]
        direct = np.convolve(spikes, kernel.kernel(40))[:40]
        np.testing.assert_allclose(fast, direct, atol=1e-12)

    def test_time_axis(self):
        xs = np.random.default_rng(5).random((3, 15, 2))
        kernel = DoubleExponentialKernel()
        for method in (kernel.convolve, kernel.adjoint_convolve):
            out = method(xs, time_axis=1)
            ref = np.stack([method(xs[b]) for b in range(3)], axis=0)
            np.testing.assert_array_equal(out, ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_float64_out_and_input_kept(self, dtype):
        xs = (np.random.default_rng(6).random((10, 3)) < 0.3).astype(dtype)
        before = xs.copy()
        kernel = DoubleExponentialKernel()
        for method in (kernel.convolve, kernel.adjoint_convolve):
            assert method(xs).dtype == np.float64
        np.testing.assert_array_equal(xs, before)

    def test_adjoint_identity(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(25, 2))
        y = rng.normal(size=(25, 2))
        kernel = DoubleExponentialKernel()
        lhs = np.sum(kernel.convolve(x) * y)
        rhs = np.sum(x * kernel.adjoint_convolve(y))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_peak_time_is_analytic(self):
        # Peak of e^{-t/tau_m} - e^{-t/tau_s} is at
        # t* = ln(tau_m/tau_s) * tau_m*tau_s/(tau_m - tau_s).
        kernel = DoubleExponentialKernel(tau_m=4.0, tau_s=1.0)
        values = kernel.kernel(40)
        t_star = np.log(4.0) * (4.0 * 1.0) / (4.0 - 1.0)
        assert abs(int(np.argmax(values)) - t_star) <= 1.0
