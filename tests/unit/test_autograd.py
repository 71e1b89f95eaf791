"""Unit tests for the autograd engine itself.

The engine is the reference for the manual BPTT, so it must itself be
grounded: every op is checked against central finite differences on fully
smooth graphs, and the smooth-spike network relaxation is FD-checked end
to end.
"""

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    add,
    cross_entropy_with_logits,
    exp,
    log,
    matmul,
    mul,
    scale,
    sigmoid,
    smooth_spike,
    spike,
    square,
    sub,
    tmean,
    tsum,
    unbroadcast,
    unroll,
    van_rossum_loss,
)
from repro.common.errors import ShapeError, StateError
from repro.core import CrossEntropyRateLoss, SpikingNetwork
from repro.core.surrogate import ErfcSurrogate
from repro.runtime.parallel import shard_grads


def finite_difference(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        grad[idx] = (f(xp) - f(xm)) / (2 * eps)
        it.iternext()
    return grad


class TestBasicOps:
    @pytest.mark.parametrize("op,np_op", [
        (add, lambda a, b: a + b),
        (sub, lambda a, b: a - b),
        (mul, lambda a, b: a * b),
    ])
    def test_binary_op_gradients(self, op, np_op):
        rng = np.random.default_rng(0)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(3, 4))

        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        tsum(op(a, b)).backward()
        fd_a = finite_difference(lambda x: np_op(x, b0).sum(), a0)
        fd_b = finite_difference(lambda x: np_op(a0, x).sum(), b0)
        np.testing.assert_allclose(a.grad, fd_a, atol=1e-6)
        np.testing.assert_allclose(b.grad, fd_b, atol=1e-6)

    def test_matmul_gradients(self):
        rng = np.random.default_rng(1)
        a0 = rng.normal(size=(3, 4))
        b0 = rng.normal(size=(4, 2))
        a = Tensor(a0, requires_grad=True)
        b = Tensor(b0, requires_grad=True)
        tsum(matmul(a, b)).backward()
        np.testing.assert_allclose(
            a.grad, finite_difference(lambda x: (x @ b0).sum(), a0), atol=1e-6)
        np.testing.assert_allclose(
            b.grad, finite_difference(lambda x: (a0 @ x).sum(), b0), atol=1e-6)

    @pytest.mark.parametrize("op,np_f", [
        (exp, np.exp),
        (square, lambda x: x ** 2),
        (sigmoid, lambda x: 1 / (1 + np.exp(-x))),
    ])
    def test_unary_op_gradients(self, op, np_f):
        rng = np.random.default_rng(2)
        x0 = rng.normal(size=(5,))
        x = Tensor(x0, requires_grad=True)
        tsum(op(x)).backward()
        np.testing.assert_allclose(
            x.grad, finite_difference(lambda v: np_f(v).sum(), x0), atol=1e-5)

    def test_log_gradient(self):
        x0 = np.array([0.5, 1.0, 3.0])
        x = Tensor(x0, requires_grad=True)
        tsum(log(x)).backward()
        np.testing.assert_allclose(x.grad, 1.0 / x0)

    def test_mean_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        tmean(x).backward()
        np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0))

    def test_scale(self):
        x = Tensor(np.ones(3), requires_grad=True)
        tsum(scale(x, 2.5)).backward()
        np.testing.assert_allclose(x.grad, 2.5)

    def test_broadcast_add(self):
        a = Tensor(np.ones((3, 4)), requires_grad=True)
        b = Tensor(np.ones((1, 4)), requires_grad=True)
        tsum(add(a, b)).backward()
        np.testing.assert_allclose(b.grad, np.full((1, 4), 3.0))

    def test_unbroadcast(self):
        grad = np.ones((3, 4))
        np.testing.assert_allclose(unbroadcast(grad, (1, 4)),
                                   np.full((1, 4), 3.0))
        np.testing.assert_allclose(unbroadcast(grad, (4,)),
                                   np.full((4,), 3.0))

    def test_grad_accumulates_across_uses(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = add(mul(x, x), x)          # x^2 + x -> dy/dx = 2x + 1 = 5
        y.backward(np.array([1.0]))
        np.testing.assert_allclose(x.grad, [5.0])

    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            mul(x, x).backward()

    def test_detach_cuts_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = mul(x, 2.0).detach()
        assert y.requires_grad is False


class TestLossFunctions:
    def test_cross_entropy_against_fd(self):
        rng = np.random.default_rng(3)
        logits0 = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])

        def f(x):
            shifted = x - x.max(axis=1, keepdims=True)
            p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
            return -np.mean(np.log(p[np.arange(4), labels]))

        logits = Tensor(logits0, requires_grad=True)
        cross_entropy_with_logits(logits, labels).backward()
        np.testing.assert_allclose(logits.grad,
                                   finite_difference(f, logits0), atol=1e-6)

    def test_van_rossum_matches_core_loss(self):
        from repro.core.loss import VanRossumLoss
        rng = np.random.default_rng(4)
        out0 = (rng.random((2, 12, 3)) < 0.3).astype(float)
        target = (rng.random((2, 12, 3)) < 0.3).astype(float)
        core_value, core_grad = VanRossumLoss().value_and_grad(out0, target)

        steps = [Tensor(out0[:, t, :], requires_grad=True)
                 for t in range(12)]
        loss = van_rossum_loss(steps, target)
        assert float(loss.data) == pytest.approx(core_value, rel=1e-12)
        loss.backward()
        for t, tensor in enumerate(steps):
            np.testing.assert_allclose(tensor.grad, core_grad[:, t, :],
                                       atol=1e-12)


class TestSpikeOps:
    def test_spike_forward_is_heaviside(self):
        v = Tensor(np.array([-1.0, 0.0, 0.5, 2.0]))
        out = spike(v, threshold=0.5, surrogate=ErfcSurrogate())
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 1.0, 1.0])

    def test_spike_backward_is_surrogate(self):
        surrogate = ErfcSurrogate()
        v0 = np.array([0.3, 0.9, 1.4])
        v = Tensor(v0, requires_grad=True)
        tsum(spike(v, threshold=1.0, surrogate=surrogate)).backward()
        np.testing.assert_allclose(v.grad, surrogate.derivative(v0 - 1.0))

    def test_smooth_spike_fd(self):
        surrogate = ErfcSurrogate()
        v0 = np.array([0.7, 1.0, 1.2])
        v = Tensor(v0, requires_grad=True)
        tsum(smooth_spike(v, threshold=1.0, surrogate=surrogate)).backward()
        fd = finite_difference(
            lambda x: surrogate.smooth_step(x - 1.0).sum(), v0)
        np.testing.assert_allclose(v.grad, fd, atol=1e-6)


class TestSmoothNetworkFiniteDifference:
    def test_smooth_relaxed_network_gradcheck(self):
        """End-to-end FD check: with smooth spikes the whole unrolled
        network is differentiable, so autograd must match finite
        differences — this grounds the entire verification chain."""
        rng = np.random.default_rng(5)
        x = (rng.random((2, 6, 4)) < 0.5).astype(float)
        w0 = rng.normal(scale=0.8, size=(4, 3))
        net = SpikingNetwork((4, 3), surrogate=ErfcSurrogate(), rng=0)

        def total(tape):
            total = None
            for o in tape.outputs[-1]:
                term = tsum(square(o))
                total = term if total is None else add(total, term)
            return total

        def loss_fn(w_flat):
            weights = [w_flat.reshape(4, 3).T]
            return float(total(unroll(net, x, weights=weights,
                                      smooth=True)).data)

        tape = unroll(net, x, weights=[w0.T], smooth=True)
        total(tape).backward()
        fd = finite_difference(lambda v: loss_fn(v), w0.ravel(), eps=1e-6)
        np.testing.assert_allclose(tape.weights[0].grad.ravel(), fd,
                                   rtol=1e-4, atol=1e-6)


class TestUnrollContract:
    """The network unroll's own API: validation and one-shot backward."""

    def _net_and_input(self):
        net = SpikingNetwork((6, 5, 3), rng=1)
        x = (np.random.default_rng(2).random((2, 7, 6)) < 0.4).astype(float)
        return net, x

    def test_backward_runs_once(self):
        net, x = self._net_and_input()
        tape = unroll(net, x)
        tape.backward(np.ones((2, 7, 3)))
        with pytest.raises(StateError):
            tape.backward(np.ones((2, 7, 3)))

    def test_shapes_are_validated(self):
        net, x = self._net_and_input()
        with pytest.raises(ShapeError):
            unroll(net, x[:, :, :5])
        with pytest.raises(ShapeError):
            unroll(net, x, weights=[net.weights[0]])
        with pytest.raises(ValueError):
            unroll(net, x, mode="rtrl")
        with pytest.raises(ShapeError):
            unroll(net, x).backward(np.ones((2, 7, 4)))

    def test_step_shard_grads_takes_no_weight_override(self):
        net, x = self._net_and_input()
        with pytest.raises(ValueError, match="fused-engine"):
            shard_grads(net, CrossEntropyRateLoss(), x, np.array([0, 2]),
                        engine="step", weights=net.weights)
