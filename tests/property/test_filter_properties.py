"""Property-based tests for the pair of scans (paper eq. 5).

The filters are the paper's core modelling primitive; these properties
(linearity, boundedness, adjointness, decay) must hold for *any* input,
not just the cases unit tests picked.  The engine runs the same kernels
(``repro.core.filters._scan`` and ``_scan_reverse``).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.filters import (
    DoubleExponentialKernel,
    decay_from_tau,
    exp_scan,
    exp_scan_adjoint,
)

taus = st.floats(min_value=0.5, max_value=50.0, allow_nan=False)
signals = hnp.arrays(
    dtype=np.float64, shape=st.integers(min_value=1, max_value=60),
    elements=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False,
                       allow_infinity=False),
)


def scan(signal, alpha):
    """:func:`exp_scan` of a single ``(T,)`` train."""
    return exp_scan(signal[None, :, None], alpha)[0, :, 0]


def adjoint(signal, alpha):
    """:func:`exp_scan_adjoint` of a single ``(T,)`` train."""
    return exp_scan_adjoint(signal[None, :, None], alpha)[0, :, 0]


@given(signal=signals, tau=taus)
@settings(max_examples=60, deadline=None)
def test_linearity_superposition(signal, tau):
    """filter(a + b) == filter(a) + filter(b) — the LTI property the SRM
    derivation (Section II) rests on."""
    alpha = decay_from_tau(tau)
    rng = np.random.default_rng(0)
    other = rng.normal(size=signal.shape)
    combined = scan(signal + other, alpha)
    separate = scan(signal, alpha) + scan(other, alpha)
    np.testing.assert_allclose(combined, separate, atol=1e-9)


@given(signal=signals, tau=taus, scale=st.floats(min_value=-3.0, max_value=3.0,
                                                 allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_homogeneity(signal, tau, scale):
    alpha = decay_from_tau(tau)
    np.testing.assert_allclose(
        scan(scale * signal, alpha),
        scale * scan(signal, alpha),
        atol=1e-9,
    )


@given(signal=signals, tau=taus)
@settings(max_examples=60, deadline=None)
def test_bounded_by_dc_gain(signal, tau):
    """|y[t]| <= max|x| / (1 - alpha) for any input, and so is the
    adjoint's."""
    alpha = decay_from_tau(tau)
    bound = np.max(np.abs(signal)) / (1.0 - alpha) + 1e-9
    assert np.all(np.abs(scan(signal, alpha)) <= bound)
    assert np.all(np.abs(adjoint(signal, alpha)) <= bound)


@given(tau=taus, length=st.integers(min_value=2, max_value=80))
@settings(max_examples=40, deadline=None)
def test_impulse_response_decays_monotonically(tau, length):
    alpha = decay_from_tau(tau)
    impulse = np.zeros(length)
    impulse[0] = 1.0
    out = scan(impulse, alpha)
    assert np.all(np.diff(out) <= 0)
    assert out[0] == 1.0


@given(tau=taus, length=st.integers(min_value=1, max_value=50))
@settings(max_examples=40, deadline=None)
def test_adjoint_identity_random(tau, length):
    """<F x, y> == <x, F* y> for random vectors (exact adjointness,
    required for the BPTT filter adjoints to be exact gradients)."""
    alpha = decay_from_tau(tau)
    rng = np.random.default_rng(length)
    x = rng.normal(size=length)
    y = rng.normal(size=length)
    lhs = np.dot(scan(x, alpha), y)
    rhs = np.dot(x, adjoint(y, alpha))
    np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


@given(
    tau_m=st.floats(min_value=2.0, max_value=20.0),
    tau_ratio=st.floats(min_value=0.05, max_value=0.8),
    length=st.integers(min_value=2, max_value=60),
)
@settings(max_examples=40, deadline=None)
def test_double_exp_kernel_nonnegative_and_peaked(tau_m, tau_ratio, length):
    kernel = DoubleExponentialKernel(tau_m=tau_m, tau_s=tau_m * tau_ratio)
    values = kernel.kernel(length)
    assert values[0] == 0.0
    assert np.all(values >= 0.0)


@given(signal=signals)
@settings(max_examples=40, deadline=None)
def test_double_exp_convolve_linearity(signal):
    kernel = DoubleExponentialKernel()
    rng = np.random.default_rng(1)
    other = rng.normal(size=signal.shape)
    np.testing.assert_allclose(
        kernel.convolve(signal + other),
        kernel.convolve(signal) + kernel.convolve(other),
        atol=1e-9,
    )
