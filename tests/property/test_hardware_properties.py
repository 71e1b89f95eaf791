"""Property tests for the hardware substrate: crossbar quantization bounds,
crossbar linearity, MNA physicality."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.hardware.crossbar import DifferentialCrossbar
from repro.hardware.devices import RRAMDeviceConfig
from repro.hardware.quantization import weights_to_conductances
from repro.hardware.spice import Capacitor, Circuit, Resistor, VoltageSource

weight_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.tuples(st.integers(2, 6), st.integers(2, 6)),
    elements=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)


def _realized(weights, bits):
    """A noise-free crossbar's effective weights: the quantization grid."""
    crossbar = DifferentialCrossbar(weights,
                                    RRAMDeviceConfig(levels=2 ** bits))
    return np.asarray(crossbar.effective_weights())


@given(weights=weight_arrays, bits=st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_quantization_error_bound(weights, bits):
    """Quantization error never exceeds half a step of the differential
    grid (``scale / (levels - 1)``)."""
    quantized = _realized(weights, bits)
    scale = np.abs(weights).max()
    if scale == 0:
        np.testing.assert_array_equal(quantized, 0.0)
        return
    step = scale / (2 ** bits - 1)
    assert np.max(np.abs(quantized - weights)) <= step / 2 + 1e-12


@given(weights=weight_arrays, bits=st.integers(min_value=2, max_value=8))
@settings(max_examples=60, deadline=None)
def test_quantization_idempotent(weights, bits):
    """Programming a crossbar's own realization again changes nothing."""
    once = _realized(weights, bits)
    np.testing.assert_allclose(_realized(once, bits), once, atol=1e-12)


@given(weights=weight_arrays)
@settings(max_examples=60, deadline=None)
def test_conductance_mapping_roundtrip(weights):
    device = RRAMDeviceConfig()
    g_plus, g_minus, scale = weights_to_conductances(weights, device)
    assert np.all(g_plus >= device.g_min - 1e-18)
    assert np.all(g_minus >= device.g_min - 1e-18)
    assert np.all(g_plus <= device.g_max + 1e-18)
    # A noise-free 16-bit ladder reads the weights back within half a step.
    recovered = _realized(weights, bits=16)
    np.testing.assert_allclose(recovered, weights,
                               atol=scale / (2 ** 16 - 1) / 2 + 1e-12)


@given(
    weights=weight_arrays,
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=30, deadline=None)
def test_crossbar_is_linear(weights, seed):
    """The crossbar's analog product must be linear in its inputs
    (Kirchhoff superposition), whatever the programmed noise."""
    xbar = DifferentialCrossbar(
        weights, RRAMDeviceConfig(levels=16, variation=0.2), rng=seed)
    rng = np.random.default_rng(seed)
    a = rng.random(weights.shape[1])
    b = rng.random(weights.shape[1])
    lhs = xbar.bitline_currents(a + b)
    rhs = xbar.bitline_currents(a) + xbar.bitline_currents(b)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-15)


@given(
    r1=st.floats(min_value=100.0, max_value=1e6),
    r2=st.floats(min_value=100.0, max_value=1e6),
    v=st.floats(min_value=-5.0, max_value=5.0),
)
@settings(max_examples=40, deadline=None)
def test_mna_voltage_divider_exact(r1, r2, v):
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", v))
    circuit.add(Resistor("ra", "in", "mid", r1))
    circuit.add(Resistor("rb", "mid", "0", r2))
    result = circuit.transient(1e-9, 1e-10)
    expected = v * r2 / (r1 + r2)
    np.testing.assert_allclose(result.voltage("mid"), expected,
                               rtol=1e-9, atol=1e-12)


@given(
    r=st.floats(min_value=1e3, max_value=1e5),
    c=st.floats(min_value=1e-12, max_value=1e-10),
)
@settings(max_examples=25, deadline=None)
def test_mna_rc_settles_to_source(r, c):
    """Any RC low-pass eventually settles at the DC source level, from
    below, without overshoot (passivity)."""
    circuit = Circuit()
    circuit.add(VoltageSource("v1", "in", "0", 1.0))
    circuit.add(Resistor("r1", "in", "out", r))
    circuit.add(Capacitor("c1", "out", "0", c))
    tau = r * c
    result = circuit.transient(8 * tau, tau / 100)
    out = result.voltage("out")
    assert np.all(out <= 1.0 + 1e-9)          # no overshoot
    assert np.all(np.diff(out) >= -1e-9)      # monotone rise
    assert out[-1] > 0.999                    # settled


@given(
    variation=st.floats(min_value=0.0, max_value=0.5),
    seed=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=30, deadline=None)
def test_effective_weight_error_bounded_by_window(variation, seed):
    """However bad the variation, effective weights stay within the range
    representable by the conductance window (clipping physicality)."""
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(4, 4))
    xbar = DifferentialCrossbar(
        weights, RRAMDeviceConfig(levels=16, variation=variation), rng=seed)
    effective = xbar.effective_weights()
    limit = np.abs(weights).max() * (1.0 + 1e-9)
    assert np.all(np.abs(effective) <= limit + 1e-9)
