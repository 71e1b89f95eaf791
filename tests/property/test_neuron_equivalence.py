"""Property tests for the neuron-model equivalences claimed in Section II,
read off engine records of one-neuron networks (unit synapse weight).

Two load-bearing identities:

1. **Adaptive-threshold form == reset-charge form** (eq. 6+10 vs eq. 12):
   comparing ``v = g - theta*h`` against ``Vth`` must produce exactly the
   same spikes as comparing ``g`` against ``Vth + theta*h``.

2. **Sub-threshold equivalence of the two neuron models**: without any
   spikes, the hard-reset membrane is exactly the exponential filter of
   the drive, i.e. the adaptive model's PSP.  (This makes the paper's
   weight-preserving neuron swap meaningful.)
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SpikingLinear, SpikingNetwork
from repro.core.filters import exp_scan
from repro.core.neurons import NeuronParameters


def drive_strategy():
    return st.lists(
        st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
        min_size=1, max_size=40,
    )


def run_neuron(drive, params, kind="adaptive"):
    """``(layer, record)`` of one neuron with a unit synapse over the
    ``(T,)`` input ``drive``."""
    layer = SpikingLinear(1, 1, params=params, neuron_kind=kind,
                          weight=np.ones((1, 1)))
    x = np.asarray(drive, dtype=np.float64)[None, :, None]
    _, record = SpikingNetwork.from_layers([layer]).run(x, record=True)
    return layer, record.layers[0]


@given(
    drive=drive_strategy(),
    theta=st.floats(min_value=0.0, max_value=3.0),
    tau_r=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=80, deadline=None)
def test_reset_charge_equals_adaptive_threshold(drive, theta, tau_r):
    params = NeuronParameters(theta=theta, tau_r=tau_r)
    layer, rec = run_neuron(drive, params)
    g = rec.k[0, :, 0]               # unit weight: the PSP is the drive
    beta = layer.neuron.beta_r
    h = 0.0
    last_out = 0.0
    for t, g_value in enumerate(g):
        # Manual eq. 12: threshold comparison.
        h = beta * h + last_out
        expected = 1.0 if g_value >= params.v_th + theta * h else 0.0
        assert rec.spikes[0, t, 0] == expected
        # And eq. 6's membrane identity.
        assert rec.v[0, t, 0] == np.float64(g_value - theta * h)
        last_out = expected


@given(drive=drive_strategy(), tau=st.floats(min_value=0.5, max_value=20.0))
@settings(max_examples=80, deadline=None)
def test_hard_reset_subthreshold_is_exponential_filter(drive, tau):
    params = NeuronParameters(tau=tau, v_th=1e12)     # never fires
    layer, rec = run_neuron(drive, params, kind="hard_reset")
    x = np.asarray(drive, dtype=np.float64)[None, :, None]
    np.testing.assert_allclose(rec.v, exp_scan(x, layer.neuron.alpha),
                               rtol=1e-10, atol=1e-12)
    _, psp = run_neuron(drive, params)
    np.testing.assert_allclose(rec.v, psp.k, rtol=1e-10, atol=1e-12)


@given(drive=drive_strategy())
@settings(max_examples=60, deadline=None)
def test_hard_reset_membrane_never_exceeds_unreset_psp(drive):
    """Resetting only ever removes accumulated potential: the HR membrane
    is pointwise <= the never-reset PSP for non-negative drive."""
    params = NeuronParameters()
    _, rec = run_neuron(drive, params, kind="hard_reset")
    _, psp = run_neuron(drive, params)
    assert np.all(rec.v <= psp.k + 1e-9)


@given(
    drive=drive_strategy(),
    theta=st.floats(min_value=0.1, max_value=2.0),
)
@settings(max_examples=60, deadline=None)
def test_adaptive_threshold_never_below_base(drive, theta):
    """theta*h >= 0 always: the effective threshold can only rise above
    Vth, never fall below it (h is a filtered spike count)."""
    params = NeuronParameters(theta=theta)
    _, rec = run_neuron(drive, params)
    threshold = params.v_th + (rec.k - rec.v)     # Vth + theta*h (eq. 6)
    assert np.all(threshold >= params.v_th - 1e-12)


@given(drive=drive_strategy())
@settings(max_examples=60, deadline=None)
def test_spikes_are_binary(drive):
    _, rec = run_neuron(drive, NeuronParameters())
    assert set(np.unique(rec.spikes)) <= {0.0, 1.0}
