"""Unit tests for repro.core.neurons (paper eqs. 1 and 6-12).

A neuron object holds parameters only; the dynamics are read off engine
records of one-layer networks.  The synapses here have no memory (``tau``
so small that ``alpha = e^{-1/tau}`` underflows to 0.0), so with unit
weights the drive ``g[t]`` is the input ``x[t]`` itself and a test sets
the PSP step by step.  The adaptive threshold is read through eq. 6:
``Vth + theta*h[t] = Vth + g[t] - v[t]``.
"""

import numpy as np
import pytest

from repro.core import SpikingLinear, SpikingNetwork
from repro.core.filters import decay_from_tau, exp_scan
from repro.core.neurons import (
    AdaptiveLIFNeuron,
    HardResetLIFNeuron,
    NeuronParameters,
    make_neuron,
)

#: Synapse time constant whose decay underflows to exactly 0.0.
MEMORYLESS = 1e-3


def run_layer(drive, kind="adaptive", weight=None, **params):
    """``(layer, record)`` of one ``kind`` layer over ``drive``.

    ``drive`` is ``(T,)`` (one neuron, one sample) or ``(batch, T, n)``;
    ``weight`` defaults to the identity, and the synapse is memoryless
    unless ``params`` sets ``tau``.
    """
    drive = np.asarray(drive, dtype=np.float64)
    if drive.ndim == 1:
        drive = drive[None, :, None]
    n = drive.shape[2]
    weight = np.eye(n) if weight is None else np.asarray(weight, np.float64)
    params.setdefault("tau", MEMORYLESS)
    layer = SpikingLinear(n, weight.shape[0], params=NeuronParameters(**params),
                          neuron_kind=kind, weight=weight)
    _, record = SpikingNetwork.from_layers([layer]).run(drive, record=True)
    return layer, record.layers[0]


def threshold(layer, rec):
    """The eq. 12 threshold ``Vth + theta*h`` of an adaptive record."""
    assert layer.alpha == 0.0
    g = rec.k @ layer.weight.T
    return layer.params.v_th + (g - rec.v)


class TestNeuronParameters:
    def test_paper_defaults(self):
        params = NeuronParameters()
        assert params.tau == 4.0
        assert params.tau_r == 4.0
        assert params.v_th == 1.0

    def test_validation(self):
        with pytest.raises(Exception):
            NeuronParameters(tau=-1.0)
        with pytest.raises(Exception):
            NeuronParameters(v_th=0.0)
        with pytest.raises(Exception):
            NeuronParameters(theta=-0.5)


class TestAdaptiveLIFNeuron:
    def test_no_spike_below_threshold(self):
        _, rec = run_layer(np.full((2, 1, 3), 0.5))
        assert rec.spikes.sum() == 0
        np.testing.assert_allclose(rec.v, 0.5)

    def test_spikes_at_threshold(self):
        _, rec = run_layer([1.0])               # v_th = 1.0, >= fires
        assert rec.spikes[0, 0, 0] == 1.0

    def test_threshold_rises_after_spike(self):
        """Eq. 8: h jumps by the previous output, threshold = Vth + theta*h."""
        layer, rec = run_layer([2.0, 0.0, 0.0], theta=1.0, tau_r=4.0)
        np.testing.assert_array_equal(rec.spikes[0, :, 0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(threshold(layer, rec)[0, :, 0],
                                   [1.0, 2.0, 1.0 + decay_from_tau(4.0)])

    def test_threshold_decays_exponentially(self):
        layer, rec = run_layer([5.0] + [0.0] * 7)   # fire once
        above = threshold(layer, rec)[0, 1:, 0] - 1.0
        np.testing.assert_allclose(above[1:] / above[:-1],
                                   decay_from_tau(4.0), rtol=1e-9)

    def test_refractory_suppression(self):
        """A PSP that would fire alone is suppressed right after a spike."""
        _, rec = run_layer([1.2, 1.2], theta=1.0)  # threshold now 2.0 > 1.2
        np.testing.assert_array_equal(rec.spikes[0, :, 0], [1.0, 0.0])

    def test_adaptive_threshold_form_equivalence(self):
        """Eq. 6+10 (v = g - theta*h vs Vth) == eq. 12 (g vs Vth + theta*h),
        with ``h`` stepped from the run's own spikes (eq. 8)."""
        g = np.random.default_rng(0).random((2, 30, 4)) * 2.0
        layer, rec = run_layer(g, theta=0.7)
        beta = layer.neuron.beta_r
        h = np.zeros((2, 4))
        previous = np.zeros((2, 4))
        for t in range(30):
            h = beta * h + previous
            expected = (g[:, t] >= 1.0 + 0.7 * h).astype(float)
            np.testing.assert_array_equal(rec.spikes[:, t], expected)
            previous = rec.spikes[:, t]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            AdaptiveLIFNeuron(0)

    def test_state_isolated_between_batches(self):
        layer, rec = run_layer(np.array([[[2.0], [0.0]], [[0.0], [0.0]]]))
        np.testing.assert_array_equal(rec.spikes[:, 0], [[1.0], [0.0]])
        # Only sample 0's threshold rises.
        thresholds = threshold(layer, rec)[:, 1, 0]
        assert thresholds[0] > thresholds[1]


class TestHardResetLIFNeuron:
    def test_integrates_like_filter_without_reset(self):
        """With inputs too weak to fire, v equals the exponential filter of
        the drive — identical to the adaptive model's PSP (Section II)."""
        j = np.random.default_rng(1).random((1, 25, 3)) * 0.1
        layer, rec = run_layer(j, kind="hard_reset", tau=4.0, v_th=1e9)
        np.testing.assert_allclose(rec.v, exp_scan(j, layer.neuron.alpha),
                                   rtol=1e-12)
        _, psp = run_layer(j, tau=4.0)
        np.testing.assert_allclose(rec.v, psp.k, rtol=1e-12)

    def test_reset_wipes_state(self):
        _, rec = run_layer([1.5, 0.0], kind="hard_reset", tau=4.0)
        assert rec.spikes[0, 0, 0] == 1.0
        # After reset the membrane restarts from zero.
        assert rec.v[0, 1, 0] == pytest.approx(0.0)

    def test_subthreshold_not_reset(self):
        layer, rec = run_layer([0.4, 0.0], kind="hard_reset", tau=4.0)
        assert rec.v[0, 1, 0] == pytest.approx(0.4 * layer.neuron.alpha)

    def test_euler_discretization_gains(self):
        impulse = HardResetLIFNeuron(1, discretization="impulse")
        euler = HardResetLIFNeuron(1, discretization="euler")
        assert impulse.input_gain == 1.0
        assert euler.input_gain == pytest.approx(0.25)     # 1/tau
        assert euler.alpha == pytest.approx(0.75)          # 1 - 1/tau
        assert impulse.alpha == pytest.approx(np.exp(-0.25))
        # The engine steps v[t] = (1 - 1/tau) v[t-1] + (1/tau) j[t].
        _, rec = run_layer([1.0, 0.0, 0.0], kind="hard_reset_euler",
                           tau=4.0)
        np.testing.assert_allclose(rec.v[0, :, 0], [0.25, 0.1875, 0.140625])

    def test_unknown_discretization(self):
        with pytest.raises(ValueError):
            HardResetLIFNeuron(1, discretization="rk4")


class TestFactory:
    def test_kinds(self):
        assert isinstance(make_neuron("adaptive", 3), AdaptiveLIFNeuron)
        hr = make_neuron("hard_reset", 3)
        assert isinstance(hr, HardResetLIFNeuron)
        assert hr.discretization == "impulse"
        he = make_neuron("hard_reset_euler", 3)
        assert he.discretization == "euler"

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown neuron kind"):
            make_neuron("izhikevich", 3)

    @pytest.mark.parametrize("kind,fields", [
        ("adaptive", {"n", "params", "beta_r"}),
        ("hard_reset", {"n", "params", "discretization", "alpha",
                        "input_gain"}),
    ])
    def test_neurons_hold_parameters_only(self, kind, fields):
        """No run state: the engine and the tape read these and nothing
        else."""
        assert set(vars(make_neuron(kind, 3))) == fields
