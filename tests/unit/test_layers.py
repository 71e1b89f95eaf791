"""Unit tests for repro.core.layers."""

import numpy as np
import pytest

from repro.common.errors import ShapeError
from repro.core.layers import SpikingLinear
from repro.core.network import SpikingNetwork
from repro.core.neurons import NeuronParameters


def run_alone(layer, xs, record=False):
    """Run ``layer`` as a one-layer network: ``(spikes, layer record)``."""
    out, rec = SpikingNetwork.from_layers([layer]).run(xs, record=record)
    return out, rec.layers[0] if record else None


class TestConstruction:
    def test_weight_shape(self):
        layer = SpikingLinear(10, 4, rng=0)
        assert layer.weight.shape == (4, 10)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            SpikingLinear(0, 4)
        with pytest.raises(ValueError):
            SpikingLinear(4, -1)

    def test_deterministic_init(self):
        a = SpikingLinear(8, 3, rng=7)
        b = SpikingLinear(8, 3, rng=7)
        np.testing.assert_array_equal(a.weight, b.weight)

    def test_different_seeds_differ(self):
        a = SpikingLinear(8, 3, rng=7)
        b = SpikingLinear(8, 3, rng=8)
        assert not np.array_equal(a.weight, b.weight)


class TestForward:
    def test_adaptive_psp_is_filtered_weighted_input(self):
        """g = W k with k the exponential filter of the input spikes."""
        layer = SpikingLinear(3, 2, params=NeuronParameters(v_th=1e9), rng=0)
        rng = np.random.default_rng(0)
        xs = (rng.random((1, 10, 3)) < 0.5).astype(float)
        _, record = run_alone(layer, xs, record=True)
        carry = np.zeros((1, 3))
        for t in range(10):
            carry = layer.alpha * carry + xs[:, t]
            np.testing.assert_allclose(record.v[:, t], carry @ layer.weight.T,
                                       rtol=1e-12)

    def test_run_shapes_and_reset(self):
        layer = SpikingLinear(6, 4, rng=1)
        xs = np.zeros((2, 12, 6))
        out, record = run_alone(layer, xs, record=True)
        assert out.shape == (2, 12, 4)
        assert record.k.shape == (2, 12, 6)
        assert record.v.shape == (2, 12, 4)

    def test_run_resets_state_each_call(self):
        layer = SpikingLinear(4, 2, rng=2)
        layer.weight = np.abs(layer.weight) * 10
        xs = (np.random.default_rng(0).random((1, 10, 4)) < 0.5).astype(float)
        out1, _ = run_alone(layer, xs)
        out2, _ = run_alone(layer, xs)
        np.testing.assert_array_equal(out1, out2)

    def test_hard_reset_layer_has_no_k_record(self):
        layer = SpikingLinear(4, 2, neuron_kind="hard_reset", rng=0)
        xs = np.zeros((1, 5, 4))
        _, record = run_alone(layer, xs, record=True)
        assert record.k is None

    def test_run_rejects_bad_rank(self):
        layer = SpikingLinear(4, 2, rng=0)
        with pytest.raises(ShapeError):
            run_alone(layer, np.zeros((5, 4)))


class TestNeuronSwap:
    def test_copy_with_neuron_shares_weights(self):
        layer = SpikingLinear(5, 3, rng=0)
        clone = layer.copy_with_neuron("hard_reset")
        assert clone.weight is layer.weight
        assert clone.neuron_kind == "hard_reset"

    def test_swap_preserves_subthreshold_dynamics(self):
        """With an unreachable threshold, adaptive PSP == hard-reset
        membrane (the Section II equivalence that justifies the swap)."""
        params = NeuronParameters(v_th=1e9)
        layer = SpikingLinear(4, 3, params=params, rng=3)
        hr = layer.copy_with_neuron("hard_reset")
        xs = (np.random.default_rng(1).random((2, 20, 4)) < 0.4).astype(float)
        _, rec_a = run_alone(layer, xs, record=True)
        _, rec_h = run_alone(hr, xs, record=True)
        np.testing.assert_allclose(rec_a.v, rec_h.v, rtol=1e-10)
