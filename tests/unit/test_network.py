"""Unit tests for repro.core.network."""

import numpy as np
import pytest

from repro.common.errors import ShapeError
from repro.core.layers import SpikingLinear
from repro.core.network import SpikingNetwork
from repro.core.surrogate import SigmoidSurrogate, TriangleSurrogate


@pytest.fixture
def net():
    return SpikingNetwork((6, 5, 4), rng=0)


class TestConstruction:
    def test_layer_sizes(self, net):
        assert [l.n_in for l in net.layers] == [6, 5]
        assert [l.n_out for l in net.layers] == [5, 4]

    def test_too_few_sizes(self):
        with pytest.raises(ValueError):
            SpikingNetwork((10,))

    def test_count_parameters(self, net):
        assert net.count_parameters() == 6 * 5 + 5 * 4

    def test_deterministic(self):
        a = SpikingNetwork((6, 5, 4), rng=3)
        b = SpikingNetwork((6, 5, 4), rng=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)


class TestRun:
    def test_output_shape(self, net):
        x = np.zeros((3, 11, 6))
        out, record = net.run(x)
        assert out.shape == (3, 11, 4)
        assert record is None

    def test_record_contents(self, net):
        x = np.zeros((2, 7, 6))
        out, record = net.run(x, record=True)
        assert record.inputs.shape == (2, 7, 6)
        assert len(record.layers) == 2
        assert record.outputs is record.layers[-1].spikes
        np.testing.assert_array_equal(record.layer_input(0), record.inputs)
        np.testing.assert_array_equal(record.layer_input(1),
                                      record.layers[0].spikes)

    def test_wrong_channel_count(self, net):
        with pytest.raises(ShapeError):
            net.run(np.zeros((1, 5, 7)))

    def test_wrong_rank(self, net):
        with pytest.raises(ShapeError):
            net.run(np.zeros((5, 6)))

    def test_deterministic_forward(self, net):
        rng = np.random.default_rng(0)
        x = (rng.random((2, 15, 6)) < 0.4).astype(float)
        out1, _ = net.run(x)
        out2, _ = net.run(x)
        np.testing.assert_array_equal(out1, out2)

    def test_step_equals_run(self, net):
        """Stepping manually must match the vectorised run."""
        rng = np.random.default_rng(1)
        x = (rng.random((1, 9, 6)) < 0.5).astype(float)
        out_run, _ = net.run(x)
        net.reset_state(1)
        stepped = np.stack(
            [net.step(x[:, t, :]) for t in range(9)], axis=1)
        np.testing.assert_array_equal(out_run, stepped)


class TestParameters:
    def test_state_dict_roundtrip(self, net):
        state = net.state_dict()
        clone = SpikingNetwork((6, 5, 4), rng=99)
        clone.load_state_dict(state)
        for wa, wb in zip(net.weights, clone.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_load_missing_key_raises(self, net):
        with pytest.raises(ShapeError):
            net.load_state_dict({})

    def test_set_weights_validates_shapes(self, net):
        with pytest.raises(ShapeError):
            net.set_weights([np.zeros((5, 6)), np.zeros((4, 4))])
        with pytest.raises(ShapeError):
            net.set_weights([np.zeros((5, 6))])

    def test_with_neuron_kind_shares_weights(self, net):
        hr = net.with_neuron_kind("hard_reset")
        assert hr.layers[0].weight is net.layers[0].weight
        assert hr.neuron_kind == "hard_reset"
        # Mutating the original is visible in the clone (shared memory).
        net.layers[0].weight[0, 0] = 123.0
        assert hr.layers[0].weight[0, 0] == 123.0

    def test_with_neuron_kind_keeps_each_layers_surrogate(self):
        net = SpikingNetwork((6, 5, 4), surrogate=SigmoidSurrogate(), rng=0)
        net.layers[1].surrogate = TriangleSurrogate()
        hr = net.with_neuron_kind("hard_reset")
        assert [type(layer.surrogate).__name__ for layer in hr.layers] == [
            "SigmoidSurrogate", "TriangleSurrogate"]
        assert all(ours.surrogate is theirs.surrogate
                   for ours, theirs in zip(net.layers, hr.layers))
        assert hr.sizes == net.sizes and hr.params is net.params

    def test_from_layers_checks_the_stack(self):
        first = SpikingLinear(6, 5, rng=0)
        with pytest.raises(ShapeError):
            SpikingNetwork.from_layers([first, SpikingLinear(4, 3, rng=1)])
        with pytest.raises(ValueError):
            SpikingNetwork.from_layers(
                [first, SpikingLinear(5, 3, neuron_kind="hard_reset", rng=1)])
        with pytest.raises(ValueError):
            SpikingNetwork.from_layers([])
        net = SpikingNetwork.from_layers([first, SpikingLinear(5, 3, rng=1)])
        assert net.sizes == (6, 5, 3) and net.layers[0] is first
