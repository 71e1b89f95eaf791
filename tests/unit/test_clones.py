"""Clones are built around given weight arrays, with no throwaway init.

A hardware clone, a neuron-kind swap and a layer copy draw no random
numbers; the hardware clone owns private copies of the mapped
realization; and the Fig. 8 effective weights are bitwise those of the
reference mapping pipeline (the ``np.where`` form of the
weight-to-conductance map, programmed from the crossbars' own streams).
"""

import numpy as np
import pytest

from repro.common.benchcfg import bench_network
from repro.common.errors import ShapeError
from repro.common.rng import RandomState
from repro.core.layers import SpikingLinear
from repro.core.network import SpikingNetwork
from repro.hardware import HardwareMappedNetwork, RRAMDeviceConfig
from repro.hardware.devices import program_conductances
from repro.hardware.quantization import (resolve_weight_scale,
                                         weights_to_conductances)


@pytest.fixture
def no_normal_draws(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a clone drew random weights")
    monkeypatch.setattr(RandomState, "normal", refuse)


def test_clones_draw_no_random_numbers(no_normal_draws):
    net = SpikingNetwork.from_layers([
        SpikingLinear(12, 6, weight=np.ones((6, 12))),
        SpikingLinear(6, 3, weight=np.ones((3, 6)))])
    device = RRAMDeviceConfig().replace(variation=0.3)
    mapped = HardwareMappedNetwork(net, device, rng=RandomState(1))
    assert mapped.hardware_network.sizes == net.sizes
    hr = net.with_neuron_kind("hard_reset")
    assert hr.neuron_kind == "hard_reset"
    clone = net.layers[0].copy_with_neuron("hard_reset")
    assert clone.weight is net.layers[0].weight


def test_a_layer_is_built_around_its_weight():
    weight = np.arange(12.0).reshape(3, 4)
    layer = SpikingLinear(4, 3, weight=weight)
    assert layer.weight is weight
    with pytest.raises(ShapeError):
        SpikingLinear(3, 4, weight=weight)


def test_hardware_clone_owns_private_copies():
    net = SpikingNetwork((12, 6, 3), rng=0)
    mapped = HardwareMappedNetwork(net, RRAMDeviceConfig(),
                                   rng=RandomState(2))
    for installed, realized in zip(mapped.hardware_network.weights,
                                   mapped.weight_list()):
        assert installed is not realized
        assert not np.shares_memory(installed, realized)
        assert installed.flags.writeable
        assert np.array_equal(installed, realized)
    names = [layer.name for layer in mapped.hardware_network.layers]
    assert names == ["layer0", "layer1"]


def _reference_conductances(weights, device):
    """The weight-to-conductance map in its original ``np.where`` form."""
    scale = resolve_weight_scale(weights)
    window = device.g_max - device.g_min
    normalized = np.clip(weights / scale, -1.0, 1.0)
    magnitude = np.abs(normalized) * window
    g_plus = np.where(normalized >= 0, device.g_min + magnitude, device.g_min)
    g_minus = np.where(normalized < 0, device.g_min + magnitude, device.g_min)
    return g_plus, g_minus, scale


@pytest.mark.parametrize("values", [
    [[-0.0, 0.0, 1.0, -1.0, 0.25, -0.25]],
    [[np.nan, 0.5, -0.5, np.inf, -np.inf, 5e-324]],
    [[0.0, -0.0], [-0.0, 0.0]],
    [[3e-300, -7e-301, 1e-310, -2e-310]],
])
def test_conductance_map_matches_the_reference_on_edge_values(values):
    weights = np.array(values)
    for device in (RRAMDeviceConfig(),
                   RRAMDeviceConfig(g_min=0.5, g_max=2.0, levels=4)):
        with np.errstate(invalid="ignore"):
            got = weights_to_conductances(weights, device)
            want = _reference_conductances(weights, device)
        for a, b in zip(got[:2], want[:2]):
            assert a.tobytes() == b.tobytes()
        assert got[2] == want[2] or (np.isnan(got[2]) and np.isnan(want[2]))


@pytest.mark.parametrize("bits", [4, 5])
@pytest.mark.parametrize("seed", [0, 7])
def test_fig8_effective_weights_are_bitwise_the_reference(bits, seed):
    net = bench_network()
    for variation in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        device = RRAMDeviceConfig().replace(levels=2 ** bits,
                                            variation=variation)
        mapped = HardwareMappedNetwork(net, device, rng=RandomState(seed))
        root = RandomState(seed)
        window = device.g_max - device.g_min
        for i, (layer, installed) in enumerate(
                zip(net.layers, mapped.hardware_network.weights)):
            g_plus, g_minus, scale = _reference_conductances(layer.weight,
                                                             device)
            streams = root.child(f"crossbar{i}")
            achieved = [program_conductances(g, device,
                                             rng=streams.child(side))
                        for g, side in ((g_plus, "plus"),
                                        (g_minus, "minus"))]
            want = (achieved[0] - achieved[1]) * scale / window
            assert installed.tobytes() == want.tobytes()
