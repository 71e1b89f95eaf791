"""Hardware streaming equivalence: chunked hardware ``run_stream`` ==
one-shot hardware ``run``.

The hardware-in-the-loop analogue of ``tests/unit/test_streaming.py``:
a :class:`~repro.hardware.mapped_network.HardwareMappedNetwork` streamed
in chunks of any sizes produces *bitwise-identical* output spikes to its
one-shot ``run`` — for the deterministic mapped realization and for a
read-noise realization pinned by a per-stream rng seed.  The guarantee
rests on the same two pillars as the software one: first-order carries
plus the always-CSR crossbar product (the weight override changes weight
*values* only, never the code path), and on the stream's weight
realization being pinned once at open (``weight_list``'s generation-keyed
cache / the ``read_noise_rng`` snapshot).
"""

import numpy as np
import pytest

from repro.common.errors import ConfigError, ShapeError, StateError
from repro.core import SpikingNetwork
from repro.hardware import (
    HardwareMappedNetwork,
    HardwareProfile,
    RRAMDeviceConfig,
    accuracy_under_variation,
)

SIZES = (48, 44, 40)
BATCH, STEPS = 8, 48
DENSITY = 0.08


def make_net(seed=1):
    net = SpikingNetwork(SIZES, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_mapped(variation=0.1, read_noise=0.0, seed=3, net=None):
    device = RRAMDeviceConfig(levels=16, variation=variation,
                              read_noise=read_noise)
    return HardwareMappedNetwork(net or make_net(), device, rng=seed)


def make_inputs(batch=BATCH, steps=STEPS, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.random((batch, steps, SIZES[0])) < DENSITY).astype(np.float64)


def stream_in_chunks(mapped, x, chunk, precision=None, read_noise_rng=None):
    state = None
    outs = []
    for start in range(0, x.shape[1], chunk):
        out, state = mapped.run_stream(
            x[:, start:start + chunk], state, precision=precision,
            read_noise_rng=read_noise_rng if state is None else None)
        outs.append(out)
    return np.concatenate(outs, axis=1), state


class TestChunkedHardwareEquivalence:
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("chunk", [1, 7, STEPS])
    def test_chunked_equals_one_shot(self, precision, chunk):
        mapped = make_mapped()
        x = make_inputs()
        full, _ = mapped.run(x, precision=precision)
        got, state = stream_in_chunks(mapped, x, chunk, precision=precision)
        assert got.dtype == full.dtype
        assert np.array_equal(full, got)
        assert state.steps.tolist() == [STEPS] * BATCH

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    @pytest.mark.parametrize("chunk", [1, 7, STEPS])
    def test_chunked_equals_one_shot_under_pinned_read_noise(
            self, precision, chunk):
        """Read noise pinned by a per-stream seed: the stream draws its
        read realization once at open and every chunk reuses it, so the
        one-shot run under the same seed is bitwise identical."""
        mapped = make_mapped(read_noise=0.05)
        x = make_inputs()
        full, _ = mapped.run(x, precision=precision, read_noise_rng=7)
        got, _ = stream_in_chunks(mapped, x, chunk, precision=precision,
                                  read_noise_rng=7)
        assert np.array_equal(full, got)

    def test_hardware_differs_from_ideal(self):
        """Sanity: the mapped realization actually moves the outputs
        (otherwise every equivalence above would be vacuous)."""
        net = make_net()
        mapped = make_mapped(variation=0.3, net=net)
        x = make_inputs()
        ideal, _ = net.run(x)
        hardware, _ = mapped.run(x)
        assert not np.array_equal(ideal, hardware)


class TestWeightProvider:
    def test_cached_until_reprogram(self):
        mapped = make_mapped()
        first = mapped.weight_list()
        assert mapped.weight_list() is first      # memoised list object
        mapped.reprogram()
        second = mapped.weight_list()
        assert second is not first
        assert any(not np.array_equal(a, b) for a, b in zip(first, second))
        # the hardware clone tracks the realization
        for layer, weights in zip(mapped.hardware_network.layers, second):
            assert np.array_equal(layer.weight, weights)

    def test_read_noise_rng_is_reproducible_by_seed(self):
        mapped = make_mapped(read_noise=0.05)
        a = mapped.weight_list(rng=7)
        b = mapped.weight_list(rng=7)
        c = mapped.weight_list(rng=8)
        base = mapped.weight_list()
        for wa, wb, wc, wd in zip(a, b, c, base):
            assert np.array_equal(wa, wb)          # same seed, same draw
            assert not np.array_equal(wa, wc)      # different seed
            assert not np.array_equal(wa, wd)      # differs from mapped
    # realization (frozen at map time)

    def test_noisy_run_restores_the_mapped_realization(self):
        mapped = make_mapped(read_noise=0.05)
        x = make_inputs(batch=2, steps=6)
        before, _ = mapped.run(x)
        mapped.run(x, read_noise_rng=5)
        after, _ = mapped.run(x)
        assert np.array_equal(before, after)

    def test_reprogram_with_new_targets(self):
        net = make_net()
        mapped = make_mapped(variation=0.0, net=net)
        halved = [layer.weight * 0.5 for layer in net.layers]
        mapped.reprogram(halved)
        for got, target in zip(mapped.weight_list(), halved):
            # quantization error only — no variation in this device
            assert np.max(np.abs(got - target)) <= np.max(np.abs(target))
        with pytest.raises(ShapeError):
            mapped.reprogram(halved[:1])

    def test_stale_stream_refuses_to_continue(self):
        mapped = make_mapped()
        x = make_inputs(batch=2, steps=6)
        _, state = mapped.run_stream(x)
        mapped.reprogram()
        with pytest.raises(StateError):
            mapped.run_stream(x, state)

    def test_read_noise_rng_only_at_open(self):
        mapped = make_mapped(read_noise=0.05)
        x = make_inputs(batch=2, steps=6)
        _, state = mapped.run_stream(x, read_noise_rng=7)
        with pytest.raises(ValueError):
            mapped.run_stream(x, state, read_noise_rng=8)

    def test_weight_override_validation(self):
        """The engine hook itself rejects malformed overrides."""
        net = make_net()
        x = make_inputs(batch=2, steps=6)
        with pytest.raises(ShapeError):
            net.run_stream(x, weights=[net.layers[0].weight])  # wrong count
        with pytest.raises(ShapeError):
            net.run_stream(x, weights=[w.T for w in net.weights])

    def test_override_with_own_weights_is_identity(self):
        """weights= with the network's own arrays must change nothing —
        the override substitutes values, not code paths."""
        net = make_net()
        x = make_inputs()
        plain, _ = net.run_stream(x)
        overridden, _ = net.run_stream(x, weights=list(net.weights))
        assert np.array_equal(plain, overridden)


class TestHardwareProfile:
    def test_roundtrip_and_build(self):
        profile = HardwareProfile.create(bits=5, variation=0.2,
                                         read_noise=0.01, seed=4)
        assert profile.bits == 5
        assert profile.device.levels == 32
        clone = HardwareProfile.from_dict(profile.to_dict())
        assert clone == profile
        mapped = profile.build(make_net())
        assert mapped.device == profile.device
        # same (profile, network) => same realization
        again = profile.build(mapped.software_network)
        for a, b in zip(mapped.weight_list(), again.weight_list()):
            assert np.array_equal(a, b)

    def test_levels_bits_mismatch_rejected(self):
        from repro.hardware import QuantizationConfig

        with pytest.raises(ConfigError):
            HardwareProfile(device=RRAMDeviceConfig(levels=16),
                            quantization=QuantizationConfig(bits=5))


class TestDeviceParameterizedSweep:
    def test_device_base_flows_through_sweep(self):
        """seed_correct(device=base) evaluates exactly the mapped network
        of base.replace(levels=2**bits, variation=v) at the same seed."""
        from repro.hardware.mapped_network import seed_correct
        from repro.common.rng import RandomState
        from repro.core.trainer import run_in_batches

        net = SpikingNetwork((24, 20, 12), rng=1)
        for layer in net.layers:
            layer.weight *= 5.0
        rng = np.random.default_rng(5)
        x = (rng.random((10, 6, 24)) < 0.15).astype(np.float64)
        labels = np.arange(10) % 12
        base = RRAMDeviceConfig(g_min=2e-6, g_max=5e-5,
                                stuck_at_rate=0.3)
        expected_device = base.replace(levels=2 ** 4, variation=0.2)
        mapped = HardwareMappedNetwork(net, expected_device,
                                       rng=RandomState(123))
        outputs = run_in_batches(mapped.hardware_network, x, 64)
        predictions = np.argmax(outputs.sum(axis=1), axis=1)
        expected = int(np.sum(predictions == labels))
        got = seed_correct(net, x, labels, bits=4, variation=0.2, seed=123,
                           device=base)
        assert got == expected

    def test_pooled_sweep_with_device_matches_serial(self):
        net = SpikingNetwork((24, 20, 12), rng=1)
        for layer in net.layers:
            layer.weight *= 5.0
        rng = np.random.default_rng(6)
        x = (rng.random((8, 6, 24)) < 0.15).astype(np.float64)
        labels = np.arange(8) % 12
        base = RRAMDeviceConfig(read_noise=0.0, stuck_at_rate=0.05)
        serial = accuracy_under_variation(net, x, labels, bits=4,
                                          variation=0.2, n_seeds=2, rng=11,
                                          device=base)
        pooled = accuracy_under_variation(net, x, labels, bits=4,
                                          variation=0.2, n_seeds=2, rng=11,
                                          device=base, workers=1)
        assert serial == pooled
