"""Unit tests for RRAM devices, quantization and the crossbar."""

import numpy as np
import pytest

from repro.common.errors import ConfigError, ShapeError
from repro.hardware.crossbar import DifferentialCrossbar
from repro.hardware.devices import RRAMCellArray, RRAMDeviceConfig
from repro.hardware.mapped_network import HardwareProfile
from repro.hardware.quantization import weights_to_conductances


def _realized(weights, bits):
    """A noise-free crossbar's effective weights: the quantization grid."""
    crossbar = DifferentialCrossbar(np.atleast_2d(weights),
                                    RRAMDeviceConfig(levels=2 ** bits))
    return np.asarray(crossbar.effective_weights())


class TestDeviceConfig:
    def test_defaults(self):
        config = RRAMDeviceConfig()
        assert config.g_max > config.g_min
        assert len(config.level_conductances) == config.levels

    def test_validation(self):
        with pytest.raises(Exception):
            RRAMDeviceConfig(g_min=0.0)
        with pytest.raises(Exception):
            RRAMDeviceConfig(g_min=1e-4, g_max=1e-6)
        with pytest.raises(Exception):
            RRAMDeviceConfig(levels=1)
        with pytest.raises(Exception):
            RRAMDeviceConfig(variation=-0.1)


class TestRRAMCellArray:
    def test_program_and_read_ideal(self):
        config = RRAMDeviceConfig(levels=16, variation=0.0)
        array = RRAMCellArray((3, 4), config, rng=0)
        targets = np.full((3, 4), 5e-5)
        achieved = array.program(targets)
        np.testing.assert_allclose(array.read(), achieved)
        # Quantized to the nearest of 16 levels.
        ladder = config.level_conductances
        for value in achieved.ravel():
            assert np.min(np.abs(ladder - value)) < 1e-12

    def test_quantize_targets_snaps(self):
        config = RRAMDeviceConfig(levels=2)      # only g_min and g_max
        array = RRAMCellArray((1, 1), config, rng=0)
        low = array.quantize_targets(np.array([[config.g_min * 1.2]]))
        high = array.quantize_targets(np.array([[config.g_max * 0.9]]))
        assert low[0, 0] == config.g_min
        assert high[0, 0] == config.g_max

    def test_variation_perturbs(self):
        config = RRAMDeviceConfig(variation=0.3)
        array = RRAMCellArray((10, 10), config, rng=1)
        targets = np.full((10, 10), 5e-5)
        achieved = array.program(targets)
        assert np.std(achieved) > 0
        assert np.all(achieved >= config.g_min)
        assert np.all(achieved <= config.g_max)

    def test_variation_grows_with_sigma(self):
        errors = []
        for sigma in (0.1, 0.3, 0.5):
            config = RRAMDeviceConfig(variation=sigma)
            array = RRAMCellArray((30, 30), config, rng=2)
            array.program(np.full((30, 30), 5e-5))
            errors.append(array.programming_error().mean())
        assert errors[0] < errors[1] < errors[2]

    def test_read_noise(self):
        config = RRAMDeviceConfig(read_noise=0.05)
        array = RRAMCellArray((5, 5), config, rng=3)
        array.program(np.full((5, 5), 5e-5))
        a = array.read()
        b = array.read()
        assert not np.array_equal(a, b)

    def test_read_before_program_raises(self):
        array = RRAMCellArray((2, 2))
        with pytest.raises(ValueError):
            array.read()

    def test_shape_mismatch(self):
        array = RRAMCellArray((2, 2))
        with pytest.raises(ValueError):
            array.program(np.zeros((3, 3)))


class TestQuantizeWeights:
    """The grid a differential pair realises: one device of the pair at
    ``g_min``, so ``2 * levels - 1`` signed values ``scale / (levels - 1)``
    apart."""

    def test_levels_count(self):
        rng = np.random.default_rng(0)
        weights = rng.normal(size=(50,))
        quantized = _realized(weights, bits=2)     # 4 levels per device
        assert len(np.unique(quantized)) <= 2 * 4 - 1

    def test_error_bounded_by_half_step(self):
        rng = np.random.default_rng(1)
        weights = rng.normal(size=(200,))
        quantized = _realized(weights, bits=4)
        step = np.abs(weights).max() / (16 - 1)
        assert np.max(np.abs(quantized - weights)) <= step / 2 + 1e-12

    def test_more_bits_less_error(self):
        rng = np.random.default_rng(2)
        weights = rng.normal(size=(500,))
        err4 = np.abs(_realized(weights, bits=4) - weights).mean()
        err5 = np.abs(_realized(weights, bits=5) - weights).mean()
        assert err5 < err4

    def test_zero_weights(self):
        np.testing.assert_array_equal(_realized(np.zeros(5), bits=4), 0.0)

    def test_bits_validation(self):
        for bits in (0, 17):
            with pytest.raises(ConfigError):
                HardwareProfile.create(bits=bits)


class TestConductanceMapping:
    def test_roundtrip_without_quantization(self):
        """A noise-free 16-bit crossbar reads the weights back to within
        half a step of its ladder."""
        rng = np.random.default_rng(3)
        weights = rng.normal(size=(6, 8))
        recovered = _realized(weights, bits=16)
        step = np.abs(weights).max() / (2 ** 16 - 1)
        np.testing.assert_allclose(recovered, weights, atol=step / 2 + 1e-12)

    def test_one_device_at_minimum_per_weight(self):
        weights = np.array([[0.5, -0.5]])
        device = RRAMDeviceConfig()
        g_plus, g_minus, _ = weights_to_conductances(weights, device)
        assert g_minus[0, 0] == device.g_min     # positive weight
        assert g_plus[0, 1] == device.g_min      # negative weight

    def test_conductances_in_window(self):
        rng = np.random.default_rng(4)
        weights = rng.normal(size=(20, 20)) * 3
        device = RRAMDeviceConfig()
        g_plus, g_minus, _ = weights_to_conductances(weights, device)
        for g in (g_plus, g_minus):
            assert g.min() >= device.g_min - 1e-18
            assert g.max() <= device.g_max + 1e-18


class TestHardwareProfile:
    """A profile is the device ladder plus a seed: its bit width is read
    off ``device.levels``, never stored a second time."""

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_bits_derive_from_device_levels(self, bits):
        profile = HardwareProfile.create(bits=bits)
        assert profile.bits == bits
        assert profile.device.levels == 2 ** bits

    @pytest.mark.parametrize("levels", [3, 12, 24, 2 ** 17])
    def test_levels_not_a_power_of_two_rejected(self, levels):
        with pytest.raises(ConfigError, match="2\\*\\*bits"):
            HardwareProfile(device=RRAMDeviceConfig(levels=levels))

    def test_to_dict_carries_device_and_seed_only(self):
        data = HardwareProfile.create(bits=5, variation=0.2, seed=3).to_dict()
        assert set(data) - {"__config__"} == {"device", "seed"}
        assert data["device"]["levels"] == 32

    def test_legacy_quantization_key_rejected(self):
        data = HardwareProfile.create(bits=4).to_dict()
        data["quantization"] = {"bits": 4, "symmetric": True}
        with pytest.raises(ConfigError, match="quantization"):
            HardwareProfile.from_dict(data)


class TestDifferentialCrossbar:
    def test_ideal_crossbar_matches_matmul(self):
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(4, 6))
        xbar = DifferentialCrossbar(
            weights, RRAMDeviceConfig(levels=2 ** 12, variation=0.0), rng=0)
        x = rng.random((3, 6))
        np.testing.assert_allclose(xbar.matvec(x), x @ weights.T, rtol=1e-3)

    def test_bitline_currents_scale_with_vread(self):
        weights = np.ones((2, 2))
        a = DifferentialCrossbar(weights, v_read=0.1, rng=0)
        b = DifferentialCrossbar(weights, v_read=0.2, rng=0)
        x = np.ones(2)
        np.testing.assert_allclose(2 * a.bitline_currents(x),
                                   b.bitline_currents(x))

    def test_output_voltage_is_current_times_rsense(self):
        weights = np.ones((2, 3))
        xbar = DifferentialCrossbar(weights, rng=0, r_sense=1e4)
        x = np.ones(3)
        np.testing.assert_allclose(xbar.output_voltages(x),
                                   xbar.bitline_currents(x) * 1e4)

    def test_quantization_limits_effective_weights(self):
        rng = np.random.default_rng(6)
        weights = rng.normal(size=(8, 8))
        xbar = DifferentialCrossbar(
            weights, RRAMDeviceConfig(levels=4, variation=0.0), rng=0)
        effective = xbar.effective_weights()
        # Coarse quantization: few distinct magnitudes.
        assert len(np.unique(np.round(effective, 9))) <= 8
        assert np.max(np.abs(effective - weights)) > 0

    def test_variation_changes_draws(self):
        weights = np.ones((4, 4)) * 0.5
        device = RRAMDeviceConfig(variation=0.3)
        a = DifferentialCrossbar(weights, device, rng=1)
        b = DifferentialCrossbar(weights, device, rng=2)
        assert not np.array_equal(a.effective_weights(),
                                  b.effective_weights())

    def test_input_width_checked(self):
        xbar = DifferentialCrossbar(np.ones((2, 3)), rng=0)
        with pytest.raises(ShapeError):
            xbar.bitline_currents(np.ones(4))

    def test_weights_must_be_2d(self):
        with pytest.raises(ShapeError):
            DifferentialCrossbar(np.ones(3), rng=0)


class TestStuckAtFaults:
    def test_zero_rate_is_clean(self):
        config = RRAMDeviceConfig(stuck_at_rate=0.0)
        array = RRAMCellArray((20, 20), config, rng=0)
        achieved = array.program(np.full((20, 20), 5e-5))
        ladder = config.level_conductances
        for value in achieved.ravel():
            assert np.min(np.abs(ladder - value)) < 1e-12

    def test_faulty_devices_pinned_to_rails(self):
        config = RRAMDeviceConfig(stuck_at_rate=0.3)
        array = RRAMCellArray((50, 50), config, rng=1)
        achieved = array.program(np.full((50, 50), 5e-5))
        at_rails = np.isclose(achieved, config.g_min) | \
            np.isclose(achieved, config.g_max)
        fraction = at_rails.mean()
        # ~30% of devices are stuck (binomial tolerance).
        assert 0.15 < fraction < 0.45

    def test_rate_validated(self):
        import pytest as _pytest
        with _pytest.raises(Exception):
            RRAMDeviceConfig(stuck_at_rate=1.5)

    def test_faults_hurt_accuracy_monotonically(self):
        """More stuck devices -> larger mean weight error."""
        rng = np.random.default_rng(2)
        weights = rng.normal(size=(16, 16))
        errors = []
        for rate in (0.0, 0.1, 0.4):
            config = RRAMDeviceConfig(levels=64, stuck_at_rate=rate)
            xbar = DifferentialCrossbar(weights, config, rng=3)
            errors.append(
                float(np.mean(np.abs(xbar.effective_weights() - weights))))
        assert errors[0] < errors[1] < errors[2]


class TestEffectiveWeightCache:
    """effective_weights() is memoised against the programming generation."""

    def test_repeated_reads_return_cached_array(self):
        rng = np.random.default_rng(7)
        weights = rng.normal(size=(6, 6))
        xbar = DifferentialCrossbar(
            weights, RRAMDeviceConfig(levels=16, variation=0.1), rng=0)
        first = xbar.effective_weights()
        assert xbar.effective_weights() is first  # no recompute

    def test_reprogram_invalidates_cache(self):
        rng = np.random.default_rng(8)
        weights = rng.normal(size=(6, 6))
        device = RRAMDeviceConfig(levels=16, variation=0.2)
        xbar = DifferentialCrossbar(weights, device, rng=0)
        before = xbar.effective_weights().copy()
        xbar.program()  # fresh variation draw, same target weights
        after = xbar.effective_weights()
        assert not np.array_equal(before, after)

    def test_reprogram_with_new_weights(self):
        xbar = DifferentialCrossbar(np.ones((3, 4)) * 0.5, rng=0)
        xbar.program(np.ones((3, 4)) * -0.5)
        assert np.all(xbar.effective_weights() < 0)
        with pytest.raises(ShapeError):
            xbar.program(np.ones((4, 3)))

    def test_read_noise_disables_cache(self):
        weights = np.ones((5, 5)) * 0.3
        device = RRAMDeviceConfig(read_noise=0.05)
        xbar = DifferentialCrossbar(weights, device, rng=1)
        a = xbar.effective_weights()
        b = xbar.effective_weights()
        assert not np.array_equal(a, b)  # every read draws fresh noise

    def test_cache_matches_uncached_value(self):
        rng = np.random.default_rng(9)
        weights = rng.normal(size=(6, 6))
        device = RRAMDeviceConfig(levels=16, variation=0.1)
        cached = DifferentialCrossbar(weights, device, rng=5)
        window = device.g_max - device.g_min
        expected = (cached.array_plus.read() - cached.array_minus.read()
                    ) * cached.weight_scale / window
        np.testing.assert_array_equal(cached.effective_weights(), expected)

    def test_array_version_counts_programs(self):
        array = RRAMCellArray((2, 2), RRAMDeviceConfig(), rng=0)
        assert array.version == 0
        array.program(np.full((2, 2), 5e-5))
        array.program(np.full((2, 2), 6e-5))
        assert array.version == 2
