"""Unit tests for the neuron circuit (Fig. 6/7) and power/area estimation."""

import numpy as np
import pytest

from repro.hardware.mapped_network import (
    HardwareMappedNetwork,
    accuracy_under_variation,
)
from repro.hardware.devices import RRAMDeviceConfig
from repro.hardware.neuron_circuit import (
    NeuronCircuitConfig,
    build_neuron_circuit,
    simulate_neuron,
)
from repro.hardware.power import (
    PAPER_POWER_REPORT,
    AreaModelConfig,
    PowerModelConfig,
    estimate_area,
    estimate_power,
)
from repro.core.network import SpikingNetwork


@pytest.fixture(scope="module")
def burst_result():
    """One simulated burst (3 close spikes) plus two isolated spikes."""
    return simulate_neuron([50, 70, 90, 250, 450],
                           config=NeuronCircuitConfig(), duration_ns=700)


class TestCircuitConfig:
    def test_paper_time_constant(self):
        config = NeuronCircuitConfig()
        # R = 4.56k, C = 10.14p -> ~46 ns; ~4 steps of 10 ns (Table I tau).
        assert config.tau_seconds == pytest.approx(46.2e-9, rel=0.01)
        assert config.tau_steps == pytest.approx(4.6, rel=0.01)

    def test_validation(self):
        with pytest.raises(Exception):
            NeuronCircuitConfig(r_filter=-1.0)
        with pytest.raises(Exception):
            NeuronCircuitConfig(v_bias=5.0, spike_amplitude=2.5)


class TestNeuronCircuitBehaviour:
    def test_burst_fires_exactly_once(self, burst_result):
        assert burst_result.output_spike_count() == 1

    def test_psp_crosses_threshold_only_at_burst(self, burst_result):
        g = burst_result["g"]
        threshold = burst_result["threshold"]
        above = g > threshold
        time_ns = burst_result.time * 1e9
        # Crossing happens during the burst window (roughly 50-150 ns).
        assert np.any(above[(time_ns > 50) & (time_ns < 150)])
        # The isolated spikes at 250/450 ns must not cross (refractory or
        # single-spike PSP too small).
        assert not np.any(above[(time_ns > 240) & (time_ns < 320)])

    def test_threshold_rises_then_decays(self, burst_result):
        threshold = burst_result["threshold"]
        base = threshold[20]
        peak_index = int(np.argmax(threshold))
        assert threshold[peak_index] > base + 0.01
        assert threshold[-1] == pytest.approx(base, abs=0.02)

    def test_feedback_mirrors_comparator(self, burst_result):
        # h(t) is the low-passed comparator output: it must peak after
        # the comparator does and be smoother (smaller max slope).
        cmp_out = burst_result["comparator"]
        feedback = burst_result["feedback"]
        assert int(np.argmax(feedback)) >= int(np.argmax(cmp_out))
        assert np.max(np.abs(np.diff(feedback))) < np.max(np.abs(np.diff(cmp_out)))

    def test_output_spike_rail_to_rail(self, burst_result):
        spike = burst_result["spike"]
        config = burst_result.config
        assert spike.max() > 0.95 * config.v_dd
        assert spike.min() < 0.05 * config.v_dd

    def test_no_input_no_spike(self):
        result = simulate_neuron([50], config=NeuronCircuitConfig(),
                                 duration_ns=300)
        assert result.output_spike_count() == 0

    def test_requires_spikes(self):
        with pytest.raises(ValueError):
            simulate_neuron([])

    def test_netlist_component_count(self):
        circuit = build_neuron_circuit(NeuronCircuitConfig(), [10.0])
        names = {c.name for c in circuit.components}
        for expected in ("vin", "r_syn", "c_syn", "r_mem", "r_sense",
                         "cmp", "r_fb", "c_fb", "bias", "inv1", "inv2"):
            assert expected in names


class TestPowerEstimate:
    def test_paper_scenario_in_regime(self):
        """300 steps x 10 ns, 14 spikes: all quantities within 2.5x of the
        paper's Cadence numbers (same methodology, behavioral models)."""
        rng = np.random.default_rng(0)
        steps = np.sort(rng.choice(np.arange(5, 295), 14, replace=False))
        result = simulate_neuron([float(s) * 10 for s in steps],
                                 config=NeuronCircuitConfig(),
                                 duration_ns=3000, dt_ns=0.5)
        report = estimate_power(result)
        for measured, paper in [
            (report.min_power_w, PAPER_POWER_REPORT["min_power_w"]),
            (report.max_power_w, PAPER_POWER_REPORT["max_power_w"]),
            (report.avg_power_w, PAPER_POWER_REPORT["avg_power_w"]),
            (report.energy_j, PAPER_POWER_REPORT["energy_j"]),
        ]:
            assert paper / 2.5 < measured < paper * 2.5
        assert report.min_power_w < report.avg_power_w < report.max_power_w

    def test_energy_equals_power_integral(self, burst_result):
        report = estimate_power(burst_result)
        dt = burst_result.time[1] - burst_result.time[0]
        assert report.energy_j == pytest.approx(
            float(report.power_trace_w.sum() * dt))

    def test_static_floor(self, burst_result):
        model = PowerModelConfig()
        report = estimate_power(burst_result, model)
        assert report.min_power_w >= model.total_static_w

    def test_more_spikes_more_energy(self):
        few = simulate_neuron([100], duration_ns=1000)
        many = simulate_neuron([100, 200, 300, 400, 500, 600],
                               duration_ns=1000)
        assert estimate_power(many).energy_j > estimate_power(few).energy_j

    def test_table_rows_format(self, burst_result):
        rows = estimate_power(burst_result).table_rows()
        assert len(rows) == 4
        assert all(len(row) == 3 for row in rows)


class TestAreaEstimate:
    def test_total_near_paper(self):
        area = estimate_area()
        assert area["total_mm2"] == pytest.approx(
            PAPER_POWER_REPORT["area_mm2"], rel=0.3)

    def test_capacitors_dominate(self):
        area = estimate_area()
        cap_total = area["synapse_cap_um2"] + area["feedback_cap_um2"]
        assert cap_total > 0.5 * area["total_um2"]

    def test_scales_with_capacitance(self):
        small = estimate_area(NeuronCircuitConfig())
        big = estimate_area(NeuronCircuitConfig(c_filter=20e-12))
        assert big["total_mm2"] > small["total_mm2"]

    def test_custom_model(self):
        model = AreaModelConfig(mim_cap_density_f_per_um2=4e-15)
        dense = estimate_area(model=model)
        assert dense["total_mm2"] < estimate_area()["total_mm2"]


class TestMappedNetwork:
    def _toy_network(self):
        net = SpikingNetwork((6, 5, 3), rng=0)
        for layer in net.layers:
            layer.weight *= 8.0
        return net

    def test_zero_variation_high_precision_matches_software(self):
        net = self._toy_network()
        device = RRAMDeviceConfig(levels=2 ** 12, variation=0.0)
        mapped = HardwareMappedNetwork(net, device, rng=0)
        rng = np.random.default_rng(1)
        x = (rng.random((4, 15, 6)) < 0.4).astype(float)
        soft, _ = net.run(x)
        hard, _ = mapped.run(x)
        # 12-bit weights: spike trains should be virtually identical.
        assert np.mean(soft != hard) < 0.02

    def test_weight_errors_grow_with_variation(self):
        net = self._toy_network()
        errors = []
        for variation in (0.0, 0.2, 0.5):
            device = RRAMDeviceConfig(levels=2 ** 6, variation=variation)
            mapped = HardwareMappedNetwork(net, device, rng=3)
            errors.append(np.mean(mapped.weight_errors()))
        assert errors[0] < errors[1] < errors[2]

    def test_accuracy_under_variation_returns_mean_std(self):
        net = self._toy_network()
        rng = np.random.default_rng(2)
        x = (rng.random((12, 10, 6)) < 0.4).astype(float)
        labels = np.arange(12) % 3
        mean, std = accuracy_under_variation(net, x, labels, bits=4,
                                             variation=0.2, n_seeds=2, rng=4)
        assert 0.0 <= mean <= 1.0
        assert std >= 0.0

    def test_hardware_run_leaves_the_shared_clone_alone(self, monkeypatch):
        """A read-noise run reaches the engine as a weight override: the
        shared clone holds the mapped realization throughout the forward
        (any reader of it meanwhile sees weights a device holds)."""
        import repro.core.network as network_module

        net = self._toy_network()
        device = RRAMDeviceConfig(levels=16, variation=0.1, read_noise=0.05)
        mapped = HardwareMappedNetwork(net, device, rng=0)
        mapped_weights = [w.copy() for w in mapped.weight_list()]
        seen = []
        fused_run = network_module.fused_run

        def observing_run(*args, **kwargs):
            seen.append([w.copy() for w in mapped.hardware_network.weights])
            return fused_run(*args, **kwargs)

        monkeypatch.setattr(network_module, "fused_run", observing_run)
        x = (np.random.default_rng(1).random((3, 12, 6)) < 0.4).astype(float)
        noisy, _ = mapped.run(x, read_noise_rng=7)
        assert len(seen) == 1
        for installed, expected in zip(seen[0], mapped_weights):
            np.testing.assert_array_equal(installed, expected)
        for installed, expected in zip(mapped.hardware_network.weights,
                                       mapped_weights):
            np.testing.assert_array_equal(installed, expected)
        override, _ = net.run(x, weights=mapped.weight_list(7))
        np.testing.assert_array_equal(noisy, override)
