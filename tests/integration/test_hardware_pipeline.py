"""Integration: trained model -> RRAM crossbar mapping -> accuracy under
quantization/variation (the Fig. 8 pipeline), plus algorithm-circuit
correspondence (the codesign claim itself)."""

import numpy as np
import pytest

from repro.core import (
    CrossEntropyRateLoss,
    NeuronParameters,
    SpikingLinear,
    SpikingNetwork,
    Trainer,
    TrainerConfig,
)
from repro.core.calibration import calibrate_firing
from repro.data import SyntheticSHDConfig, generate_shd
from repro.hardware import (
    HardwareMappedNetwork,
    NeuronCircuitConfig,
    RRAMDeviceConfig,
    accuracy_under_variation,
    simulate_neuron,
)


@pytest.fixture(scope="module")
def trained_classifier():
    dataset = generate_shd(
        SyntheticSHDConfig(n_per_class=6, steps=60), rng=0)
    train, test = dataset.split(0.75, rng=1)
    network = SpikingNetwork((700, 48, 20), rng=2)
    calibrate_firing(network, train.inputs[:24], target_rate=0.08)
    trainer = Trainer(network, CrossEntropyRateLoss(), TrainerConfig(
        epochs=8, batch_size=24, learning_rate=2e-3), rng=3)
    trainer.fit(train.inputs, train.targets)
    float_acc = trainer.evaluate(test.inputs, test.targets)["accuracy"]
    return network, test, float_acc


class TestFig8Pipeline:
    def test_high_precision_no_variation_preserves_accuracy(
            self, trained_classifier):
        network, test, float_acc = trained_classifier
        mean, _ = accuracy_under_variation(
            network, test.inputs, test.targets, bits=10, variation=0.0,
            n_seeds=1, rng=0)
        assert mean == pytest.approx(float_acc, abs=0.05)

    def test_four_bits_close_to_float(self, trained_classifier):
        network, test, float_acc = trained_classifier
        mean, _ = accuracy_under_variation(
            network, test.inputs, test.targets, bits=4, variation=0.0,
            n_seeds=2, rng=1)
        # Paper Fig. 8: 4-bit costs well under 1 pt at zero deviation; our
        # reduced model allows a few points of slack.
        assert mean > float_acc - 0.15

    def test_extreme_variation_hurts_more_than_none(self, trained_classifier):
        network, test, _ = trained_classifier
        clean, _ = accuracy_under_variation(
            network, test.inputs, test.targets, bits=4, variation=0.0,
            n_seeds=3, rng=2)
        noisy, _ = accuracy_under_variation(
            network, test.inputs, test.targets, bits=4, variation=0.8,
            n_seeds=3, rng=2)
        assert noisy <= clean + 0.02

    def test_mapped_network_weight_errors_reported(self, trained_classifier):
        network, _, _ = trained_classifier
        mapped = HardwareMappedNetwork(
            network, RRAMDeviceConfig(levels=16, variation=0.2), rng=0)
        errors = mapped.weight_errors()
        assert len(errors) == len(network.layers)
        assert all(e > 0 for e in errors)


class TestAlgorithmCircuitCorrespondence:
    """The codesign claim: the analog circuit implements the discrete
    model.  A software adaptive neuron with parameters matched to the
    circuit (same tau in steps, same per-spike PSP increment, same bias)
    must agree with the transistor-level simulation on which input
    patterns elicit an output spike."""

    def _matched_software_spikes(self, spike_steps, total_steps,
                                 config: NeuronCircuitConfig) -> int:
        # Per-spike k jump after the RC filter and resistive divider.
        width_tau = config.step_ns * 1e-9 / config.tau_seconds
        k_jump = config.spike_amplitude * (1.0 - np.exp(-width_tau))
        divider = config.r_sense / (config.r_sense + config.r_memristor)
        psp_per_spike = k_jump * divider
        # The feedback h jump is the comparator pulse filtered by the same
        # RC; measured from the circuit's single-spike response (~0.06 V).
        params = NeuronParameters(
            tau=config.tau_steps, tau_r=config.tau_steps,
            v_th=config.v_bias, theta=0.06,
        )
        # One synapse of weight psp_per_spike into one neuron, on the
        # engine: k[t] = alpha*k[t-1] + spike[t], g = psp_per_spike * k.
        layer = SpikingLinear(1, 1, params=params,
                              weight=np.array([[psp_per_spike]]))
        inputs = np.zeros((1, total_steps, 1))
        inputs[0, sorted(spike_steps), 0] = 1.0
        outputs, _ = SpikingNetwork.from_layers([layer]).run(inputs)
        return int(outputs.sum())

    @pytest.mark.parametrize("spike_steps,label", [
        ((5, 7, 9), "burst-of-3"),
        ((5,), "single"),
        ((5, 25), "two-far-apart"),
        ((5, 7, 9, 11), "burst-of-4"),
    ])
    def test_spike_decisions_agree(self, spike_steps, label):
        config = NeuronCircuitConfig()
        times_ns = [s * config.step_ns for s in spike_steps]
        circuit = simulate_neuron(times_ns, config=config,
                                  duration_ns=max(times_ns) + 400)
        circuit_spikes = circuit.output_spike_count()
        software_spikes = self._matched_software_spikes(
            set(spike_steps), int(max(spike_steps)) + 40, config)
        assert (circuit_spikes > 0) == (software_spikes > 0), (
            f"{label}: circuit={circuit_spikes}, software={software_spikes}"
        )
