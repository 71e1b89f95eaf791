"""Experiment runners — one per table/figure of the paper.

Each runner regenerates the data behind one artifact of the paper's
evaluation (Section V) and returns an :class:`ExperimentResult` holding
the measured rows/series, a rendered text report (paper value next to
measured value), and the raw arrays for further analysis.  The benchmark
suite calls these runners and asserts the *shape* of each result; the CLI
(``python -m repro.experiments``) prints the reports.

Scale profiles: ``profile="ci"`` (default) uses reduced datasets/widths
that run in seconds-to-minutes on a laptop CPU; ``profile="full"``
approaches the paper's scale.  ``resolve_profile`` reads the
``REPRO_PROFILE`` environment variable so the whole bench suite can be
switched without touching code.
"""

from __future__ import annotations

import dataclasses
import os
from contextlib import nullcontext

import numpy as np

from ..analysis import raster_summary, trace_correlation
from ..common.asciiplot import line_plot, raster_plot
from ..common.rng import RandomState
from ..common.tables import Table
from ..core import (
    CrossEntropyRateLoss,
    ErfcSurrogate,
    NeuronParameters,
    SpikingLinear,
    SpikingNetwork,
    Trainer,
    TrainerConfig,
    VanRossumLoss,
    get_surrogate,
)
from ..core.calibration import calibrate_firing
from ..core.filters import exp_scan
from ..core.model_zoo import association_net, nmnist_mlp, shd_mlp
from ..data import (
    AssociationConfig,
    SyntheticNMNISTConfig,
    SyntheticSHDConfig,
    generate_association,
    generate_nmnist,
    generate_shd,
)
from ..hardware import (
    PAPER_POWER_REPORT,
    HardwareProfile,
    NeuronCircuitConfig,
    accuracy_under_variation,
    estimate_area,
    estimate_power,
    simulate_neuron,
)
from ..runtime import WorkerPool, parallel_map, resolve_workers
from .paperconfig import PAPER_CONFIG, table1

__all__ = [
    "ExperimentResult",
    "resolve_profile",
    "run_table1",
    "run_table2_nmnist",
    "run_table2_shd",
    "run_fig1",
    "run_fig4",
    "run_fig5",
    "run_fig7",
    "run_fig8",
    "run_fig8_aware",
    "run_power_area",
    "run_ablation_surrogate",
    "run_ablation_gradient",
]


@dataclasses.dataclass
class ExperimentResult:
    """Outcome of one experiment runner.

    Attributes
    ----------
    name:
        Experiment id (``table2-shd``, ``fig7``, ...).
    summary:
        Scalar observables (used by bench assertions).
    text:
        Human-readable report with paper-vs-measured rows.
    data:
        Raw arrays / series for plotting or further analysis.
    """

    name: str
    summary: dict
    text: str
    data: dict = dataclasses.field(default_factory=dict)

    def render(self) -> str:
        return self.text


def resolve_profile(profile: str | None = None) -> str:
    """``profile`` argument > ``REPRO_PROFILE`` env var > ``"ci"``."""
    if profile is not None:
        if profile not in ("ci", "full"):
            raise ValueError(f"profile must be 'ci' or 'full', got {profile!r}")
        return profile
    env = os.environ.get("REPRO_PROFILE", "ci").lower()
    return "full" if env == "full" else "ci"


# ---------------------------------------------------------------------------
# Shared training helper (with a per-process cache so fig8 can reuse the
# table2 N-MNIST model instead of retraining).
# ---------------------------------------------------------------------------
_CACHE: dict = {}


def _train_classifier(key: str, dataset, network: SpikingNetwork,
                      epochs: int, learning_rate: float,
                      rng_seed: int = 3):
    """Train (or fetch from cache) a classifier on ``dataset``."""
    if key in _CACHE:
        return _CACHE[key]
    train, test = dataset.split(0.8, rng=1)
    calibrate_firing(network, train.inputs[:48], target_rate=0.08)
    config = TrainerConfig(
        epochs=epochs, batch_size=PAPER_CONFIG.batch_size,
        learning_rate=learning_rate, optimizer=PAPER_CONFIG.optimizer,
    )
    trainer = Trainer(network, CrossEntropyRateLoss(), config, rng=rng_seed)
    history = trainer.fit(train.inputs, train.targets,
                          test.inputs, test.targets)
    bundle = {
        "trainer": trainer, "network": network, "history": history,
        "train": train, "test": test,
    }
    _CACHE[key] = bundle
    return bundle


def _classification_report(name: str, title: str, bundle,
                           literature_rows: list[tuple[str, float]],
                           paper_acc: float, paper_hr_acc: float
                           ) -> ExperimentResult:
    """Evaluate the adaptive model and both hard-reset swaps; render."""
    trainer = bundle["trainer"]
    network = bundle["network"]
    test = bundle["test"]
    acc = bundle["history"][-1].test_metrics["accuracy"]
    acc_hr = trainer.evaluate(
        test.inputs, test.targets,
        network=network.with_neuron_kind("hard_reset"))["accuracy"]
    acc_euler = trainer.evaluate(
        test.inputs, test.targets,
        network=network.with_neuron_kind("hard_reset_euler"))["accuracy"]
    chance = 1.0 / test.n_classes

    table = Table(["Model", "Paper %", "Measured %"], title=title)
    table.add_row(["This work (adaptive threshold)",
                   f"{paper_acc:.2f}", f"{100 * acc:.2f}"])
    table.add_row(["This work (HR, impulse discretization)",
                   f"{paper_hr_acc:.2f}", f"{100 * acc_hr:.2f}"])
    table.add_row(["This work (HR, forward-Euler discretization)",
                   f"{paper_hr_acc:.2f}", f"{100 * acc_euler:.2f}"])
    table.add_separator()
    for label, value in literature_rows:
        table.add_row([label + " (literature, not rerun)",
                       f"{value:.2f}", "-"])
    notes = (
        "\nNotes: trained on the synthetic offline substitute dataset at "
        f"profile scale; chance = {100 * chance:.1f} %.\n"
        "The paper defines HR by ODE eq. (1); its discrete reading is "
        "ambiguous, so both variants are reported: 'impulse' preserves "
        "charge (isolates pure reset damage), 'forward-Euler' has unit DC "
        "gain (severely under-drives a network trained with SRM filters). "
        "The paper's HR number falls between the two."
    )
    summary = {
        "accuracy": acc, "accuracy_hr": acc_hr,
        "accuracy_hr_euler": acc_euler, "chance": chance,
        "drop_hr": acc - acc_hr, "drop_euler": acc - acc_euler,
    }
    return ExperimentResult(name=name, summary=summary,
                            text=table.render() + notes)


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------
def run_table1(profile: str | None = None) -> ExperimentResult:
    """Render Table I (hyper-parameters) from the frozen paper config."""
    table = table1()
    return ExperimentResult(
        name="table1",
        summary={"tau": PAPER_CONFIG.tau, "tau_r": PAPER_CONFIG.tau_r,
                 "batch_size": PAPER_CONFIG.batch_size,
                 "sigma": PAPER_CONFIG.sigma},
        text=table.render(),
    )


# ---------------------------------------------------------------------------
# Table II
# ---------------------------------------------------------------------------
def run_table2_nmnist(profile: str | None = None) -> ExperimentResult:
    """Table II, N-MNIST column: adaptive vs hard-reset accuracy."""
    profile = resolve_profile(profile)
    if profile == "full":
        data_cfg = SyntheticNMNISTConfig(n_per_class=300, steps=99)
        network = nmnist_mlp(profile="paper", rng=2)
        epochs, lr = 30, PAPER_CONFIG.lr_classification
    else:
        data_cfg = SyntheticNMNISTConfig(n_per_class=40, steps=50)
        network = nmnist_mlp(profile="reduced", rng=2)
        epochs, lr = 10, 1e-3
    dataset = generate_nmnist(data_cfg, rng=0)
    bundle = _train_classifier(f"nmnist-{profile}", dataset, network,
                               epochs, lr)
    literature = [("Spiking MLP [7]", 98.66), ("Phased LSTM [12]", 97.28),
                  ("Spiking CNN [11]", 95.72), ("Graph CNN [1]", 98.5),
                  ("Spiking CNN [15]", 98.32)]
    return _classification_report(
        "table2-nmnist", "Table II (N-MNIST)", bundle, literature,
        paper_acc=98.40, paper_hr_acc=95.31,
    )


def run_table2_shd(profile: str | None = None) -> ExperimentResult:
    """Table II, SHD column: adaptive vs hard-reset accuracy."""
    profile = resolve_profile(profile)
    if profile == "full":
        data_cfg = SyntheticSHDConfig(n_per_class=200, steps=150)
        network = shd_mlp(profile="paper", rng=2)
        epochs, lr = 40, PAPER_CONFIG.lr_classification
    else:
        data_cfg = SyntheticSHDConfig(n_per_class=30, steps=100)
        network = shd_mlp(profile="reduced", rng=2)
        epochs, lr = 20, PAPER_CONFIG.lr_association
    dataset = generate_shd(data_cfg, rng=0)
    bundle = _train_classifier(f"shd-{profile}", dataset, network,
                               epochs, lr)
    literature = [("Spiking MLP [3]", 47.5), ("R-SNN [3]", 83.2),
                  ("LSTM [3]", 89.0), ("R-SNN [20]", 82.0),
                  ("SRNN [18]", 84.4)]
    return _classification_report(
        "table2-shd", "Table II (SHD)", bundle, literature,
        paper_acc=85.69, paper_hr_acc=26.36,
    )


# ---------------------------------------------------------------------------
# Fig. 1 — synapse and adaptive threshold dynamics
# ---------------------------------------------------------------------------
def run_fig1(profile: str | None = None) -> ExperimentResult:
    """Regenerate the Fig. 1 traces: two synapse PSPs, their weighted sum,
    and the adaptive threshold reacting to output spikes.

    One 2 -> 1 adaptive layer runs on the engine.  The PSPs are the
    weighted synapse traces ``w_i * k_i`` of the run's record, and the
    threshold is the eq. 12 reading ``Vth + theta*h`` with ``h`` the
    reset filter (eq. 8) of the run's output spikes, shifted by a step.
    """
    params = NeuronParameters(tau=PAPER_CONFIG.tau, tau_r=PAPER_CONFIG.tau_r)
    steps = 80
    inputs = np.zeros((1, steps, 2))
    inputs[0, [5, 9, 13, 30, 55], 0] = 1.0
    inputs[0, [7, 11, 15, 33, 58], 1] = 1.0
    weights = np.array([[0.9, 0.7]])
    layer = SpikingLinear(2, 1, params=params, weight=weights)
    _, record = SpikingNetwork.from_layers([layer]).run(inputs, record=True)

    k = record.layers[0].k[0]                      # (T, 2)
    psp_1 = weights[0, 0] * k[:, 0]
    psp_2 = weights[0, 1] * k[:, 1]
    summed = psp_1 + psp_2
    outputs = record.outputs[0, :, 0]
    # h[t] = beta*h[t-1] + O[t-1]: the reset filter of the shifted output.
    previous = np.zeros((1, steps, 1))
    previous[0, 1:, 0] = outputs[:-1]
    h = exp_scan(previous, layer.neuron.beta_r)[0, :, 0]
    threshold = params.v_th + params.theta * h

    plot = line_plot(
        {"sum PSP": summed, "threshold": threshold,
         "out spikes": outputs * summed.max()},
        height=12, width=76,
        title="Fig. 1: PSP summation vs adaptive threshold",
    )
    spike_steps = np.flatnonzero(outputs).tolist()
    jumps = [threshold[t + 1] - threshold[t]
             for t in spike_steps if t + 1 < steps]
    summary = {
        "output_spikes": int(outputs.sum()),
        "threshold_base": float(threshold.min()),
        "threshold_peak": float(threshold.max()),
        "mean_jump_after_spike": float(np.mean(jumps)) if jumps else 0.0,
    }
    return ExperimentResult(
        name="fig1", summary=summary, text=plot,
        data={"psp_1": psp_1, "psp_2": psp_2, "sum": summed,
              "threshold": threshold, "outputs": outputs},
    )


# ---------------------------------------------------------------------------
# Fig. 4 — dataset samples
# ---------------------------------------------------------------------------
def run_fig4(profile: str | None = None) -> ExperimentResult:
    """Regenerate Fig. 4: one raster sample from each dataset + statistics."""
    nmnist = generate_nmnist(
        SyntheticNMNISTConfig(n_per_class=1, steps=60), rng=0)
    shd = generate_shd(SyntheticSHDConfig(n_per_class=1, steps=100), rng=0)
    nm_x, nm_y = nmnist[0]
    shd_idx = 3
    shd_x, shd_y = shd[shd_idx]

    nm_summary = raster_summary(nm_x)
    shd_summary = raster_summary(shd_x)
    text = "\n".join([
        raster_plot(nm_x.T, height=16, width=72,
                    title=f"Fig. 4(a) synthetic N-MNIST sample "
                          f"(digit {nm_y})"),
        f"  stats: {nm_summary}",
        "",
        raster_plot(shd_x.T, height=16, width=72,
                    title=f"Fig. 4(b) synthetic SHD sample "
                          f"(class {shd.class_names[int(shd_y)]})"),
        f"  stats: {shd_summary}",
    ])
    summary = {
        "nmnist_total_spikes": nm_summary["total_spikes"],
        "nmnist_mean_rate": nm_summary["mean_rate"],
        "shd_total_spikes": shd_summary["total_spikes"],
        "shd_mean_rate": shd_summary["mean_rate"],
    }
    return ExperimentResult(name="fig4", summary=summary, text=text,
                            data={"nmnist": nm_x, "shd": shd_x})


# ---------------------------------------------------------------------------
# Fig. 5 — pattern association
# ---------------------------------------------------------------------------
def run_fig5(profile: str | None = None) -> ExperimentResult:
    """The Section V-B association task: train the network to draw the
    handwritten digit matching a spoken digit."""
    profile = resolve_profile(profile)
    if profile == "full":
        data_cfg = AssociationConfig(n_samples=1000, steps=300,
                                     target_trains=300, glyph_size=280)
        epochs = 60
        hidden_profile = "paper"
    else:
        data_cfg = AssociationConfig(n_samples=120, steps=100,
                                     target_trains=96, glyph_size=64)
        epochs = 40
        hidden_profile = "reduced"
    dataset = generate_association(data_cfg, rng=0)

    network = SpikingNetwork(
        (data_cfg.input_channels, *(
            (500, 500) if hidden_profile == "paper" else (128, 128)
        ), data_cfg.target_trains),
        params=NeuronParameters(), neuron_kind="adaptive",
        surrogate=ErfcSurrogate(), rng=2,
    )
    calibrate_firing(network, dataset.inputs[:32], target_rate=0.08)
    loss = VanRossumLoss(tau_m=PAPER_CONFIG.tau_m, tau_s=PAPER_CONFIG.tau_s)

    untrained_outputs, _ = network.run(dataset.inputs[:32])
    distance_before = loss.distance(untrained_outputs, dataset.targets[:32])

    # The paper's lr (1e-3) is tuned for 1000 samples x 300 steps; the
    # reduced CI task needs a slightly larger step to converge in its
    # shorter budget.
    learning_rate = (PAPER_CONFIG.lr_association if profile == "full"
                     else 3e-3)
    trainer = Trainer(network, loss, TrainerConfig(
        epochs=epochs, batch_size=PAPER_CONFIG.batch_size,
        learning_rate=learning_rate,
        optimizer=PAPER_CONFIG.optimizer,
    ), rng=3)
    trainer.fit(dataset.inputs, dataset.targets)

    outputs, _ = network.run(dataset.inputs[:32])
    distance_after = loss.distance(outputs, dataset.targets[:32])

    # Identity check: does each output match its own target better than the
    # mean over other samples' targets?
    own = np.array([
        trace_correlation(outputs[i], dataset.targets[i])
        for i in range(16)
    ])
    cross = np.array([
        trace_correlation(outputs[i], dataset.targets[(i + 7) % 32])
        for i in range(16)
    ])

    sample = 0
    digit = dataset.metadata["digit_labels"][sample]
    text = "\n".join([
        f"Fig. 5: pattern association (sample digit {digit})",
        raster_plot(dataset.inputs[sample].T, height=12, width=72,
                    title="input (spoken digit, cochlea channels)"),
        raster_plot(dataset.targets[sample].T, height=12, width=72,
                    title="target (handwritten digit raster)"),
        raster_plot(outputs[sample].T, height=12, width=72,
                    title="network output after training"),
        f"van Rossum distance (32 samples): before={distance_before:.2f} "
        f"after={distance_after:.2f}",
        f"trace correlation with own target {own.mean():.3f} vs "
        f"shuffled targets {cross.mean():.3f}",
    ])
    summary = {
        "distance_before": distance_before,
        "distance_after": distance_after,
        "correlation_own": float(own.mean()),
        "correlation_cross": float(cross.mean()),
    }
    return ExperimentResult(
        name="fig5", summary=summary, text=text,
        data={"outputs": outputs[:4], "targets": dataset.targets[:4],
              "inputs": dataset.inputs[:4]},
    )


# ---------------------------------------------------------------------------
# Fig. 7 — circuit transient
# ---------------------------------------------------------------------------
def run_fig7(profile: str | None = None) -> ExperimentResult:
    """Reproduce the Fig. 7 circuit simulation: a spike burst triggers one
    output spike, the threshold rises and suppresses the next input."""
    config = NeuronCircuitConfig()
    result = simulate_neuron([50, 70, 90, 250, 450], config=config,
                             duration_ns=700)
    stats = result.summary()
    decimate = slice(None, None, 10)
    plot = "\n".join([
        line_plot(
            {"g (PSP)": result["g"][decimate],
             "threshold": result["threshold"][decimate],
             "k (filtered in)": result["k"][decimate]},
            height=13, width=80,
            title="Fig. 7(a): bit-line PSP vs adaptive threshold",
        ),
        line_plot(
            {"comparator": result["comparator"][decimate],
             "feedback h": result["feedback"][decimate],
             "buffered spike": result["spike"][decimate]},
            height=10, width=80,
            title="Fig. 7(b): comparator output and feedback",
        ),
        f"  measurements: {stats}",
        f"  RC time constant = {config.tau_seconds * 1e9:.1f} ns "
        f"({config.tau_steps:.2f} algorithm steps of {config.step_ns} ns); "
        f"bias = {config.v_bias * 1e3:.0f} mV",
    ])
    return ExperimentResult(
        name="fig7", summary=stats, text=plot,
        data={k: result[k] for k in
              ("input", "k", "g", "threshold", "comparator", "feedback",
               "spike")} | {"time": result.time},
    )


# ---------------------------------------------------------------------------
# Fig. 8 — quantization and process variation
# ---------------------------------------------------------------------------
def run_fig8(profile: str | None = None,
             workers: int | None = None) -> ExperimentResult:
    """Accuracy of the hardware-mapped N-MNIST model under 4/5-bit weights
    and RRAM process variation 0 - 0.5 (paper Fig. 8).

    With ``workers >= 1`` (argument or ``REPRO_WORKERS``) one persistent
    worker pool serves every grid point, evaluating the independent
    device-noise seeds concurrently — each seed's rng stream depends only
    on the fixed root seed, so the numbers are identical to the serial
    sweep's.
    """
    profile = resolve_profile(profile)
    workers = resolve_workers(workers)
    nmnist_result_bundle = _ensure_nmnist_model(profile)
    network = nmnist_result_bundle["network"]
    test = nmnist_result_bundle["test"]
    trainer = nmnist_result_bundle["trainer"]
    baseline = trainer.evaluate(test.inputs, test.targets)["accuracy"]

    variations = ([0.0, 0.1, 0.2, 0.3, 0.4, 0.5] if profile == "ci"
                  else [0.0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4,
                        0.45, 0.5])
    n_seeds = 2 if profile == "ci" else 5
    series: dict[str, list[float]] = {}
    with (WorkerPool(network, workers=min(workers, n_seeds)) if workers
          else nullcontext()) as pool:
        for bits in (4, 5):
            accs = []
            for variation in variations:
                mean_acc, _ = accuracy_under_variation(
                    network, test.inputs, test.targets, bits=bits,
                    variation=variation, n_seeds=n_seeds, rng=11, pool=pool,
                )
                accs.append(mean_acc)
            series[f"{bits}bit"] = accs

    table = Table(["Process variation", "4-bit acc %", "5-bit acc %"],
                  title="Fig. 8: accuracy vs quantization & variation "
                        f"(float baseline {100 * baseline:.2f} %)")
    for i, variation in enumerate(variations):
        table.add_row([f"{variation:.2f}",
                       f"{100 * series['4bit'][i]:.2f}",
                       f"{100 * series['5bit'][i]:.2f}"])
    text = table.render() + (
        "\nPaper reference: 4-bit, 0.2 deviation -> 97.97 % "
        "(from a 98.40 % float baseline, i.e. a ~0.4 pt drop)."
    )
    summary = {
        "baseline": baseline,
        "acc_4bit_novar": series["4bit"][0],
        "acc_5bit_novar": series["5bit"][0],
        "acc_4bit_maxvar": series["4bit"][-1],
        "acc_5bit_maxvar": series["5bit"][-1],
        "acc_4bit_02": series["4bit"][variations.index(0.2)],
        "mean_gap_5bit_minus_4bit": float(
            np.mean(np.array(series["5bit"]) - np.array(series["4bit"]))),
    }
    return ExperimentResult(
        name="fig8", summary=summary, text=text,
        data={"variations": variations, **series},
    )


def _ensure_nmnist_model(profile: str):
    """Train (or reuse) the N-MNIST classifier used by fig8."""
    key = f"nmnist-{profile}"
    if key not in _CACHE:
        run_table2_nmnist(profile)
    return _CACHE[key]


# ---------------------------------------------------------------------------
# Fig. 8 recovery — hardware-aware training closes the codesign loop
# ---------------------------------------------------------------------------
#: The Fig. 8 operating point hardware-aware training targets: 4-bit
#: devices with 10 % lognormal resistance variation.
FIG8_AWARE_PROFILE = HardwareProfile.create(bits=4, variation=0.1, seed=13)


def _ensure_aware_nmnist_model(profile: str):
    """Train (or reuse) the hardware-aware twin of the fig8 classifier.

    Standard quantization-aware practice: warm-start from the converged
    ideal model and fine-tune with the crossbar model inside the loop
    (``TrainerConfig(hardware=FIG8_AWARE_PROFILE)``) — training
    hardware-aware from scratch converges much more slowly under per-step
    programming noise.  The ideal weights are *copied* (``set_weights``),
    so the cached fig8 baseline model is untouched.
    """
    key = f"nmnist-aware-{profile}"
    if key in _CACHE:
        return _CACHE[key]
    bundle = _ensure_nmnist_model(profile)
    source = bundle["network"]
    network = SpikingNetwork(source.sizes, params=source.params,
                            neuron_kind=source.neuron_kind,
                            surrogate=source.layers[0].surrogate, rng=0)
    network.set_weights(source.weights)
    epochs = 5 if profile == "ci" else 10
    config = TrainerConfig(
        epochs=epochs, batch_size=PAPER_CONFIG.batch_size,
        learning_rate=3e-4, optimizer=PAPER_CONFIG.optimizer,
        hardware=FIG8_AWARE_PROFILE,
    )
    trainer = Trainer(network, CrossEntropyRateLoss(), config, rng=3)
    trainer.fit(bundle["train"].inputs, bundle["train"].targets)
    _CACHE[key] = {"trainer": trainer, "network": network}
    return _CACHE[key]


def run_fig8_aware(profile: str | None = None,
                   workers: int | None = None) -> ExperimentResult:
    """Fig. 8 *recovery*: hardware-aware training vs post-hoc mapping.

    Fig. 8 measures how much accuracy post-hoc mapping loses to k-bit
    quantization and process variation.  This runner closes the loop the
    paper's codesign implies: the same N-MNIST classifier is fine-tuned
    with the crossbar model *inside* the training loop
    (``TrainerConfig(hardware=...)`` — straight-through-estimator
    quantization plus per-step programming-noise draws at the Fig. 8
    operating point, 4-bit / 10 % variation), and both models are mapped
    under identical device-noise seeds.  Reported per variation level:
    post-hoc mapped accuracy vs hardware-aware mapped accuracy; the
    summary carries the recovery at the trained operating point.

    With ``workers >= 1`` (argument or ``REPRO_WORKERS``) each model's
    device-noise seeds are evaluated concurrently over one persistent
    :class:`~repro.runtime.pool.WorkerPool`; seeds are keyed by the fixed
    root rng only, so the numbers equal the serial sweep's.
    """
    profile = resolve_profile(profile)
    workers = resolve_workers(workers)
    hw = FIG8_AWARE_PROFILE
    ideal_bundle = _ensure_nmnist_model(profile)
    aware_bundle = _ensure_aware_nmnist_model(profile)
    test = ideal_bundle["test"]
    baseline = ideal_bundle["trainer"].evaluate(
        test.inputs, test.targets)["accuracy"]
    aware_software = aware_bundle["trainer"].evaluate(
        test.inputs, test.targets)["accuracy"]

    variations = ([0.0, 0.1, 0.2] if profile == "ci"
                  else [0.0, 0.05, 0.1, 0.15, 0.2])
    n_seeds = 2 if profile == "ci" else 5

    def mapped_accuracies(network):
        """Mean mapped accuracy per variation level (shared seeds)."""
        with (WorkerPool(network, workers=min(workers, n_seeds))
              if workers else nullcontext()) as pool:
            return [
                accuracy_under_variation(
                    network, test.inputs, test.targets, bits=hw.bits,
                    variation=variation, n_seeds=n_seeds, rng=11,
                    pool=pool, device=hw.device)[0]
                for variation in variations
            ]

    posthoc = mapped_accuracies(ideal_bundle["network"])
    aware = mapped_accuracies(aware_bundle["network"])

    point = variations.index(hw.device.variation)
    table = Table(
        ["Process variation", "Post-hoc mapped %", "HW-aware mapped %",
         "Recovery (pts)"],
        title=f"Fig. 8 recovery: {hw.bits}-bit mapping, ideal vs "
              f"hardware-aware training "
              f"(ideal float baseline {100 * baseline:.2f} %)")
    for i, variation in enumerate(variations):
        table.add_row([
            f"{variation:.2f}", f"{100 * posthoc[i]:.2f}",
            f"{100 * aware[i]:.2f}",
            f"{100 * (aware[i] - posthoc[i]):+.2f}",
        ])
    text = table.render() + (
        f"\nHardware-aware software accuracy (master weights, ideal "
        f"dynamics): {100 * aware_software:.2f} %.\n"
        f"Trained operating point: {hw.bits}-bit, variation "
        f"{hw.device.variation:.2f} -> recovery "
        f"{100 * (aware[point] - posthoc[point]):+.2f} pts over post-hoc "
        f"mapping (same programming seeds).\n"
        "Both models map through the identical crossbar realization the "
        "trainer saw (DifferentialCrossbar.effective_weights)."
    )
    summary = {
        "baseline": baseline,
        "aware_software": aware_software,
        "posthoc_at_point": posthoc[point],
        "aware_at_point": aware[point],
        "recovery_at_point": aware[point] - posthoc[point],
        "recovery_mean": float(np.mean(np.array(aware) - np.array(posthoc))),
        "bits": hw.bits,
        "variation_point": hw.device.variation,
    }
    return ExperimentResult(
        name="fig8-aware", summary=summary, text=text,
        data={"variations": variations, "posthoc": posthoc, "aware": aware},
    )


# ---------------------------------------------------------------------------
# Section V-C — power / energy / area
# ---------------------------------------------------------------------------
def run_power_area(profile: str | None = None) -> ExperimentResult:
    """The Section V-C estimate: 300 steps x 10 ns, 14 input spikes."""
    rng = RandomState(0)
    steps = np.sort(rng.choice(np.arange(5, 295), size=14, replace=False))
    spike_times = [float(s) * 10.0 for s in steps]
    config = NeuronCircuitConfig()
    result = simulate_neuron(spike_times, config=config, duration_ns=3000,
                             dt_ns=0.5)
    report = estimate_power(result)
    area = estimate_area(config)

    table = Table(["Quantity", "Paper", "Measured"],
                  title="Section V-C: power / energy / area "
                        "(300 steps, 14 input spikes)")
    for row in report.table_rows():
        table.add_row(list(row))
    table.add_row(["area", f"{PAPER_POWER_REPORT['area_mm2']:.4f} mm^2",
                   f"{area['total_mm2']:.4f} mm^2"])
    text = table.render() + (
        "\nArea breakdown (um^2): "
        + ", ".join(f"{k.replace('_um2', '')}={v:.0f}"
                    for k, v in area.items() if k.endswith("_um2"))
    )
    summary = {
        "min_power_w": report.min_power_w,
        "max_power_w": report.max_power_w,
        "avg_power_w": report.avg_power_w,
        "energy_j": report.energy_j,
        "area_mm2": area["total_mm2"],
        "output_spikes": result.output_spike_count(),
    }
    return ExperimentResult(name="power-area", summary=summary, text=text,
                            data={"power_trace": report.power_trace_w})


# ---------------------------------------------------------------------------
# Ablations (design-choice benches called out in DESIGN.md)
# ---------------------------------------------------------------------------
def _ablation_shd_split(n_per_class: int, steps: int = 80):
    """The reduced-SHD train/test split, cached per process.

    The ablation condition functions run either serially (all in this
    process — one generation total, like the pre-parallel code) or one per
    pool worker (each process generates its own copy once).  Fixed seeds
    make every copy identical, so results do not depend on where a
    condition ran.
    """
    key = ("shd-ablation", n_per_class, steps)
    if key not in _CACHE:
        dataset = generate_shd(
            SyntheticSHDConfig(n_per_class=n_per_class, steps=steps), rng=0)
        _CACHE[key] = dataset.split(0.8, rng=1)
    return _CACHE[key]


def _ablation_surrogate_condition(task: tuple[str, str]) -> float:
    """Train the reduced SHD task with one surrogate; returns test accuracy.

    Module-level (picklable) so :func:`repro.runtime.parallel_map` can run
    the grid points in worker processes.
    """
    name, profile = task
    n_per_class = 10 if profile == "ci" else 40
    epochs = 10 if profile == "ci" else 30
    train, test = _ablation_shd_split(n_per_class)
    network = SpikingNetwork((700, 64, 20), surrogate=get_surrogate(name),
                             rng=2)
    calibrate_firing(network, train.inputs[:32], target_rate=0.08)
    trainer = Trainer(network, CrossEntropyRateLoss(), TrainerConfig(
        epochs=epochs, batch_size=32, learning_rate=1e-3,
        optimizer="adamw"), rng=3)
    history = trainer.fit(train.inputs, train.targets,
                          test.inputs, test.targets)
    return history[-1].test_metrics["accuracy"]


def run_ablation_surrogate(profile: str | None = None,
                           workers: int | None = None) -> ExperimentResult:
    """Train the reduced SHD task with four surrogate gradients.

    The four conditions are independent training runs; ``workers >= 1``
    (argument or ``REPRO_WORKERS``) trains them concurrently.
    """
    profile = resolve_profile(profile)
    names = ("erfc", "sigmoid", "triangle", "rectangular")
    results = parallel_map(_ablation_surrogate_condition,
                           [(name, profile) for name in names],
                           workers=workers)
    accs = dict(zip(names, results))
    table = Table(["Surrogate", "Test acc %"],
                  title="Ablation: surrogate gradient (reduced SHD)")
    for name in names:
        table.add_row([name, f"{100 * accs[name]:.2f}"])
    return ExperimentResult(
        name="ablation-surrogate",
        summary={f"acc_{k}": v for k, v in accs.items()},
        text=table.render(),
    )


def run_ablation_timing(profile: str | None = None) -> ExperimentResult:
    """Quantify the timing information in the synthetic SHD substitute.

    Trains identical networks on the original dataset and on a
    time-shuffled control (per-channel spike counts preserved, all
    temporal structure destroyed).  The accuracy gap *is* the timing
    information — the dataset property the paper's Table II SHD argument
    relies on (its ref. [3] claims "spike timing is essential" for SHD).
    """
    from ..analysis import shuffle_time

    profile = resolve_profile(profile)
    n_per_class = 15 if profile == "ci" else 60
    epochs = 14 if profile == "ci" else 40
    dataset = generate_shd(
        SyntheticSHDConfig(n_per_class=n_per_class, steps=100), rng=0)
    train, test = dataset.split(0.8, rng=1)

    accs = {}
    for condition in ("original", "time-shuffled"):
        if condition == "original":
            train_x, test_x = train.inputs, test.inputs
        else:
            train_x = shuffle_time(train.inputs, rng=5)
            test_x = shuffle_time(test.inputs, rng=6)
        network = SpikingNetwork((700, 96, 20), rng=2)
        calibrate_firing(network, train_x[:32], target_rate=0.08)
        trainer = Trainer(network, CrossEntropyRateLoss(), TrainerConfig(
            epochs=epochs, batch_size=64, learning_rate=1e-3,
            optimizer="adamw"), rng=3)
        history = trainer.fit(train_x, train.targets, test_x, test.targets)
        accs[condition] = history[-1].test_metrics["accuracy"]

    table = Table(["Condition", "Test acc %"],
                  title="Ablation: timing information in synthetic SHD")
    table.add_row(["original (timing intact)",
                   f"{100 * accs['original']:.2f}"])
    table.add_row(["time-shuffled (counts preserved, timing destroyed)",
                   f"{100 * accs['time-shuffled']:.2f}"])
    text = table.render() + (
        "\nThe gap is class information carried by spike timing alone — "
        "the property that makes the hard-reset swap costly on SHD."
    )
    return ExperimentResult(
        name="ablation-timing",
        summary={"acc_original": accs["original"],
                 "acc_shuffled": accs["time-shuffled"]},
        text=text,
    )


def _ablation_gradient_condition(task: tuple[str, str]) -> float:
    """Train the reduced SHD task with one gradient mode (picklable unit
    of work for the parallel sweep)."""
    mode, profile = task
    n_per_class = 10 if profile == "ci" else 40
    epochs = 10 if profile == "ci" else 30
    train, test = _ablation_shd_split(n_per_class)
    network = SpikingNetwork((700, 64, 20), rng=2)
    calibrate_firing(network, train.inputs[:32], target_rate=0.08)
    trainer = Trainer(network, CrossEntropyRateLoss(), TrainerConfig(
        epochs=epochs, batch_size=32, learning_rate=1e-3,
        optimizer="adamw", gradient_mode=mode), rng=3)
    history = trainer.fit(train.inputs, train.targets,
                          test.inputs, test.targets)
    return history[-1].test_metrics["accuracy"]


def run_ablation_gradient(profile: str | None = None,
                          workers: int | None = None) -> ExperimentResult:
    """Exact filter-adjoint BPTT vs the paper's truncated eq. (13).

    Two independent training runs; ``workers >= 1`` trains them
    concurrently via :func:`repro.runtime.parallel_map`.
    """
    profile = resolve_profile(profile)
    modes = ("exact", "truncated")
    results = parallel_map(_ablation_gradient_condition,
                           [(mode, profile) for mode in modes],
                           workers=workers)
    accs = dict(zip(modes, results))
    table = Table(["Gradient mode", "Test acc %"],
                  title="Ablation: exact adjoints vs truncated eq. (13)")
    table.add_row(["exact (full filter adjoints)",
                   f"{100 * accs['exact']:.2f}"])
    table.add_row(["truncated (paper eq. 13 two-term form)",
                   f"{100 * accs['truncated']:.2f}"])
    return ExperimentResult(
        name="ablation-gradient",
        summary={"acc_exact": accs["exact"],
                 "acc_truncated": accs["truncated"]},
        text=table.render(),
    )
