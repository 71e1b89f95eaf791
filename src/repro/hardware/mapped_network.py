"""Hardware-in-the-loop inference: a trained network on RRAM crossbars.

This implements the evaluation behind the paper's Fig. 8: trained weights
are programmed into differential RRAM crossbars with k-bit quantization
and per-device lognormal process variation; inference then runs the same
adaptive-threshold dynamics using the *achieved* (non-ideal) weights.

Because the neuron dynamics are unchanged — only the weight values move —
mapping reduces to a clone network whose weights are the crossbars'
effective weights.  That clone is a faithful model of the analog datapath
under the paper's own simplifications (sense-resistor loading neglected
via the current-amplifier argument, Section IV).

The mapped realization is served through a cached *weight provider*
(:meth:`HardwareMappedNetwork.weight_list`): one effective-weight array
per layer, memoised against the crossbars' programming generations so
re-programming (:meth:`HardwareMappedNetwork.reprogram`) invalidates it
and every consumer — one-shot :meth:`~HardwareMappedNetwork.run`, chunked
:meth:`~HardwareMappedNetwork.run_stream`, the serving tick — reads the
same frozen arrays.  An optional per-stream read-noise rng draws a
private read realization instead (reproducible by seed), so a serving
session can model cycle-to-cycle read noise without perturbing anyone
else's weights.

One-shot runs and streams both ride the fused engine's weight-override
hook (``weights=``): a hardware run executes exactly the software code
path with the achieved weights substituted into the crossbar product, so
chunked hardware inference is bitwise-equal to a one-shot hardware
``run`` under a fixed noise seed (pinned in
``tests/unit/test_hw_streaming.py``), and no run writes weights into a
network.

The Fig. 8 sweep is embarrassingly parallel across programming draws: each
device-noise seed owns an independent rng stream keyed by ``(root seed,
seed name)``, so :func:`accuracy_under_variation` can fan its seeds out to
a caller's :class:`~repro.runtime.pool.WorkerPool` (``pool=``) and return
exactly the numbers the serial loop returns — the per-seed unit of work is
the shared :func:`seed_correct` either way.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..common.config import BaseConfig
from ..common.errors import ShapeError, StateError
from ..common.rng import RandomState, as_random_state
from ..core.layers import SpikingLinear
from ..core.network import SpikingNetwork
from ..core.trainer import run_in_batches
from .crossbar import DifferentialCrossbar
from .devices import RRAMDeviceConfig

__all__ = ["HardwareMappedNetwork", "HardwareProfile", "HardwareStreamState",
           "accuracy_under_variation", "seed_accuracy"]


class HardwareMappedNetwork:
    """A trained :class:`~repro.core.network.SpikingNetwork` on crossbars.

    Parameters
    ----------
    network:
        The trained software model (unmodified).
    device:
        RRAM device model; ``levels = 2**bits`` sets the quantization and
        ``variation`` the programming noise.
    rng:
        Randomness for the device draws (one independent stream per layer
        and polarity).
    """

    def __init__(self, network: SpikingNetwork,
                 device: RRAMDeviceConfig | None = None,
                 rng: RandomState | int | None = None):
        self.software_network = network
        self.device = device or RRAMDeviceConfig()
        root = as_random_state(rng)
        self.crossbars = [
            DifferentialCrossbar(layer.weight, self.device,
                                 rng=root.child(f"crossbar{i}"))
            for i, layer in enumerate(network.layers)
        ]
        # The mapped realization: one effective-weight array per layer,
        # cached against the crossbars' programming generations and kept
        # installed on the hardware clone (see weight_list()), which is
        # built around private copies of it.
        self._weights = [xbar.effective_weights() for xbar in self.crossbars]
        self._weights_generation = self.generation()
        self.hardware_network = SpikingNetwork.from_layers([
            SpikingLinear(layer.n_in, layer.n_out, params=layer.params,
                          neuron_kind=network.neuron_kind, name=f"layer{i}",
                          weight=weight.copy())
            for i, (layer, weight) in enumerate(zip(network.layers,
                                                    self._weights))])

    # -- the weight provider ---------------------------------------------------
    def generation(self) -> tuple:
        """The crossbars' programming generations (cache key; advances on
        every :meth:`reprogram` / crossbar ``program``)."""
        return tuple((xbar.array_plus.version, xbar.array_minus.version)
                     for xbar in self.crossbars)

    def weight_list(self, rng: RandomState | int | None = None
                    ) -> list[np.ndarray]:
        """Per-layer achieved weights — the provider every consumer reads.

        With ``rng=None`` (the default) the list is the *mapped
        realization*: memoised against :meth:`generation`, re-read (and
        re-installed on ``hardware_network``) only after a re-programming.
        When ``read_noise > 0`` that realization is one frozen read draw
        per programming — deterministic serving weights, like a
        sample-and-hold at map time.

        With ``rng`` the list is a private *read realization*: read noise
        for every layer is drawn from child streams of ``rng`` (keyed by
        layer index only), so the same seed always produces the same
        noisy weights — the per-session noise model of the serving layer,
        and the reason chunked streams can pin their realization once at
        open instead of re-rolling per chunk.
        """
        if rng is not None:
            root = as_random_state(rng)
            return [xbar.effective_weights(rng=root.child(f"read{i}"))
                    for i, xbar in enumerate(self.crossbars)]
        generation = self.generation()
        if self._weights_generation != generation:
            self._weights = [xbar.effective_weights()
                             for xbar in self.crossbars]
            self._weights_generation = generation
            self.hardware_network.set_weights(self._weights)
        return self._weights

    def reprogram(self, weights: list[np.ndarray] | None = None) -> None:
        """Re-program every crossbar and refresh the mapped realization.

        Draws fresh device variation for each layer (each ``program`` call
        advances the crossbar's rng streams); ``weights`` optionally
        replaces the per-layer target weights first (e.g. after further
        training of the software model).  All caches keyed on
        :meth:`generation` — this object's weight list, the hardware
        clone's installed weights — refresh; live hardware streams opened
        before the call refuse to continue (their snapshot is stale).
        """
        if weights is not None and len(weights) != len(self.crossbars):
            raise ShapeError(
                f"expected {len(self.crossbars)} weight arrays, "
                f"got {len(weights)}")
        for index, xbar in enumerate(self.crossbars):
            xbar.program(None if weights is None else weights[index])
        self.weight_list()

    # -- inference -------------------------------------------------------------
    def run(self, inputs: np.ndarray, record: bool = False,
            precision: str | None = None,
            read_noise_rng: RandomState | int | None = None):
        """Inference with the achieved (quantized + noisy) weights.

        ``precision`` is forwarded to
        :meth:`~repro.core.network.SpikingNetwork.run`.
        ``read_noise_rng`` pins a private read-noise realization for this
        run (see :meth:`weight_list`).  Either realization reaches the
        engine as the ``weights=`` override of the software network, as
        streams do, so no network's installed weights change.
        """
        return self.software_network.run(
            inputs, record=record, precision=precision,
            weights=self.weight_list(read_noise_rng))

    def open_stream(self, batch: int = 1, precision: str | None = None,
                    read_noise_rng: RandomState | int | None = None
                    ) -> "HardwareStreamState":
        """Open ``batch`` hardware streams; returns their carry state.

        The stream's weight realization is pinned here — the mapped
        realization by default, or a private read-noise draw from
        ``read_noise_rng`` — and reused for every subsequent chunk, which
        is what makes chunked streaming bitwise-equal to a one-shot
        :meth:`run` under the same seed.
        """
        weights = self.weight_list(read_noise_rng)
        state = self.hardware_network.new_stream_state(batch,
                                                       precision=precision)
        return HardwareStreamState(state, weights, self.generation())

    def run_stream(self, chunk: np.ndarray,
                   state: "HardwareStreamState | None" = None,
                   precision: str | None = None, lengths=None,
                   read_noise_rng: RandomState | int | None = None
                   ) -> tuple[np.ndarray, "HardwareStreamState"]:
        """Consume one chunk of a live spike stream on the crossbars.

        The streaming analogue of :meth:`run` — same contract as
        :meth:`repro.core.network.SpikingNetwork.run_stream` (chunked ==
        one-shot bitwise, state carried in the returned
        :class:`HardwareStreamState`, the resident networks' scratch
        untouched), executed by the fused engine with the stream's pinned
        weight realization substituted into every crossbar product.

        ``read_noise_rng`` is accepted only when opening a stream
        (``state=None``): a stream's realization is pinned at open.
        Continuing a stream across a :meth:`reprogram` raises
        :class:`~repro.common.errors.StateError` — the snapshot no longer
        matches any programmed device state.
        """
        chunk = np.asarray(chunk)
        if chunk.ndim != 3:
            raise ShapeError(f"expected (batch, T, n_in), got {chunk.shape}")
        if state is None:
            state = self.open_stream(chunk.shape[0], precision=precision,
                                     read_noise_rng=read_noise_rng)
        elif read_noise_rng is not None:
            raise ValueError(
                "read_noise_rng pins a stream's realization when the "
                "stream opens; it cannot be changed mid-stream")
        if state.generation != self.generation():
            raise StateError(
                "crossbars were re-programmed under a live stream; open a "
                "new stream to serve the new realization")
        outputs, _ = self.hardware_network.run_stream(
            chunk, state.state, precision=precision, lengths=lengths,
            weights=state.weights)
        return outputs, state

    def weight_errors(self) -> list[float]:
        """Per-layer RMS relative weight error vs the software model."""
        errors = []
        for layer, actual in zip(self.software_network.layers,
                                 self.weight_list()):
            ideal = layer.weight
            scale = float(np.max(np.abs(ideal))) or 1.0
            errors.append(float(np.sqrt(np.mean((actual - ideal) ** 2)) / scale))
        return errors

    def __repr__(self) -> str:
        arch = "-".join(str(s) for s in self.software_network.sizes)
        return (f"HardwareMappedNetwork({arch}, levels={self.device.levels}, "
                f"variation={self.device.variation})")


class HardwareStreamState:
    """Carry state of a chunked hardware stream: the engine's
    :class:`~repro.core.engine.StreamState` plus the stream's pinned
    weight realization.

    The weights are pinned when the stream opens (one list shared by all
    deterministic streams of a programming generation; a private list for
    read-noise streams) and the opening generation is recorded so a
    re-programming mid-stream fails loudly instead of silently serving a
    realization no device holds.
    """

    __slots__ = ("state", "weights", "generation")

    def __init__(self, state, weights: list[np.ndarray], generation: tuple):
        self.state = state
        self.weights = weights
        self.generation = generation

    @property
    def steps(self) -> np.ndarray:
        """Per-row consumed time steps (delegates to the engine state)."""
        return self.state.steps

    @property
    def batch(self) -> int:
        return self.state.batch

    def __repr__(self) -> str:
        return (f"HardwareStreamState(batch={self.batch}, "
                f"steps={self.steps.tolist()})")


@dataclasses.dataclass(frozen=True)
class HardwareProfile(BaseConfig):
    """Serializable recipe for mapping a checkpoint onto crossbars.

    A profile captures everything the paper's Fig. 8 varies — the device
    ladder (its ``levels`` are the k-bit quantization grid) and the
    device/variation model — plus the seed of the programming draw, so a
    served hardware realization is reproducible from
    ``(checkpoint, profile)`` alone.  The serving model registry versions
    profiles alongside checkpoints
    (:meth:`repro.serve.registry.ModelRegistry.save_profile`).

    Attributes
    ----------
    device:
        Device model; its ``levels`` must be a power of two, ``2**bits``
        for 1 to 16 bits (Fig. 8: 4 or 5), since the differential mapping
        programs one k-bit ladder.
    seed:
        Root seed of the programming draw (crossbar rng streams are its
        named children, one per layer and polarity).
    """

    device: RRAMDeviceConfig = dataclasses.field(
        default_factory=RRAMDeviceConfig)
    seed: int = 0

    def validate(self) -> None:
        levels = self.device.levels
        self.require(levels & (levels - 1) == 0 and levels <= 2 ** 16,
                     f"device levels must be 2**bits for 1-16 bits, "
                     f"got {levels}")
        self.require(self.seed >= 0,
                     f"seed must be non-negative, got {self.seed}")

    @classmethod
    def create(cls, bits: int = 4, variation: float = 0.0,
               read_noise: float = 0.0, seed: int = 0,
               device: RRAMDeviceConfig | None = None) -> "HardwareProfile":
        """Convenience constructor from Fig. 8 coordinates.

        ``device`` optionally supplies the base device model (conductance
        window, stuck-at rate); its ``levels`` are overridden to match
        ``bits``.
        """
        base = device or RRAMDeviceConfig()
        return cls(
            device=base.replace(levels=2 ** int(bits), variation=variation,
                                read_noise=read_noise),
            seed=int(seed),
        )

    @classmethod
    def from_dict(cls, data: dict) -> "HardwareProfile":
        # Postponed annotations hide the nested device type from
        # BaseConfig.from_dict's resolver; rebuild it here and let the
        # base reject unknown keys (a stale ``quantization`` among them).
        payload = dict(data)
        if isinstance(payload.get("device"), dict):
            payload["device"] = RRAMDeviceConfig.from_dict(payload["device"])
        return super().from_dict(payload)

    @property
    def bits(self) -> int:
        """Bits per device: ``log2(device.levels)``."""
        return self.device.levels.bit_length() - 1

    def build(self, network: SpikingNetwork) -> HardwareMappedNetwork:
        """Map ``network`` onto crossbars under this profile."""
        return HardwareMappedNetwork(network, self.device,
                                     rng=RandomState(self.seed))


def _check_eval_set(inputs, labels) -> None:
    """Raise ``ValueError`` unless ``labels`` holds one label per sample of
    a non-empty ``inputs`` (shape checks only: this guards timed calls)."""
    n = len(inputs)
    if n < 1 or np.shape(labels) != (n,):
        raise ValueError(
            f"need one label per sample of a non-empty set: labels of shape "
            f"({n},), got {np.shape(labels)}")


def seed_correct(network: SpikingNetwork, inputs: np.ndarray,
                 labels: np.ndarray, bits: int, variation: float,
                 seed: int, batch_size: int = 64,
                 precision: str | None = None,
                 device: RRAMDeviceConfig | None = None) -> int:
    """Correctly-classified count of one programming draw on ``inputs``.

    ``seed`` fully determines the draw (quantization targets + device
    variation), so evaluating a subset of samples — e.g. one bounded
    shared-memory window of a pooled sweep — reproduces exactly the
    predictions the full-set evaluation would give those samples: counts
    over disjoint windows sum to the full-set count.

    ``device`` optionally supplies the base device model (conductance
    window, read noise, stuck-at rate — e.g. a served hardware profile's
    device); the sweep coordinates ``bits``/``variation`` override its
    ``levels``/``variation``.  Default: the stock
    :class:`~repro.hardware.devices.RRAMDeviceConfig` window.
    """
    _check_eval_set(inputs, labels)
    base = device or RRAMDeviceConfig()
    device = base.replace(levels=2 ** int(bits), variation=variation)
    mapped = HardwareMappedNetwork(network, device, rng=RandomState(seed))
    outputs = run_in_batches(mapped.hardware_network, inputs, batch_size,
                             precision=precision)
    predictions = np.argmax(outputs.sum(axis=1), axis=1)
    return int(np.sum(predictions == np.asarray(labels)))


def _pooled_draw(worker, inputs, labels, **draw) -> int:
    """:func:`seed_correct` on a pool worker's replica: the pooled Fig. 8
    draw (``seed_correct`` is looked up per call)."""
    return seed_correct(worker.network(), inputs, labels, **draw)


def seed_accuracy(network: SpikingNetwork, inputs: np.ndarray,
                  labels: np.ndarray, bits: int, variation: float,
                  seed: int, batch_size: int = 64,
                  precision: str | None = None,
                  device: RRAMDeviceConfig | None = None) -> float:
    """Accuracy of one independent programming draw (one Fig. 8 seed).

    This is the unit of work of :func:`accuracy_under_variation` — executed
    in-process by the serial loop, and window-wise (via
    :func:`seed_correct`) inside each pool worker, producing identical
    numbers either way (an integer count divided by ``n``).  ``seed`` is
    the integer seed of the draw's private rng stream.
    """
    count = seed_correct(network, inputs, labels, bits=bits,
                         variation=variation, seed=seed,
                         batch_size=batch_size, precision=precision,
                         device=device)
    return count / inputs.shape[0]


def accuracy_under_variation(network: SpikingNetwork, inputs: np.ndarray,
                             labels: np.ndarray, bits: int,
                             variation: float, n_seeds: int = 3,
                             rng: RandomState | int | None = None,
                             batch_size: int = 64,
                             precision: str | None = None, pool=None,
                             device: RRAMDeviceConfig | None = None
                             ) -> tuple[float, float]:
    """Mean/std accuracy over device-noise seeds (one Fig. 8 data point).

    Parameters
    ----------
    network:
        Trained classifier.
    inputs, labels:
        Evaluation set.
    bits:
        Weight precision (Fig. 8: 4 or 5).
    variation:
        Lognormal resistance-deviation sigma (Fig. 8 x-axis, 0 - 0.5).
    n_seeds:
        Independent programming draws to average over.
    precision:
        Forwarded to the forward runs.
    pool:
        A caller-owned :class:`~repro.runtime.pool.WorkerPool` built from
        ``network`` evaluates the seeds concurrently (hold one across a
        whole Fig. 8 grid).  Every seed's rng stream is keyed by
        ``(rng, seed index)`` only, so the pooled results equal the serial
        ones exactly.
    device:
        Optional base device model the sweep coordinates override (see
        :func:`seed_correct`) — lets a served hardware profile's window /
        read-noise / stuck-at parameters flow through the whole sweep.

    Returns
    -------
    (mean_accuracy, std_accuracy)
    """
    _check_eval_set(inputs, labels)
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    root = as_random_state(rng)
    seeds = [root.child(f"seed{s}").seed for s in range(n_seeds)]
    if pool is not None:
        if pool.network is not network:
            raise ValueError(
                "pool was built for a different network object; build it "
                "from this network so the workers map the same weights")
        # One command per draw and staging window: each sees the whole
        # window, and a draw's counts over the windows sum to its
        # full-set count.
        draws = [dict(bits=bits, variation=variation, seed=seed,
                      batch_size=batch_size, precision=precision,
                      device=device) for seed in seeds]
        windows = pool._run(
            _pooled_draw, {"inputs": np.asarray(inputs),
                           "labels": np.asarray(labels)},
            lambda count: [({}, draw) for draw in draws],
            batch_size=batch_size)
        accuracies = np.sum(windows, axis=0) / len(inputs)
    else:
        accuracies = [
            seed_accuracy(network, inputs, labels, bits=bits,
                          variation=variation, seed=seed,
                          batch_size=batch_size, precision=precision,
                          device=device)
            for seed in seeds
        ]
    accuracies = np.asarray(accuracies, dtype=np.float64)
    return float(np.mean(accuracies)), float(np.std(accuracies))
