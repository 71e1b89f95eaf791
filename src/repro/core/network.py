"""The feedforward spiking network (paper Fig. 2/3).

A :class:`SpikingNetwork` is a stack of :class:`~repro.core.layers.SpikingLinear`
layers.  :meth:`SpikingNetwork.run` executes it on the vectorized engine
in :mod:`repro.core.engine`: because the stack is feedforward and causal
(eq. 9 couples layer ``l``'s synapse filter to layer ``l-1``'s output at
the same step, never a later one), the loop nest runs layer-major, the
synapse filter is an in-place exponential scan over time-major
``(T, batch, n)`` buffers and the crossbar product is one sparse product
per layer, in ``precision="float32"|"float64"``.

``run(engine="step")`` runs the reference oracle instead: the autograd
tape's step-by-step unroll of the same equations
(:func:`repro.autograd.reference.unroll`), the literal Fig. 2 unfolding.
Spikes, membrane traces and BPTT gradients of the engine match it to
tolerance (``tests/unit/test_engine.py``,
``tests/property/test_engine_properties.py``).

A recorded run (:class:`RunRecord`) captures, per layer, the membrane
values ``v`` and output spikes — everything BPTT needs.  The synapse-filter
traces ``k`` that the analysis code reads are derived from the layer
inputs on first access.
"""

from __future__ import annotations

import numpy as np

from .. import obs as _obs
from ..common.errors import ShapeError
from ..common.rng import RandomState, as_random_state
from .engine import StreamState, fused_run, resolve_precision, run_streaming
from .layers import LayerStepRecord, SpikingLinear
from .neurons import NeuronParameters
from .surrogate import SurrogateGradient

__all__ = ["SpikingNetwork", "RunRecord"]


class RunRecord:
    """Everything captured from one recorded forward run.

    Memory layout: every tensor is indexed ``[batch, t, neuron]`` — the
    public ``(batch, T, n)`` shape — but holds the engine's
    **time-major** ``(T, batch, n)`` buffers behind ``swapaxes`` views, so
    one time step ``tensor[:, t, :]`` is a contiguous ``(batch, n)`` slice
    of the buffer (what the fused backward's per-step loops walk) and
    ``tensor.swapaxes(0, 1)`` recovers the buffer without a copy.
    ``inputs`` is the caller's own (batch-major) array.  The buffers are
    lent by the running thread's arena
    (:func:`repro.core.workspace.arena`): dropping the record frees them,
    and releasing a view to that arena returns the buffer behind it for
    reuse.

    Per layer the record holds ``v`` (membrane values, pre-reset for HR)
    and ``spikes`` (both ``(batch, T, n_out)``).  Its ``k``
    (synapse-filter trace, ``(batch, T, n_in)``, ``None`` for hard-reset
    layers) is not recorded: it is derived on first read as
    ``exp_scan(layer_input(i), alpha)`` and cached, so the fused backward,
    which never reads it, never pays for it.  The dtype is whatever
    precision the run used.

    Attributes
    ----------
    inputs:
        The network input spikes, shape (batch, T, n_input).
    layers:
        One :class:`~repro.core.layers.LayerStepRecord` per layer.
    """

    def __init__(self, inputs: np.ndarray, layers: list[LayerStepRecord]):
        self.inputs = inputs
        self.layers = layers

    @property
    def outputs(self) -> np.ndarray:
        """Output spikes of the last layer, shape (batch, T, n_out)."""
        return self.layers[-1].spikes

    def layer_input(self, index: int) -> np.ndarray:
        """Spikes entering layer ``index`` (network input for index 0)."""
        if index == 0:
            return self.inputs
        return self.layers[index - 1].spikes


class SpikingNetwork:
    """A feedforward stack of spiking layers.

    Parameters
    ----------
    sizes:
        Layer widths including the input, e.g. ``(700, 400, 400, 20)``.
    params:
        Neuron hyper-parameters shared by all layers (Table I defaults).
    neuron_kind:
        ``"adaptive"`` or ``"hard_reset"`` for every layer.
    surrogate:
        Surrogate gradient attached to every layer.
    rng:
        Seed / RandomState; each layer's init gets an independent child
        stream.
    """

    def __init__(self, sizes: tuple[int, ...] | list[int],
                 params: NeuronParameters | None = None,
                 neuron_kind: str = "adaptive",
                 surrogate: SurrogateGradient | None = None,
                 rng: RandomState | int | None = None):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError("a network needs at least an input and one layer")
        root = as_random_state(rng)
        params = params or NeuronParameters()
        self._adopt([
            SpikingLinear(
                sizes[i], sizes[i + 1], params=params,
                neuron_kind=neuron_kind, surrogate=surrogate,
                rng=root.child(f"layer{i}"), name=f"layer{i}",
            )
            for i in range(len(sizes) - 1)
        ])

    @classmethod
    def from_layers(cls, layers: list[SpikingLinear]) -> "SpikingNetwork":
        """A network over ready-built layers, with no weight init.

        The clone constructor: build each layer around its weight array
        (``SpikingLinear(..., weight=)``) and stack them here, so no
        random weights are drawn only to be overwritten.  The layers must
        chain (each ``n_in`` the previous ``n_out``) and share one neuron
        kind and one parameter set, which becomes the network's
        ``params``.
        """
        network = cls.__new__(cls)
        network._adopt(layers)
        return network

    def _adopt(self, layers: list[SpikingLinear]) -> None:
        if not layers:
            raise ValueError("a network needs at least an input and one layer")
        for below, above in zip(layers, layers[1:]):
            if above.n_in != below.n_out:
                raise ShapeError(f"{above.name}: {above.n_in} inputs do not "
                                 f"chain to {below.name}'s {below.n_out}")
        kinds = {layer.neuron_kind for layer in layers}
        if len(kinds) != 1:
            raise ValueError(f"layers mix neuron kinds {sorted(kinds)}")
        if any(layer.params != layers[0].params for layer in layers):
            raise ValueError("layers mix neuron parameters")
        self.sizes = (layers[0].n_in, *(layer.n_out for layer in layers))
        self.params = layers[0].params
        self.neuron_kind = layers[0].neuron_kind
        self.layers = list(layers)

    # -- forward -------------------------------------------------------------
    def run(self, inputs: np.ndarray, record: bool = False,
            engine: str = "fused", precision: str | None = None,
            weights=None) -> tuple[np.ndarray, RunRecord | None]:
        """Run a batch of spike sequences through the network.

        Parameters
        ----------
        inputs:
            Spike array of shape (batch, T, n_input); values may exceed 1
            (event counts) — the filters are linear.
        record:
            Capture per-layer traces for BPTT / analysis.
        engine:
            ``"fused"`` (default, :mod:`repro.core.engine`) or ``"step"``:
            the reference oracle, the autograd tape's step-by-step unroll
            (:func:`repro.autograd.reference.unroll`), whose output spikes
            the fused engine's match.  ``"step"`` returns outputs only: it
            takes no ``record`` or ``weights``.
        precision:
            ``"float32"`` or ``"float64"`` (default).
        weights:
            Optional per-layer weight overrides (one ``(n_out, n_in)``
            array per layer) substituting the crossbar product's matrices
            for this run only — the network's own parameters are
            untouched.  The batch twin of :meth:`run_stream`'s override:
            hardware-aware training runs its forward pass through the
            quantized(+noisy) weights this way (see
            :class:`~repro.core.trainer.TrainerConfig` ``hardware=``).

        Returns
        -------
        (outputs, record):
            ``outputs`` has shape (batch, T, n_output); ``record`` is a
            :class:`RunRecord` or ``None``.  The fused engine's tensors
            are views of buffers lent by the calling thread's arena
            (:func:`repro.core.workspace.arena`); a caller that is done
            with them may release them there for the next run to reuse.
        """
        if engine not in ("fused", "step"):
            raise ValueError(f"engine must be 'fused' or 'step', got {engine!r}")
        dtype = resolve_precision(precision) or np.dtype(np.float64)
        inputs = np.asarray(inputs, dtype=dtype)
        if inputs.ndim != 3:
            raise ShapeError(f"expected (batch, T, n_in), got {inputs.shape}")
        if inputs.shape[2] != self.sizes[0]:
            raise ShapeError(
                f"expected {self.sizes[0]} input channels, got {inputs.shape[2]}"
            )
        if engine == "step":
            if record or weights is not None:
                raise ValueError(
                    "engine='step' runs the autograd tape and returns "
                    "outputs only; record= and weights= are fused-engine "
                    "features")
            from ..autograd.reference import unroll   # autograd sits above core
            return unroll(self, inputs, precision=dtype).spikes(), None
        # timed_span is the shared null context unless a telemetry bundle
        # is installed — the uninstrumented path pays one global read per
        # call.
        with _obs.timed_span("engine.run", metric="engine.run_ms",
                             engine=engine, batch=int(inputs.shape[0]),
                             steps=int(inputs.shape[1])):
            return fused_run(self, inputs, record=record, weights=weights)

    # -- streaming -----------------------------------------------------------
    def new_stream_state(self, batch_size: int,
                         precision: str | None = None) -> StreamState:
        """A fresh :class:`~repro.core.engine.StreamState` for ``batch_size``
        independent streams (see :meth:`run_stream`)."""
        return StreamState.for_network(self, batch_size, precision=precision)

    def run_stream(self, chunk: np.ndarray, state: StreamState | None = None,
                   precision: str | None = None, lengths=None,
                   weights=None) -> tuple[np.ndarray, StreamState]:
        """Consume one chunk of a live spike stream; returns
        ``(outputs, state)``.

        Feeding a T-step sequence in chunks of any sizes produces
        bitwise-identical output spikes to the one-shot fused :meth:`run`
        (pinned in ``tests/unit/test_streaming.py``; see
        :func:`~repro.core.engine.run_streaming`).  Every stream runs the
        fused engine's kernels; the reference oracle is one-shot only
        (``run(engine="step")``).  The stream's memory lives entirely in
        the returned state, never in the network (no run writes to it),
        so any number of concurrent streams share one resident network.

        Parameters
        ----------
        chunk:
            Spike array of shape ``(batch, T_chunk, n_input)``; ``T_chunk``
            may vary call to call (0 is allowed and is a no-op).
        state:
            The :class:`~repro.core.engine.StreamState` returned by the
            previous call (advanced in place and returned), or ``None`` to
            open a new stream.
        precision:
            Fix the stream's dtype when opening it; on an existing state it
            must match the state's dtype.
        lengths:
            Optional ``(batch,)`` ints marking each row's valid prefix of
            a padded chunk (the serving micro-batcher's gather format):
            each row's state advances exactly ``lengths[i]`` steps and its
            outputs beyond that are unspecified.
        weights:
            Optional per-layer weight overrides (one ``(n_out, n_in)``
            array per layer) substituting the crossbar product's matrices
            for this chunk only — the network's own parameters are
            untouched.  The ``.T`` view of a C-contiguous ``(n_in,
            n_out)`` array in the stream's dtype is read in place; any
            other array is copied.  Hardware-in-the-loop serving streams
            the resident software network with the crossbars' achieved
            weights this way (see :class:`~repro.hardware.
            mapped_network.HardwareMappedNetwork.run_stream`).
        """
        if state is None:
            resolved = resolve_precision(precision) or np.dtype(np.float64)
        else:
            resolved = state.dtype
            requested = resolve_precision(precision)
            if requested is not None and requested != resolved:
                raise ValueError(
                    f"stream state carries dtype {resolved.name}, "
                    f"cannot continue it with precision={precision!r}")
        chunk = np.asarray(chunk, dtype=resolved)
        if chunk.ndim != 3:
            raise ShapeError(f"expected (batch, T, n_in), got {chunk.shape}")
        if chunk.shape[2] != self.sizes[0]:
            raise ShapeError(
                f"expected {self.sizes[0]} input channels, got {chunk.shape[2]}"
            )
        batch = chunk.shape[0]
        if state is None:
            state = self.new_stream_state(batch, precision=resolved)
        else:
            if not state.compatible_with(self):
                raise ShapeError(
                    f"stream state built for {'-'.join(map(str, state.sizes))} "
                    f"does not fit {self!r}")
            if state.batch != batch:
                raise ShapeError(
                    f"stream state carries {state.batch} streams, "
                    f"got a chunk of {batch}")
        with _obs.timed_span("engine.run_stream",
                             metric="engine.run_stream_ms",
                             engine="fused", batch=batch,
                             steps=int(chunk.shape[1])):
            outputs = run_streaming(self, chunk, state, lengths=lengths,
                                    weights=weights)
        return outputs, state

    # -- parameters ------------------------------------------------------------
    @property
    def weights(self) -> list[np.ndarray]:
        """The per-layer weight matrices (live references, not copies)."""
        return [layer.weight for layer in self.layers]

    def set_weights(self, weights: list[np.ndarray]) -> None:
        """Replace all weights (shapes must match)."""
        if len(weights) != len(self.layers):
            raise ShapeError(
                f"expected {len(self.layers)} weight arrays, got {len(weights)}"
            )
        for layer, w in zip(self.layers, weights):
            w = np.asarray(w, dtype=np.float64)
            if w.shape != layer.weight.shape:
                raise ShapeError(
                    f"{layer.name}: weight shape {w.shape} != {layer.weight.shape}"
                )
            layer.weight = w.copy()

    def state_dict(self) -> dict[str, np.ndarray]:
        """Named parameter arrays for serialization."""
        return {f"layers.{i}.weight": layer.weight.copy()
                for i, layer in enumerate(self.layers)}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore parameters saved by :meth:`state_dict`."""
        weights = []
        for i in range(len(self.layers)):
            key = f"layers.{i}.weight"
            if key not in state:
                raise ShapeError(f"missing parameter {key!r}")
            weights.append(state[key])
        self.set_weights(weights)

    def with_neuron_kind(self, neuron_kind: str) -> "SpikingNetwork":
        """A new network with identical (shared) weights but other dynamics.

        Implements the paper's Table II 'HR' swap: evaluate the trained
        weights under hard-reset neurons.  Each layer is
        :meth:`~repro.core.layers.SpikingLinear.copy_with_neuron` of ours,
        so it keeps its surrogate gradient.
        """
        return SpikingNetwork.from_layers(
            [layer.copy_with_neuron(neuron_kind) for layer in self.layers])

    def count_parameters(self) -> int:
        """Total number of trainable scalars."""
        return int(sum(w.size for w in self.weights))

    def __repr__(self) -> str:
        arch = "-".join(str(s) for s in self.sizes)
        return f"SpikingNetwork({arch}, kind={self.neuron_kind!r})"
