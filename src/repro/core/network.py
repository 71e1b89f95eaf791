"""The feedforward spiking network (paper Fig. 2/3).

A :class:`SpikingNetwork` is a stack of :class:`~repro.core.layers.SpikingLinear`
layers.  Two execution engines produce identical dynamics:

* ``engine="step"`` — the *step-wise reference path*: at each step ``t``
  the input spikes propagate through every layer (eq. 9 couples layer
  ``l``'s synapse filter to layer ``l-1``'s output *at the same step*),
  then ``t`` advances.  This is the literal unfolding of the paper's
  Fig. 2 — easy to audit, and what :meth:`SpikingNetwork.step` exposes for
  closed-loop use — but it pays one small matmul and several Python
  dispatches per layer per step.

* ``engine="fused"`` (the default) — the vectorized engine in
  :mod:`repro.core.engine`: because the stack is feedforward and causal,
  the loop nest is reordered layer-major, the synapse filter becomes an
  in-place exponential scan over time-major ``(T, batch, n)`` buffers,
  and the crossbar product collapses to one batched matmul per layer.
  Spikes, membrane traces and BPTT gradients match the reference to
  tolerance (``tests/unit/test_engine.py``); throughput is several times
  higher (``docs/performance.md``).

Both engines support ``precision="float32"|"float64"``.

A recorded run (:class:`RunRecord`) captures, per layer, the membrane
values ``v`` and output spikes — everything BPTT needs.  The synapse-filter
traces ``k`` that the reference backward and the analysis code read are
derived from the layer inputs on first access.
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
    public ``(batch, T, n)`` shape — but a fused-engine record holds the
    engine's **time-major** ``(T, batch, n)`` buffers behind ``swapaxes``
    views, so one time step ``tensor[:, t, :]`` is a contiguous
    ``(batch, n)`` slice of the buffer (what the fused backward's
    per-step loops walk) and ``tensor.swapaxes(0, 1)`` recovers the
    buffer without a copy.  ``inputs`` is the caller's own
    (batch-major) array.  A step-engine record holds plain batch-major
    arrays of the same shapes; the fused backward accepts either.
    Releasing a view to a workspace returns the buffer behind it.

    Per layer the record holds ``v`` (membrane values, pre-reset for HR)
    and ``spikes`` (both ``(batch, T, n_out)``).  Its ``k``
    (synapse-filter trace, ``(batch, T, n_in)``, ``None`` for hard-reset
    layers) is not recorded: it is derived on first read as
    ``exp_scan(layer_input(i), alpha)`` — the ops of the step loop's
    ``alpha*k + x`` — and cached, so the fused backward, which never reads
    it, never pays for it.  The dtype is whatever precision the run used;
    both engines produce the same values and the same derived ``k``, so
    BPTT and the analysis code never need to know which engine recorded
    it.

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
        kind; the network's ``params`` are the first layer's.
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
        self.sizes = (layers[0].n_in, *(layer.n_out for layer in layers))
        self.params = layers[0].params
        self.neuron_kind = layers[0].neuron_kind
        self.layers = list(layers)

    # -- forward -------------------------------------------------------------
    def reset_state(self, batch_size: int, dtype=np.float64) -> None:
        for layer in self.layers:
            layer.reset_state(batch_size, dtype=dtype)

    def step(self, x: np.ndarray) -> np.ndarray:
        """Propagate one time step through all layers; returns output spikes."""
        spikes = x
        for layer in self.layers:
            spikes, _ = layer.step(spikes)
        return spikes

    def run(self, inputs: np.ndarray, record: bool = False,
            dtype=np.float64, engine: str = "fused",
            precision: str | None = None,
            workspace=None, weights=None
            ) -> tuple[np.ndarray, RunRecord | None]:
        """Run a batch of spike sequences through the network.

        Parameters
        ----------
        inputs:
            Spike array of shape (batch, T, n_input); values may exceed 1
            (event counts) — the filters are linear.
        record:
            Capture per-layer traces for BPTT / analysis.
        dtype:
            Array dtype (kept for backwards compatibility; prefer
            ``precision``).
        engine:
            ``"fused"`` (default, :mod:`repro.core.engine`) or ``"step"``
            (the per-step reference loop).  Outputs agree to tolerance.
        precision:
            ``"float32"`` or ``"float64"``; overrides ``dtype`` when given.
        workspace:
            Optional :class:`~repro.runtime.workspace.Workspace` the fused
            engine checks its large buffers out of (identical results).
            The returned tensors then belong to that workspace's owner —
            only pass one from code that recycles them, like the
            :class:`~repro.core.trainer.Trainer`.  Ignored by
            ``engine="step"``.
        weights:
            Optional per-layer weight overrides (one ``(n_out, n_in)``
            array per layer) substituting the crossbar product's matrices
            for this run only — the network's own parameters are
            untouched.  The batch twin of :meth:`run_stream`'s override:
            hardware-aware training runs its forward pass through the
            quantized(+noisy) weights this way (see
            :class:`~repro.core.trainer.TrainerConfig` ``hardware=``).
            Fused engine only.

        Returns
        -------
        (outputs, record):
            ``outputs`` has shape (batch, T, n_output); ``record`` is a
            :class:`RunRecord` or ``None``.
        """
        if engine not in ("fused", "step"):
            raise ValueError(f"engine must be 'fused' or 'step', got {engine!r}")
        resolved = resolve_precision(precision)
        if resolved is not None:
            dtype = resolved
        inputs = np.asarray(inputs, dtype=dtype)
        if inputs.ndim != 3:
            raise ShapeError(f"expected (batch, T, n_in), got {inputs.shape}")
        if inputs.shape[2] != self.sizes[0]:
            raise ShapeError(
                f"expected {self.sizes[0]} input channels, got {inputs.shape[2]}"
            )
        if engine == "fused":
            # timed_span is the shared null context unless a telemetry
            # bundle is installed — the uninstrumented path pays one
            # global read per call.
            with _obs.timed_span("engine.run", metric="engine.run_ms",
                                 engine=engine, batch=int(inputs.shape[0]),
                                 steps=int(inputs.shape[1])):
                return fused_run(self, inputs, record=record, ws=workspace,
                                 weights=weights)
        if weights is not None:
            raise ValueError(
                "weight overrides are a fused-engine feature (the step "
                "path reads layer.weight directly)")
        batch, steps, _ = inputs.shape
        self.reset_state(batch, dtype=dtype)

        spike_buffers = [
            np.zeros((batch, steps, layer.n_out), dtype=dtype)
            for layer in self.layers
        ]
        v_buffers = None
        if record:
            v_buffers = [np.zeros((batch, steps, layer.n_out), dtype=dtype)
                         for layer in self.layers]

        with _obs.timed_span("engine.run", metric="engine.run_ms",
                             engine=engine, batch=batch, steps=steps):
            for t in range(steps):
                spikes = inputs[:, t, :]
                for index, layer in enumerate(self.layers):
                    spikes, v = layer.step(spikes)
                    spike_buffers[index][:, t, :] = spikes
                    if record:
                        v_buffers[index][:, t, :] = v

        outputs = spike_buffers[-1]
        run_record = None
        if record:
            layer_inputs = [inputs] + spike_buffers[:-1]
            layer_records = [
                LayerStepRecord.for_layer(layer, layer_inputs[i],
                                          v_buffers[i], spike_buffers[i])
                for i, layer in enumerate(self.layers)
            ]
            run_record = RunRecord(inputs=inputs, layers=layer_records)
        return outputs, run_record

    # -- streaming -----------------------------------------------------------
    def new_stream_state(self, batch_size: int, precision: str | None = None,
                         dtype=np.float64) -> StreamState:
        """A fresh :class:`~repro.core.engine.StreamState` for ``batch_size``
        independent streams (see :meth:`run_stream`)."""
        return StreamState.for_network(self, batch_size, precision=precision,
                                       dtype=dtype)

    def run_stream(self, chunk: np.ndarray, state: StreamState | None = None,
                   precision: str | None = None, workspace=None,
                   lengths=None, weights=None
                   ) -> tuple[np.ndarray, StreamState]:
        """Consume one chunk of a live spike stream; returns
        ``(outputs, state)``.

        Feeding a T-step sequence in chunks of any sizes produces
        bitwise-identical output spikes to the one-shot fused :meth:`run`
        (pinned in ``tests/unit/test_streaming.py``; see
        :func:`~repro.core.engine.run_streaming`).  Every stream runs the
        fused engine's kernels; the step-wise reference is one-shot only
        (``run(engine="step")``).  The stream's memory lives entirely in
        the returned state, never in the network — the layer/neuron
        scratch is left untouched — so any number of concurrent streams
        share one resident network.

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
        workspace:
            Optional :class:`~repro.runtime.workspace.Workspace` the engine
            checks chunk buffers out of; the returned outputs then belong
            to the workspace's owner.
        lengths:
            Optional ``(batch,)`` ints marking each row's valid prefix of
            a padded chunk (the serving micro-batcher's gather format):
            each row's state advances exactly ``lengths[i]`` steps and its
            outputs beyond that are unspecified.
        weights:
            Optional per-layer weight overrides (one ``(n_out, n_in)``
            array per layer) substituting the crossbar product's matrices
            for this chunk only — the network's own parameters are
            untouched.  Hardware-in-the-loop serving streams the resident
            software network with the crossbars' achieved weights this
            way (see :class:`~repro.hardware.mapped_network.
            HardwareMappedNetwork.run_stream`).
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
            state = self.new_stream_state(batch, dtype=resolved)
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
                                    ws=workspace, weights=weights)
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
