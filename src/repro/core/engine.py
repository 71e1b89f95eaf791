"""Fused, vectorized simulation engine for the core forward/backward loop.

The step-wise reference path (:meth:`SpikingNetwork.run` with
``engine="step"``) advances the whole stack one time step at a time,
dispatching through ``SpikingLinear.step`` -> ``neuron.step`` Python calls
and performing one small ``(batch, n_in) @ (n_in, n_out)`` matmul per layer
per step.  For the typical benchmark shapes (batch 32, T 100) that is
hundreds of tiny BLAS calls plus thousands of Python-level dispatches —
the dominant cost of every experiment in the repo.

This module removes that overhead by restructuring the loop nest.  The
network is feedforward and layer ``l`` at step ``t`` depends only on layer
``l-1`` at steps ``<= t`` (eq. 9 couples same-step outputs, never future
ones), so the time-major loop can be legally reordered layer-major: run
layer 0 over the entire sequence, then layer 1, and so on.  Per layer the
work then splits into

* **linear scans** — the synapse filter ``k[t] = alpha k[t-1] + x[t]``
  (eq. 9) and its adjoint are first-order recurrences evaluated in place
  over a preallocated ``(batch, T, n)`` buffer (:func:`exp_scan`,
  :func:`exp_scan_reverse`); each step is a fused elementwise update on a
  buffer slice, with no per-step allocation;
* **one sparse matmul** — the crossbar product ``g = k W^T`` (eq. 7) for
  *all* time steps at once, contracted over the spike events of the
  ``(batch*T, n_in)`` input only;
* **a thin nonlinear scan** — the spike/threshold recurrence (eqs. 6, 8,
  10) is inherently sequential (the spike at ``t`` feeds the reset filter
  at ``t+1``) but involves only elementwise work on ``(batch, n_out)``
  slices, again over preallocated buffers.

One kernel per neuron kind: :func:`_adaptive_forward` and
:func:`_hard_reset_forward` advance a carried per-layer state (the
:class:`StreamState` layout) over one chunk.  A one-shot run
(:func:`fused_run`) is a stream from a zero state followed by the write-back
of the final state to the layer; a streaming run (:func:`run_streaming`)
carries the state between chunks.  Every crossbar product goes through the
same event path (:func:`_spike_csr`): a CSR product computes each output
row as an independent sum over that row's spike events in index order, so
a sample's spikes and membrane values are bitwise the same whether it runs
alone, inside a batch, or split into chunks.  (A dense GEMM has no such
guarantee: BLAS picks different kernels for different row counts.)

The backward pass (:func:`fused_backward`) applies the same split to the
BPTT adjoints of :mod:`repro.core.backprop`: the sequential part is the
elementwise ``delta_v`` recurrence; the weight gradient collapses to a
single sparse contraction over ``(batch, T)`` and the input gradient to
one batched matmul followed by a reverse scan.

Precision: every entry point accepts ``precision="float32"|"float64"``
(:func:`resolve_precision`); float32 halves memory traffic and is
typically faster, at the cost of spike-level equivalence with the float64
reference (near-threshold membrane values may round across ``v_th``).

Workspace reuse: every entry point also accepts an optional
``ws``/``workspace`` — a :class:`repro.runtime.workspace.Workspace` — from
which the large ``(batch, T, n)`` buffers are checked out instead of
allocated.  The arithmetic is identical either way (buffers are
``np.empty`` equivalents); the caller (the :class:`~repro.core.trainer.
Trainer`, or a pool worker) recycles the recorded tensors once the step is
done.  A training step checks out only what BPTT reads: a record holds
``v`` and ``spikes`` per layer but no ``(batch, T, n_in)`` synapse-filter
trace (derived on demand, see :class:`~repro.core.layers.
LayerStepRecord`), and the surrogate derivative runs in place over one
float64 buffer per layer.  ``ws=None`` (the default) keeps the
allocate-per-call behavior.

Equivalence with the step-wise reference (same spikes, membrane traces and
gradients to tolerance) is tested in ``tests/unit/test_engine.py``; the
speedup is measured by ``benchmarks/bench_throughput.py`` and recorded in
``docs/performance.md``.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from ..common.errors import ShapeError

__all__ = [
    "PRECISIONS",
    "resolve_precision",
    "exp_scan",
    "exp_scan_reverse",
    "fused_layer_forward",
    "fused_run",
    "fused_backward",
    "StreamState",
    "run_streaming",
]

#: Supported precision names and their dtypes.
PRECISIONS = {"float32": np.float32, "float64": np.float64}


def resolve_precision(precision) -> np.dtype | None:
    """Map ``"float32"``/``"float64"`` (or a dtype-like) to a numpy dtype.

    ``None`` passes through (meaning "caller's default").
    """
    if precision is None:
        return None
    if isinstance(precision, str):
        if precision not in PRECISIONS:
            raise ValueError(
                f"precision must be one of {sorted(PRECISIONS)}, "
                f"got {precision!r}"
            )
        return np.dtype(PRECISIONS[precision])
    return np.dtype(precision)


# -- scan kernels -----------------------------------------------------------

def exp_scan(xs: np.ndarray, decay: float, out: np.ndarray | None = None,
             carry: np.ndarray | None = None) -> np.ndarray:
    """Causal first-order scan ``y[t] = decay*y[t-1] + x[t]`` along axis 1.

    ``xs`` has shape ``(batch, T, n)``.  The scan is evaluated in place
    over ``out`` (allocated once when omitted); each step is two fused
    elementwise ops on a ``(batch, n)`` slice.  ``out`` may alias ``xs``.

    ``carry`` is the scan value *preceding* ``xs[:, 0]`` — the final
    scanned value of the previous chunk of a split sequence.  With it the
    first step performs exactly the same two ops as every interior step
    (``y[0] = decay*carry + x[0]``), so scanning a sequence in chunks and
    threading the carry is bitwise-equal to one continuous scan.  ``None``
    (the default) keeps the original behavior ``y[0] = x[0]``.
    """
    xs = np.asarray(xs)
    if out is None:
        out = np.empty_like(xs)
    steps = xs.shape[1]
    if steps == 0:
        return out
    if out is xs:
        scratch = np.empty(xs.shape[::2], dtype=xs.dtype)  # (batch, n)
        if carry is not None:
            np.multiply(carry, decay, out=scratch)
            out[:, 0] += scratch
        for t in range(1, steps):
            np.multiply(out[:, t - 1], decay, out=scratch)
            out[:, t] += scratch
    else:
        out[:, 0] = xs[:, 0]
        if carry is not None:
            scratch = np.empty(xs.shape[::2], dtype=xs.dtype)
            np.multiply(carry, decay, out=scratch)
            out[:, 0] += scratch
        for t in range(1, steps):
            cur = out[:, t]
            np.multiply(out[:, t - 1], decay, out=cur)
            cur += xs[:, t]
    return out


def _ws_empty(ws, shape, dtype) -> np.ndarray:
    """``np.empty`` routed through a workspace when one is supplied."""
    if ws is None:
        return np.empty(shape, dtype=dtype)
    return ws.empty(shape, dtype)


def _ws_release(ws, *arrays) -> None:
    if ws is not None:
        ws.release(*arrays)


def _spike_csr(flat: np.ndarray, ws=None):
    """CSR of an ``(m, n)`` spike matrix, whatever its size or density.

    ``scipy.sparse.csr_matrix(dense)`` costs as much as the GEMM it is
    meant to replace, so the index structure is built directly: one
    ``flatnonzero`` scan (indices come out sorted, i.e. canonical CSR
    order) plus a ``searchsorted`` for the row pointers.  ``ws`` serves
    the constant row-boundary scratch from its cache.
    """
    m, n = flat.shape
    # Explicit bool compare first: flatnonzero on a float array pays an
    # extra full-size temporary and runs ~3x slower.
    raveled = np.ascontiguousarray(flat).reshape(-1)
    idx = np.flatnonzero(raveled != 0)
    bounds = (ws.row_bounds(m, n) if ws is not None
              else np.arange(0, (m + 1) * n, n))
    indptr = np.searchsorted(idx, bounds)
    return sparse.csr_matrix((raveled[idx], idx % n, indptr), shape=(m, n))


def spike_matmul(flat_x: np.ndarray, w_t: np.ndarray,
                 csr=None) -> np.ndarray:
    """``flat_x @ w_t`` contracted over the spike events only.

    ``flat_x`` is a ``(batch*T, n_in)`` spike matrix (typically a few
    percent nonzero), ``w_t`` a dense ``(n_in, n_out)`` weight transpose.
    ``csr`` is a conversion of ``flat_x`` the caller already holds, or
    ``None`` to build it here.
    """
    if csr is None:
        csr = _spike_csr(flat_x)
    return csr @ w_t


def spike_outer(flat_dv: np.ndarray, flat_x: np.ndarray,
                csr=None) -> np.ndarray:
    """``flat_dv.T @ flat_x`` — the BPTT weight gradient contraction.

    ``flat_dv`` is the dense ``(batch*T, n_out)`` membrane adjoint and
    ``flat_x`` the ``(batch*T, n_in)`` presynaptic spikes; the contraction
    runs as a CSC-dense product over the spike events only.  ``csr``
    follows the :func:`spike_matmul` convention.
    """
    if csr is None:
        csr = _spike_csr(flat_x)
    return np.ascontiguousarray((csr.T @ flat_dv).T)


def exp_scan_reverse(xs: np.ndarray, decay: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Anti-causal scan ``a[t] = x[t] + decay*a[t+1]`` along axis 1.

    The adjoint of :func:`exp_scan`.  Supports ``out is xs`` (in-place)
    for callers that want the adjoint without a second buffer;
    :func:`fused_backward` itself writes into a distinct buffer (the
    truncated mode still needs the pre-scan ``delta_v`` afterwards, and
    workspace reuse makes the second buffer free in steady state).
    """
    xs = np.asarray(xs)
    if out is None:
        out = np.empty_like(xs)
    steps = xs.shape[1]
    if steps == 0:
        return out
    if out is not xs:
        out[:, steps - 1] = xs[:, steps - 1]
    scratch = np.empty(xs.shape[::2], dtype=xs.dtype)  # (batch, n)
    for t in range(steps - 2, -1, -1):
        np.multiply(out[:, t + 1], decay, out=scratch)
        if out is xs:
            out[:, t] += scratch
        else:
            np.add(xs[:, t], scratch, out=out[:, t])
    return out


# -- forward ----------------------------------------------------------------

def _resolve_weight_override(layer, weight) -> np.ndarray:
    """The crossbar weight matrix of ``layer``: its own (``weight=None``)
    or a shape-checked ``(n_out, n_in)`` override."""
    if weight is None:
        return layer.weight
    weight = np.asarray(weight)
    if weight.shape != layer.weight.shape:
        raise ShapeError(
            f"{layer.name}: weight override shape {weight.shape} != "
            f"{layer.weight.shape}")
    return weight


def _per_layer_weights(network, weights) -> list:
    """One weight override per layer (``None`` = the layer's own)."""
    if weights is None:
        return [None] * len(network.layers)
    if len(weights) != len(network.layers):
        raise ShapeError(
            f"expected {len(network.layers)} weight overrides, "
            f"got {len(weights)}")
    return list(weights)


def _zero_layer_state(layer, batch: int, dtype,
                      zeros=np.zeros) -> dict[str, np.ndarray]:
    """The fused engine's all-zero carried state for one layer.

    Adaptive layers carry ``{"g", "h", "o"}``: the scanned crossbar drive
    ``g[t]`` (eq. 9 applied after the matmul), the reset filter ``h[t]``
    (eq. 8) and the last output spikes ``O[t]``.  Hard-reset layers carry
    ``{"v"}``, the post-reset membrane.  All ``(batch, n_out)``.
    """
    keys = ("g", "h", "o") if layer.neuron_kind == "adaptive" else ("v",)
    return {key: zeros((batch, layer.n_out), dtype) for key in keys}


def fused_layer_forward(layer, xs: np.ndarray, _csr=None, ws=None,
                        weight=None) -> tuple[np.ndarray, np.ndarray]:
    """Run one :class:`~repro.core.layers.SpikingLinear` over a whole sequence.

    The layer's kernel runs from a zero state; the final state is then
    written back to the layer and its neuron.

    Parameters
    ----------
    layer:
        The layer to run (state is reinitialised, as in ``layer.run``).
    xs:
        Input spikes, shape ``(batch, T, n_in)``; dtype selects precision.
    ws:
        Optional :class:`~repro.runtime.workspace.Workspace` serving the
        large buffers (identical results; the caller recycles them).
    weight:
        Optional ``(n_out, n_in)`` array substituting the layer's weight
        matrix in the crossbar product (the layer's own parameters are
        untouched) — the weight-override hook hardware-aware training and
        hardware-in-the-loop inference ride.

    Returns
    -------
    (spikes, v):
        Both ``(batch, T, n_out)`` — with the layer's input, everything a
        :class:`~repro.core.layers.LayerStepRecord` holds.  The synapse
        filter is applied after the crossbar product (the two commute),
        so the ``(batch, T, n_in)`` trace ``k`` is never built; a record
        derives it on demand.  The layer/neuron incremental state is left
        at the final step's values, matching the step-wise path.
    """
    xs = np.asarray(xs)
    if xs.ndim != 3:
        raise ShapeError(f"{layer.name}: expected (batch, T, n_in), "
                         f"got {xs.shape}")
    if xs.shape[2] != layer.n_in:
        raise ShapeError(f"{layer.name}: expected {layer.n_in} inputs, "
                         f"got {xs.shape[2]}")
    dtype = xs.dtype
    batch, steps, n_in = xs.shape
    if steps == 0:
        layer.reset_state(batch, dtype=dtype)
        empty = np.zeros((batch, 0, layer.n_out), dtype=dtype)
        return empty, empty.copy()

    st = _zero_layer_state(layer, batch, dtype)
    if layer.neuron_kind != "adaptive":
        spikes, v = _hard_reset_forward(layer, xs, st, _csr, ws, weight)
        # State parity with the step-wise path (whose reset_state zeroes
        # the unused synapse-filter buffer for hard-reset layers).
        layer.k = np.zeros((batch, n_in), dtype=dtype)
        layer.neuron.v = st["v"]
        return spikes, v

    spikes, v = _adaptive_forward(layer, xs, st, _csr, ws, weight)
    # Leave incremental state at the final step, like the step-wise path.
    # Final filter state without the full trace: k[T-1] is the
    # alpha^(T-1-t)-weighted sum of the inputs.
    decay_powers = layer.alpha ** np.arange(steps - 1, -1, -1,
                                            dtype=np.float64)
    layer.k = np.matmul(decay_powers.astype(dtype), xs)
    layer.neuron.h = st["h"]
    layer.neuron.last_output = st["o"]
    return spikes, v


def _layer_gv(layer, xs, csr, ws, weight, gain: float = 1.0):
    """The crossbar product for every step at once: ``(batch, T, n_out)``.

    ``csr`` is a ready conversion of the flattened input, or ``None`` to
    build it here.  The CSR product allocates its own result — foreign to
    the workspace, which ``release()`` tolerates.
    """
    batch, steps, n_in = xs.shape
    weight = _resolve_weight_override(layer, weight)
    w_t = _ws_empty(ws, (n_in, weight.shape[0]), xs.dtype)
    np.copyto(w_t, weight.T)
    if gain != 1.0:
        w_t *= xs.dtype.type(gain)
    flat_x = xs.reshape(batch * steps, n_in)
    if csr is None:
        csr = _spike_csr(flat_x, ws)
    gv = np.ascontiguousarray(
        spike_matmul(flat_x, w_t, csr=csr)).reshape(batch, steps, -1)
    _ws_release(ws, w_t)
    return gv


def _adaptive_forward(layer, xs, st, csr=None, ws=None, weight=None,
                      lengths=None, ends=None):
    """One chunk of an adaptive-threshold layer, advancing ``st`` in place.

    Sparse matmul -> drive scan -> threshold scan.  The synapse filter
    (eq. 9) and the crossbar product (eq. 7) are both linear, so
    ``filter(x) @ W^T == filter(x @ W^T)``.  Evaluating the matmul first
    keeps its input the *raw spikes* — a few-percent-dense 0/1 matrix that
    :func:`spike_matmul` contracts over events only — and moves the scan
    from the wide ``n_in`` axis to the narrow ``n_out`` axis.

    The drive scan is seeded with the carried ``g`` (see :func:`exp_scan`)
    and the threshold loop with the carried ``h``/``o``; a zero state is
    the fresh start of a one-shot run.  ``lengths``/``ends`` (from
    :func:`_resolve_lengths`) capture each row's state at its own final
    valid step.  Returns ``(spikes, v)``, both ``(batch, T, n_out)``.
    """
    dtype = xs.dtype
    batch, steps, _ = xs.shape
    n_out = layer.n_out
    neuron = layer.neuron
    theta = neuron.params.theta
    v_th = neuron.params.v_th
    beta = neuron.beta_r

    # ``gv`` starts life as g[t] and is rewritten to v[t] = g[t] - theta*h[t].
    gv = _layer_gv(layer, xs, csr, ws, weight)
    exp_scan(gv, layer.alpha, out=gv, carry=st["g"])
    # The carry for the next chunk is the *scanned drive* at each row's
    # final valid step — captured before the threshold loop rewrites
    # ``gv`` into membrane values in place.
    if lengths is None:
        np.copyto(st["g"], gv[:, -1])
    else:
        np.copyto(st["g"], gv[np.arange(batch), lengths - 1])

    spikes = _ws_empty(ws, (batch, steps, n_out), dtype)
    h = st["h"]
    scratch = _ws_empty(ws, (batch, n_out), dtype)
    h_final = o_final = None
    if ends is not None:
        h_final = _ws_empty(ws, (batch, n_out), dtype)
        o_final = _ws_empty(ws, (batch, n_out), dtype)
    o_prev = st["o"]
    for t in range(steps):
        # h[t] = beta*h[t-1] + O[t-1]   (eq. 8)
        h *= beta
        h += o_prev
        v_t = gv[:, t]
        np.multiply(h, theta, out=scratch)
        v_t -= scratch                    # v[t] = g[t] - theta*h[t] (eq. 6)
        o_t = spikes[:, t]
        o_t[...] = v_t >= v_th            # O[t] = U(v[t] - Vth) (eq. 10/11)
        o_prev = o_t
        if ends is not None:
            rows = ends.get(t)
            if rows is not None:
                h_final[rows] = h[rows]
                o_final[rows] = o_t[rows]
    if ends is None:
        np.copyto(st["o"], spikes[:, -1])
    else:
        # Padded rows kept evolving the shared working ``h`` past their
        # end; restore every row from its own captured snapshot.
        np.copyto(st["h"], h_final)
        np.copyto(st["o"], o_final)
        _ws_release(ws, h_final, o_final)
    _ws_release(ws, scratch)
    return spikes, gv


def _hard_reset_forward(layer, xs, st, csr=None, ws=None, weight=None,
                        lengths=None, ends=None):
    """One chunk of a hard-reset layer, advancing ``st`` (``{v}``) in place.

    Sparse matmul -> leaky-integrate/reset scan; the discretisation gain
    is folded into the weight so the scan is pure elementwise work.
    ``lengths`` is unused (the carried ``v`` is captured per row through
    ``ends``); it is accepted so both kernels share one signature.
    Returns ``(spikes, v)`` with ``v`` the pre-reset membrane.
    """
    dtype = xs.dtype
    batch, steps, _ = xs.shape
    n_out = layer.n_out
    neuron = layer.neuron
    alpha = neuron.alpha
    v_th = neuron.params.v_th

    gv = _layer_gv(layer, xs, csr, ws, weight,
                   gain=float(neuron.input_gain))
    spikes = _ws_empty(ws, (batch, steps, n_out), dtype)
    v_post = st["v"]
    scratch = _ws_empty(ws, (batch, n_out), dtype)
    v_final = None
    if ends is not None:
        v_final = _ws_empty(ws, (batch, n_out), dtype)
    for t in range(steps):
        v_t = gv[:, t]
        np.multiply(v_post, alpha, out=scratch)
        v_t += scratch                    # v_pre[t] = alpha*v_post[t-1] + j[t]
        o_t = spikes[:, t]
        o_t[...] = v_t >= v_th
        np.subtract(1.0, o_t, out=scratch)
        np.multiply(v_t, scratch, out=v_post)   # hard reset (eq. 1b)
        if ends is not None:
            rows = ends.get(t)
            if rows is not None:
                v_final[rows] = v_post[rows]
    if ends is not None:
        np.copyto(st["v"], v_final)
        _ws_release(ws, v_final)
    _ws_release(ws, scratch)
    return spikes, gv


def fused_run(network, inputs: np.ndarray, record: bool = False, ws=None,
              weights=None):
    """Fused forward pass over the whole stack; drop-in for the step loop.

    ``inputs`` must already be a validated ``(batch, T, n_input)`` array of
    the desired precision (``SpikingNetwork.run`` handles coercion).
    Returns ``(outputs, RunRecord | None)`` identical in structure to the
    step-wise path.  A record holds the per-layer ``v``/``spikes`` tensors
    the kernels materialise anyway; the synapse-filter trace ``k`` is
    never computed here (BPTT does not read it) and is derived from the
    layer's input on first read.  With a workspace and ``record=False``
    the intermediate layers' tensors are recycled as soon as the next
    layer has consumed them (the returned outputs stay checked out for
    the caller).

    Each layer runs its kernel from a zero state
    (:func:`fused_layer_forward`), so the outputs equal a stream of the
    whole sequence as one chunk.

    ``weights`` (optional, one ``(n_out, n_in)`` array per layer)
    substitutes the crossbar product's weight matrices without touching
    the network's parameters — the batch-mode twin of
    :func:`run_streaming`'s override.  Hardware-aware training runs its
    forward pass through the quantized(+noisy) weights this way; a
    following :func:`fused_backward` must be given the *same* list so the
    adjoint matmuls traverse the weights the forward actually used.
    """
    from .layers import LayerStepRecord   # local import: avoids a cycle
    from .network import RunRecord

    weights = _per_layer_weights(network, weights)
    x = inputs
    layer_records: list[LayerStepRecord] = []
    input_csrs = []
    spikes = inputs
    for layer, weight in zip(network.layers, weights):
        csr = _spike_csr(x.reshape(-1, layer.n_in), ws)
        input_csrs.append(csr)
        spikes, v = fused_layer_forward(layer, x, _csr=csr, ws=ws,
                                        weight=weight)
        if record:
            layer_records.append(LayerStepRecord.for_layer(layer, x, v,
                                                           spikes))
        elif ws is not None:
            ws.release(v)
            if x is not inputs:
                ws.release(x)
        x = spikes
    if not record:
        return spikes, None
    run_record = RunRecord(inputs=inputs, layers=layer_records)
    # Stash the CSR conversions so a following fused_backward on this
    # record reuses them for its weight-gradient contractions.
    run_record._input_csrs = input_csrs
    return spikes, run_record


# -- streaming --------------------------------------------------------------

class StreamState:
    """Carryable per-layer state for chunked (streaming) inference.

    A stream processes a conceptually endless spike sequence in chunks:
    ``outputs, state = network.run_stream(chunk, state)`` consumes one
    ``(batch, T_chunk, n_in)`` chunk and advances the state so the next
    chunk continues exactly where this one stopped.  Splitting a sequence
    at arbitrary boundaries changes no arithmetic — the recurrences are
    first-order, so everything step ``t+1`` needs from the past is a
    single ``(batch, n)`` slice per quantity (pinned bitwise against the
    one-shot :meth:`~repro.core.network.SpikingNetwork.run` in
    ``tests/unit/test_streaming.py``).

    Per adaptive layer the state holds ``{"g", "h", "o"}`` and per
    hard-reset layer ``{"v"}`` — the layout a one-shot fused run starts
    from (:func:`_zero_layer_state`) — all in the stream's dtype.

    Instances are plain data: they never reference the network (a server
    holds thousands of them per resident model) and the network's own
    layer/neuron scratch state is untouched by streaming runs.
    ``batch`` may exceed 1 — the serving micro-batcher gathers many
    single-session states into one batched state via :meth:`copy_row`.
    """

    def __init__(self, dtype, batch: int, sizes: tuple, kinds: tuple,
                 layers: list[dict[str, np.ndarray]]):
        self.dtype = np.dtype(dtype)
        self.batch = int(batch)
        self.sizes = tuple(sizes)
        self.kinds = tuple(kinds)
        self.layers = layers
        #: Per-row count of consumed time steps (bookkeeping only).
        self.steps = np.zeros(self.batch, dtype=np.int64)

    @classmethod
    def for_network(cls, network, batch: int, precision=None,
                    dtype=np.float64, ws=None) -> "StreamState":
        """A fresh (all-zero) state for ``batch`` independent streams.

        ``ws`` optionally serves the state arrays from a
        :class:`~repro.runtime.workspace.Workspace` — only for transient
        states whose owner recycles them via :meth:`release_to` (the
        serving tick's gather state); session-lived states use plain
        allocation.
        """
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        resolved = resolve_precision(precision) or np.dtype(dtype)
        zeros = np.zeros if ws is None else ws.zeros
        layers = [_zero_layer_state(layer, batch, resolved, zeros)
                  for layer in network.layers]
        return cls(resolved, batch, network.sizes,
                   tuple(layer.neuron_kind for layer in network.layers),
                   layers)

    def release_to(self, ws) -> None:
        """Hand workspace-served state arrays back to ``ws``.

        Only for states built with ``for_network(..., ws=...)`` whose
        lifetime has ended (the serving tick's batched gather state);
        the state must not be used afterwards.  Plain-allocated arrays
        are ignored by ``ws.release``, so calling this on a mixed or
        plain state is harmless.
        """
        for arrays in self.layers:
            ws.release(*arrays.values())

    def compatible_with(self, network) -> bool:
        """Whether this state was built for ``network``'s architecture."""
        return (self.sizes == tuple(network.sizes)
                and self.kinds == tuple(layer.neuron_kind
                                        for layer in network.layers))

    def copy_row(self, row: int, source: "StreamState",
                 source_row: int) -> None:
        """Copy one stream's state from ``source[source_row]`` into
        ``self[row]`` — the serving gather/scatter primitive."""
        if (source.dtype != self.dtype or source.sizes != self.sizes
                or source.kinds != self.kinds):
            raise ValueError("cannot copy state rows across dtypes, "
                             "architectures or neuron kinds")
        for mine, theirs in zip(self.layers, source.layers):
            for key, arr in mine.items():
                arr[row] = theirs[key][source_row]
        self.steps[row] = source.steps[source_row]

    def clone(self) -> "StreamState":
        """An independent deep copy (e.g. for forking a stream)."""
        twin = StreamState(
            self.dtype, self.batch, self.sizes, self.kinds,
            [{key: arr.copy() for key, arr in layer.items()}
             for layer in self.layers])
        twin.steps = self.steps.copy()
        return twin

    def __repr__(self) -> str:
        arch = "-".join(str(s) for s in self.sizes)
        return (f"StreamState({arch}, "
                f"batch={self.batch}, dtype={self.dtype.name}, "
                f"steps={self.steps.tolist()})")


def _resolve_lengths(lengths, batch: int, steps: int):
    """Validate per-row chunk lengths; returns ``(lengths, ends)`` where
    ``ends`` maps a time index to the rows whose stream finishes there.

    ``None`` lengths (or all rows spanning the full chunk) take the
    homogeneous fast path ``(None, None)``.
    """
    if lengths is None:
        return None, None
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,):
        raise ShapeError(
            f"lengths must have shape ({batch},), got {lengths.shape}")
    if steps == 0:
        raise ShapeError("lengths given for an empty chunk")
    if lengths.min() < 1 or lengths.max() > steps:
        raise ShapeError(
            f"lengths must lie in [1, {steps}], got "
            f"[{lengths.min()}, {lengths.max()}]")
    if np.all(lengths == steps):
        return None, None
    ends = {}
    for t in np.unique(lengths - 1):
        ends[int(t)] = np.flatnonzero(lengths - 1 == t)
    return lengths, ends


def run_streaming(network, chunk: np.ndarray, state: StreamState,
                  lengths=None, ws=None, weights=None) -> np.ndarray:
    """Advance a fused-engine stream by one chunk; returns output spikes.

    ``chunk`` is a validated ``(batch, T_chunk, n_in)`` array in the
    state's dtype (:meth:`~repro.core.network.SpikingNetwork.run_stream`
    handles coercion).  ``state`` is advanced in place by the same
    per-layer kernels a one-shot :func:`fused_run` starts from a zero
    state, so chunked and one-shot outputs are bitwise equal.  ``lengths``
    (optional, ``(batch,)`` ints in ``[1, T_chunk]``) marks each row's
    valid prefix in a padded chunk: rows still compute the padded tail
    (rejecting cross-row work would cost more than it saves) but their
    state is captured at their own final valid step, so a padded batched
    run leaves every stream exactly where its own data ended.  Output
    values beyond a row's length are unspecified.

    ``weights`` (optional, one ``(n_out, n_in)`` array per layer)
    substitutes the crossbar product's weight matrices without touching
    the network's own parameters.  This is the hardware-in-the-loop hook:
    :meth:`~repro.hardware.mapped_network.HardwareMappedNetwork.run_stream`
    streams the resident *software* network with the crossbars' achieved
    (quantized + noisy) weights — only the weight values differ, the
    dynamics are byte-for-byte the same code path.

    Unlike :func:`fused_run`, the network's layer/neuron scratch state is
    left untouched — many concurrent streams share one resident network.
    """
    batch, steps, _ = chunk.shape
    lengths, ends = _resolve_lengths(lengths, batch, steps)
    weights = _per_layer_weights(network, weights)
    if steps == 0:
        return np.zeros((batch, 0, network.sizes[-1]), dtype=state.dtype)
    x = chunk
    for layer, st, weight in zip(network.layers, state.layers, weights):
        kernel = (_adaptive_forward if layer.neuron_kind == "adaptive"
                  else _hard_reset_forward)
        spikes, v = kernel(layer, x, st, None, ws, weight, lengths, ends)
        _ws_release(ws, v)
        if ws is not None and x is not chunk:
            ws.release(x)
        x = spikes
    if lengths is None:
        state.steps += steps
    else:
        state.steps += lengths
    return x


# -- backward ---------------------------------------------------------------

def fused_backward(network, record, grad_outputs: np.ndarray,
                   mode: str = "exact", precision=None, ws=None,
                   need_input_grad: bool = True, weights=None):
    """Fused BPTT through a recorded run; drop-in for
    :func:`repro.core.backprop.backward`.

    The adjoint recursions of the reference implementation are split the
    same way as the forward pass: the ``delta_v`` recurrence stays a
    sequential elementwise scan over preallocated ``(batch, T, n)``
    buffers, while the weight gradient becomes one ``tensordot`` over
    ``(batch, T)`` and the input gradient one batched matmul plus a
    reverse exponential scan (exact mode's ``alpha``-carry).

    ``precision`` defaults to the record's dtype (so a float32 forward run
    gets a float32 backward); pass ``"float64"`` to upcast.  ``ws`` serves
    and recycles the adjoint buffers; the only buffer that survives the
    call is the one captured by the deferred input-gradient closure, and
    that one is deliberately allocated outside the workspace.  Training
    never reads ``GradientResult.input_grad``, so the trainer/pool path
    passes ``need_input_grad=False`` — the closure (and its captured
    plain buffer + weight snapshot) is then skipped entirely and every
    adjoint buffer returns to the workspace.

    ``weights`` substitutes the per-layer weight matrices of the adjoint
    matmuls — pass the same override list the forward
    (:func:`fused_run` ``weights=``) ran with.  The returned
    ``weight_grads`` are then gradients with respect to the *override*
    weights; the straight-through estimator of hardware-aware training
    applies them unchanged to the full-precision master weights.
    """
    if mode not in ("exact", "truncated"):
        raise ValueError(f"mode must be 'exact' or 'truncated', got {mode!r}")
    from .backprop import GradientResult   # local import: avoids a cycle

    outputs = record.outputs
    if grad_outputs.shape != outputs.shape:
        raise ShapeError(
            f"grad_outputs shape {grad_outputs.shape} != outputs {outputs.shape}"
        )
    dtype = resolve_precision(precision) or outputs.dtype
    weights = _per_layer_weights(network, weights)

    grad_spikes = np.asarray(grad_outputs, dtype=dtype)
    cached_csrs = getattr(record, "_input_csrs", None)
    weight_grads: list[np.ndarray] = [None] * len(network.layers)
    input_grad_fn = None
    for index in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[index]
        layer_record = record.layers[index]
        weight = _resolve_weight_override(layer, weights[index])
        # Reuse the forward pass's conversion unless the backward runs at
        # another precision (then the contraction rebuilds it).
        csr = None
        if cached_csrs is not None and cached_csrs[index].dtype == dtype:
            csr = cached_csrs[index]
        defer = index == 0 and need_input_grad
        if layer.neuron_kind == "adaptive":
            w_grad, grad_inputs_fn, retained = _fused_backward_adaptive(
                layer, layer_record, record.layer_input(index),
                grad_spikes, mode, dtype, csr, defer, ws, weight,
            )
        else:
            w_grad, grad_inputs_fn, retained = _fused_backward_hard_reset(
                layer, layer_record, record.layer_input(index),
                grad_spikes, dtype, csr, defer, ws, weight,
            )
        weight_grads[index] = w_grad
        if index == 0:
            if need_input_grad:
                # The network-input gradient is only consumed by
                # sensitivity analyses, never by training — defer its
                # dense matmul until someone actually reads
                # GradientResult.input_grad.
                input_grad_fn = grad_inputs_fn
            else:
                # Closure discarded unused; its buffers recycle now.
                _ws_release(ws, *retained)
            # The last consumed adjoint is dead (a deferred closure
            # captures its own plain-allocated buffers, never this one).
            _ws_release(ws, grad_spikes)
        else:
            upstream = grad_spikes
            grad_spikes = grad_inputs_fn()
            # The consumed adjoint and this layer's scan buffers are dead
            # once the next upstream gradient exists.
            _ws_release(ws, upstream, *retained)
    return GradientResult(weight_grads=weight_grads, input_grad=None,
                          input_grad_fn=input_grad_fn)


def _surrogate_eps(layer, v: np.ndarray, dtype, ws=None) -> np.ndarray:
    """``eps = U'(v - v_th)`` (eq. 14) as a ``dtype`` array from ``ws``.

    The derivative runs in place over one float64 workspace buffer holding
    ``v - v_th`` (so float32 runs keep their float64-evaluated surrogate),
    which is then cast to ``dtype`` and released.  The caller releases the
    returned array.
    """
    centred = _ws_empty(ws, v.shape, np.float64)
    np.subtract(v, layer.params.v_th, out=centred)
    layer.surrogate.derivative(centred, out=centred)
    if dtype == np.float64:
        return centred
    eps = _ws_empty(ws, v.shape, dtype)
    np.copyto(eps, centred)
    _ws_release(ws, centred)
    return eps


def _fused_backward_adaptive(layer, layer_record, layer_inputs, grad_spikes,
                             mode, dtype, csr=None, defer=False,
                             ws=None, weight=None):
    """Adaptive-layer adjoints with the matmuls hoisted out of the time loop.

    Sequential part (elementwise, reverse time)::

        delta_v[t] = (dE/dO[t] + reset_term[t]) * eps[t]
        exact:      reset_term[t] = a_h[t+1],  a_h[t] = beta*a_h[t+1] - theta*delta_v[t]
        truncated:  reset_term[t] = -theta * delta_v[t+1]

    Hoisted part — with ``e = exp_scan_reverse(delta_v, alpha)``, the
    synapse filter's adjoint.  The filter is linear, so it moves off the
    recorded trace ``k`` and onto the adjoint
    (``sum_t delta_v[t]^T k[t] == sum_s e[s]^T x[s]``), and it commutes
    with the weight product (``revscan(delta_v @ W) == e @ W``)::

        dE/dW    = sum_{b,s} e[b,s]^T x[b,s]    (sparse-aware contraction)
        dE/dx[t] = e @ W          (exact)
                 = delta_v @ W    (truncated; eq. 13 drops the alpha-carry)

    Working from the raw presynaptic spikes ``x`` instead of ``k`` lets
    :func:`spike_outer` contract over the spike nonzeros only, and is why
    a record carries no ``k`` trace (it derives one only when read).
    """
    theta = layer.params.theta
    beta = layer.neuron.beta_r

    v = np.asarray(layer_record.v, dtype=dtype)
    batch, steps, n_out = v.shape

    eps = _surrogate_eps(layer, v, dtype, ws)

    # The buffer the deferred (layer-0) closure captures must outlive this
    # call indefinitely, so it is never taken from the workspace.
    capture_dv = defer and mode == "truncated"
    if capture_dv:
        dv = np.empty((batch, steps, n_out), dtype=dtype)
    else:
        dv = _ws_empty(ws, (batch, steps, n_out), dtype)
    scratch = _ws_empty(ws, (batch, n_out), dtype)
    if mode == "exact":
        a_h = np.zeros((batch, n_out), dtype=dtype)
        for t in range(steps - 1, -1, -1):
            dv_t = dv[:, t]
            np.add(grad_spikes[:, t], a_h, out=dv_t)
            dv_t *= eps[:, t]
            a_h *= beta
            np.multiply(dv_t, theta, out=scratch)
            a_h -= scratch
    else:
        np.multiply(grad_spikes[:, -1], eps[:, -1], out=dv[:, -1])
        for t in range(steps - 2, -1, -1):
            np.multiply(dv[:, t + 1], theta, out=scratch)
            np.subtract(grad_spikes[:, t], scratch, out=dv[:, t])
            dv[:, t] *= eps[:, t]
    _ws_release(ws, scratch, eps)

    if defer and mode == "exact":
        e = exp_scan_reverse(dv, layer.alpha)          # captured: plain
    else:
        e = exp_scan_reverse(dv, layer.alpha,
                             out=_ws_empty(ws, dv.shape, dtype))
    flat_x = np.asarray(layer_inputs, dtype=dtype).reshape(
        batch * steps, layer.n_in
    )
    w_grad = spike_outer(e.reshape(batch * steps, n_out), flat_x, csr=csr)

    # The adjoint matmuls traverse the weights the forward pass used: the
    # layer's own, or the caller's override (hardware-aware training).
    weight = np.asarray(weight, dtype=dtype)
    if defer and weight is layer.weight:
        # The closure may be called after an in-place optimizer step;
        # snapshot the weights the forward pass actually used.
        weight = weight.copy()
    upstream = e if mode == "exact" else dv

    if defer:
        # Recycle whichever scan buffer the closure does not capture.
        _ws_release(ws, dv if mode == "exact" else e)

        def grad_inputs_fn() -> np.ndarray:
            return (upstream.reshape(batch * steps, n_out) @ weight).reshape(
                batch, steps, layer.n_in
            )

        return w_grad, grad_inputs_fn, ()

    def grad_inputs_fn() -> np.ndarray:
        out = _ws_empty(ws, (batch, steps, layer.n_in), dtype)
        np.matmul(upstream.reshape(batch * steps, n_out), weight,
                  out=out.reshape(batch * steps, layer.n_in))
        return out

    return w_grad, grad_inputs_fn, (dv, e)


def _fused_backward_hard_reset(layer, layer_record, layer_inputs,
                               grad_spikes, dtype, csr=None,
                               defer=False, ws=None, weight=None):
    """Hard-reset adjoints with the matmuls hoisted (reset gate detached)."""
    alpha = layer.neuron.alpha
    input_gain = getattr(layer.neuron, "input_gain", 1.0)

    v_pre = np.asarray(layer_record.v, dtype=dtype)
    spikes = np.asarray(layer_record.spikes, dtype=dtype)
    layer_inputs = np.asarray(layer_inputs, dtype=dtype)
    batch, steps, n_out = v_pre.shape

    eps = _surrogate_eps(layer, v_pre, dtype, ws)

    # delta_v[t] = dE/dO[t]*eps[t] + alpha*(1 - O[t])*delta_v[t+1]
    # (``dv`` is what a deferred closure captures, so plain-allocated then).
    if defer:
        dv = np.empty((batch, steps, n_out), dtype=dtype)
    else:
        dv = _ws_empty(ws, (batch, steps, n_out), dtype)
    scratch = _ws_empty(ws, (batch, n_out), dtype)
    np.multiply(grad_spikes[:, -1], eps[:, -1], out=dv[:, -1])
    for t in range(steps - 2, -1, -1):
        dv_t = dv[:, t]
        np.subtract(1.0, spikes[:, t], out=scratch)
        scratch *= dv[:, t + 1]
        scratch *= alpha
        np.multiply(grad_spikes[:, t], eps[:, t], out=dv_t)
        dv_t += scratch
    _ws_release(ws, scratch, eps)

    weight = np.asarray(weight, dtype=dtype)
    if defer and weight is layer.weight:
        # Snapshot: the closure may run after an in-place optimizer step.
        weight = weight.copy()
    flat_x = layer_inputs.reshape(batch * steps, layer.n_in)
    w_grad = spike_outer(dv.reshape(batch * steps, n_out), flat_x, csr=csr)
    if input_gain != 1.0:
        w_grad *= input_gain

    if defer:
        def grad_inputs_fn() -> np.ndarray:
            grad_inputs = (dv.reshape(batch * steps, n_out) @ weight
                           ).reshape(batch, steps, layer.n_in)
            if input_gain != 1.0:
                grad_inputs *= input_gain
            return grad_inputs

        return w_grad, grad_inputs_fn, ()

    def grad_inputs_fn() -> np.ndarray:
        out = _ws_empty(ws, (batch, steps, layer.n_in), dtype)
        np.matmul(dv.reshape(batch * steps, n_out), weight,
                  out=out.reshape(batch * steps, layer.n_in))
        if input_gain != 1.0:
            out *= input_gain
        return out

    return w_grad, grad_inputs_fn, (dv,)
