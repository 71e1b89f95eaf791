"""Fused, vectorized simulation engine for the core forward/backward loop.

The step-wise reference path (``SpikingNetwork.run(engine="step")``) pays
one small matmul and several Python dispatches per layer per step.  This
module reorders the loop nest instead: the network is feedforward and
layer ``l`` at step ``t`` depends only on layer ``l-1`` at steps ``<= t``
(eq. 9 couples same-step outputs, never future ones), so it runs layer 0
over the entire sequence, then layer 1, and so on.  Per layer the work
splits into

* **linear scans** — the synapse filter ``k[t] = alpha k[t-1] + x[t]``
  (eq. 9) and its adjoint, evaluated in place over a preallocated buffer
  (:func:`_scan`, :func:`_scan_reverse`) with no per-step allocation;
* **one sparse matmul** — the crossbar product ``g = k W^T`` (eq. 7) for
  *all* time steps at once, contracted over the input's spike events;
* **a thin nonlinear scan** — the spike/threshold recurrence (eqs. 6, 8,
  10), inherently sequential (the spike at ``t`` feeds the reset filter
  at ``t+1``) but elementwise on ``(batch, n_out)`` slices.

Memory layout: every engine buffer is **time-major**, ``(T, batch, n)``,
so each step of the threshold loop, the BPTT ``delta_v`` loop and the
scans touches one contiguous ``(batch, n)`` slice.  Public shapes stay
``(batch, T, n)``: outputs and record tensors are ``swapaxes`` views of
the buffers.  The caller's batch-major input is never transposed: its
events are read in their own ``(b, t)`` row order (:func:`_spike_events`)
and only the narrow crossbar product is copied into a time-major buffer;
the backward transposes the output gradient in once and layer 0's
adjoint back out once, so each weight gradient contracts over its
input's events in their memory order.

One kernel per neuron kind: :func:`_adaptive_forward` and
:func:`_hard_reset_forward` advance a carried per-layer state (the
:class:`StreamState` layout) over one chunk.  A one-shot run
(:func:`fused_run`) is a stream from a zero state followed by the
write-back of the final state to the layer; :func:`run_streaming` carries
the state between chunks.  Every crossbar product goes through one event
path (:func:`_spike_csr`): a CSR product computes each output row as an
independent sum over that row's events in index order, so a sample's
spikes and membrane values are bitwise the same alone, inside a batch,
split into chunks, or with the rows in either order.  (A dense GEMM has
no such guarantee: BLAS picks different kernels for different row
counts.)  The backward (:func:`fused_backward`) applies the same split to
the BPTT adjoints of :mod:`repro.core.backprop`: an elementwise
``delta_v`` recurrence, one sparse weight-gradient contraction over
``(T, batch)``, one batched input-gradient matmul.

Repeated input: a Fig. 8 sweep runs one fixed evaluation set once per
programming draw, so the engine remembers recent batch-major caller
inputs (:class:`_InputMemo`, at most ``_MEMO_ENTRIES`` of them in
``_MEMO_BYTES``, least recently used evicted first): each one's event
CSR and, per synapse decay, its final filter state ``layer.k``.  The
entries are checked by content on every call (:func:`_spike_csr`), so
they are right whatever the caller did to an array in between; there
is no identity key, no invalidation call and no option.  A hit skips
the event build and the ``layer.k`` contraction; a miss pays one count
of the ``!= 0`` mask the build needs anyway, and is remembered.  The
chunks of a chunked evaluation (``run_in_batches``) hit as long as all
of them fit.  Remembered events stay pinned until evicted: ~20 bytes
each in float64.  Hidden layers' events are always rebuilt.

Precision: every entry point accepts ``precision="float32"|"float64"``
(:func:`resolve_precision`); float32 halves memory traffic, at the cost of
spike-level equivalence with float64 (near-threshold membrane values may
round across ``v_th``).

Workspace reuse: every entry point also accepts an optional
``ws``/``workspace`` (:class:`repro.runtime.workspace.Workspace`) serving
the large buffers; results are identical either way.  The caller (the
:class:`~repro.core.trainer.Trainer`, a pool worker, a server) recycles
the returned tensors — releasing a ``swapaxes`` view returns the buffer
behind it.  A training step checks out only what BPTT reads: no
``(batch, T, n_in)`` synapse-filter trace (a record derives it on demand,
see :class:`~repro.core.layers.LayerStepRecord`), and the surrogate
derivative runs in place over one float64 buffer per layer.

Equivalence with the step-wise reference is tested in
``tests/unit/test_engine.py`` and, over generated architectures, in
``tests/property/test_engine_properties.py``; the speed is measured by
the repository benchmark (``perfbench/run.py``) and recorded in
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

def _scan(buf: np.ndarray, decay: float,
          carry: np.ndarray | None = None) -> np.ndarray:
    """In-place causal scan ``y[t] = decay*y[t-1] + x[t]`` along axis 0 of
    a time-major ``(T, batch, n)`` buffer: two elementwise ops on one
    contiguous ``(batch, n)`` slice per step.  ``carry`` seeds the step
    before ``buf[0]`` (see :func:`exp_scan`)."""
    scratch = np.empty(buf.shape[1:], dtype=buf.dtype)  # (batch, n)
    if carry is not None and len(buf):
        np.multiply(carry, decay, out=scratch)
        buf[0] += scratch
    for t in range(1, len(buf)):
        np.multiply(buf[t - 1], decay, out=scratch)
        buf[t] += scratch
    return buf


def _scan_reverse(buf: np.ndarray, decay: float) -> np.ndarray:
    """In-place anti-causal scan ``a[t] = x[t] + decay*a[t+1]`` along
    axis 0 of a time-major buffer — the adjoint of :func:`_scan`."""
    scratch = np.empty(buf.shape[1:], dtype=buf.dtype)  # (batch, n)
    for t in range(len(buf) - 2, -1, -1):
        np.multiply(buf[t + 1], decay, out=scratch)
        buf[t] += scratch
    return buf


def exp_scan(xs: np.ndarray, decay: float, out: np.ndarray | None = None,
             carry: np.ndarray | None = None) -> np.ndarray:
    """Causal first-order scan ``y[t] = decay*y[t-1] + x[t]`` along axis 1.

    ``xs`` has shape ``(batch, T, n)``; the engine's time-major kernel
    (:func:`_scan`) runs over a ``swapaxes`` view of ``out`` (allocated
    when omitted; it may alias ``xs``), so the values are bitwise those
    of the engine's own scans.

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
    if out is not xs:
        np.copyto(out, xs)
    _scan(out.swapaxes(0, 1), decay, carry)
    return out


def exp_scan_reverse(xs: np.ndarray, decay: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Anti-causal scan ``a[t] = x[t] + decay*a[t+1]`` along axis 1.

    The adjoint of :func:`exp_scan`, with the same ``(batch, T, n)``
    contract, kernel (:func:`_scan_reverse`) and ``out`` aliasing.
    """
    xs = np.asarray(xs)
    if out is None:
        out = np.empty_like(xs)
    if out is not xs:
        np.copyto(out, xs)
    _scan_reverse(out.swapaxes(0, 1), decay)
    return out


def _ws_empty(ws, shape, dtype) -> np.ndarray:
    """``np.empty`` routed through a workspace when one is supplied."""
    if ws is None:
        return np.empty(shape, dtype=dtype)
    return ws.empty(shape, dtype)


def _ws_release(ws, *arrays) -> None:
    if ws is not None:
        ws.release(*arrays)


def _spike_csr(flat: np.ndarray, ws=None, memo_shape=None):
    """CSR of an ``(m, n)`` spike matrix, whatever its size or density.

    ``scipy.sparse.csr_matrix(dense)`` costs as much as the GEMM it is
    meant to replace, so the index structure is built directly: one
    ``flatnonzero`` scan (indices come out sorted, i.e. canonical CSR
    order) plus a ``searchsorted`` for the row pointers.  ``ws`` serves
    the constant row-boundary scratch from its cache.  ``memo_shape``
    (the caller's input shape) routes the build through the input memo:
    one ``!= 0`` mask serves the content check and, on a miss, the
    build, whose result is remembered.
    """
    m, n = flat.shape
    # Explicit bool compare first: flatnonzero on a float array pays an
    # extra full-size temporary and runs ~3x slower.
    raveled = np.ascontiguousarray(flat).reshape(-1)
    mask = raveled != 0
    if memo_shape is not None:
        memo = _input_memo
        count = np.count_nonzero(mask)
        for slot in memo:
            if slot.holds(memo_shape, raveled, count):
                _remember(slot, memo)
                return slot.csr
    idx = np.flatnonzero(mask)
    bounds = (ws.row_bounds(m, n) if ws is not None
              else np.arange(0, (m + 1) * n, n))
    indptr = np.searchsorted(idx, bounds)
    csr = sparse.csr_matrix((raveled[idx], idx % n, indptr), shape=(m, n))
    if memo_shape is not None:
        _remember(_InputMemo(memo_shape, idx, csr), memo)
    return csr


class _InputMemo:
    """One remembered batch-major caller input, by its events: shape,
    dtype, sorted flat event indices and CSR (read-only: hits share
    them), plus ``k = (alpha, final filter state)`` once a one-shot run
    computed it (the shape fixes ``T``).  ``nbytes`` counts the events
    (20 bytes each in float64: flat index, value, column) and the
    filter state."""

    __slots__ = ("shape", "idx", "csr", "k", "nbytes")

    def __init__(self, shape, idx, csr):
        for array in (idx, csr.data, csr.indices, csr.indptr):
            array.setflags(write=False)
        self.shape, self.idx, self.csr, self.k = shape, idx, csr, None
        self.nbytes = (idx.nbytes + csr.data.nbytes + csr.indices.nbytes
                       + csr.indptr.nbytes
                       + shape[0] * shape[2] * csr.dtype.itemsize)

    def holds(self, shape, raveled: np.ndarray, count: int) -> bool:
        """Whether ``raveled`` (with ``count`` nonzeros) is this input.
        Every remembered value is nonzero, so equal counts and equal
        values at the remembered events leave no other event; only the
        sign of a zero may differ.  A NaN never compares equal: a miss."""
        return (shape == self.shape and raveled.dtype == self.csr.dtype
                and count == len(self.idx)
                and bool((raveled[self.idx] == self.csr.data).all()))


#: Bounds of the input memo.  A Fig. 8 sweep runs one fixed evaluation
#: set once per programming draw, chunked by ``run_in_batches``: the
#: chunks of one set must all fit for any of them to hit (least recently
#: used goes first, so a set over the bounds cycles through and misses).
#: 32 MB holds the ci-profile N-MNIST test split (80 x 50 x 2312, 0.71M
#: events); the entry count bounds the per-call scan over tiny inputs.
_MEMO_BYTES = 32 << 20
_MEMO_ENTRIES = 16

#: The remembered inputs, least recently used first.  Replaced whole,
#: never mutated, so a reader's snapshot stays whole under threads (a
#: lost update only loses an entry).
_input_memo: tuple = ()


def _remember(slot: _InputMemo, memo: tuple) -> None:
    """Make ``slot`` the most recent entry of the snapshot ``memo``,
    dropping the least recent ones over the bounds.  An input larger
    than the whole budget is not remembered."""
    global _input_memo
    if slot.nbytes > _MEMO_BYTES:
        return
    kept = [entry for entry in memo if entry is not slot] + [slot]
    total = sum(entry.nbytes for entry in kept)
    while total > _MEMO_BYTES or len(kept) > _MEMO_ENTRIES:
        total -= kept.pop(0).nbytes
    _input_memo = tuple(kept)


def _spike_events(xs: np.ndarray, ws=None, dtype=None):
    """CSR of a time-major ``(T, batch, n)`` spike view, rows in memory order.

    Returns ``(csr, batch_major)``: an engine buffer's rows run
    ``(t, b)``; a caller's batch-major array (seen through ``swapaxes``)
    keeps its own ``(b, t)`` order, so the wide input is never transposed,
    and goes through the input memo.  ``dtype`` casts the events (a
    backward at another precision).
    """
    batch_major = not xs.flags.c_contiguous
    rows = xs.swapaxes(0, 1) if batch_major else xs
    flat = rows.reshape(-1, xs.shape[2])
    if dtype is not None:
        flat = np.asarray(flat, dtype=dtype)
    return (_spike_csr(flat, ws, rows.shape if batch_major else None),
            batch_major)


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


def fused_layer_forward(layer, xs: np.ndarray, ws=None,
                        weight=None) -> tuple[np.ndarray, np.ndarray]:
    """Run one :class:`~repro.core.layers.SpikingLinear` over a whole sequence.

    ``xs`` is ``(batch, T, n_in)`` (its dtype selects precision).  The
    layer's kernel runs from a zero state and the final state is written
    back to the layer and its neuron, matching the step-wise path.
    ``ws`` optionally serves the large buffers (identical results; the
    caller recycles them) and ``weight`` substitutes a ``(n_out, n_in)``
    override for the layer's weight matrix in the crossbar product.

    Returns ``(spikes, v)``, both ``(batch, T, n_out)`` views of
    time-major buffers — with the layer's input, everything a
    :class:`~repro.core.layers.LayerStepRecord` holds.  The synapse filter
    is applied after the crossbar product (the two commute), so the
    ``(batch, T, n_in)`` trace ``k`` is never built.
    """
    xs = np.asarray(xs)
    if xs.ndim != 3:
        raise ShapeError(f"{layer.name}: expected (batch, T, n_in), "
                         f"got {xs.shape}")
    if xs.shape[2] != layer.n_in:
        raise ShapeError(f"{layer.name}: expected {layer.n_in} inputs, "
                         f"got {xs.shape[2]}")
    xs = xs.swapaxes(0, 1)
    spikes, v = _run_layer(layer, xs, _spike_events(xs, ws), ws, weight)
    return spikes.swapaxes(0, 1), v.swapaxes(0, 1)


def _run_layer(layer, xs, events, ws, weight):
    """One-shot run of ``layer`` over time-major ``xs`` from a zero state,
    writing the final state back; returns time-major ``(spikes, v)``."""
    dtype = xs.dtype
    steps, batch, n_in = xs.shape
    if steps == 0:
        layer.reset_state(batch, dtype=dtype)
        empty = np.zeros((0, batch, layer.n_out), dtype=dtype)
        return empty, empty.copy()

    st = _zero_layer_state(layer, batch, dtype)
    spikes, v = _layer_chunk(layer, xs, st, events, ws, weight)
    if layer.neuron_kind != "adaptive":
        # State parity with the step-wise path (whose reset_state zeroes
        # the unused synapse-filter buffer for hard-reset layers).
        layer.k = np.zeros((batch, n_in), dtype=dtype)
        layer.neuron.v = st["v"]
        return spikes, v

    # Final filter state without the full trace: k[T-1] is the
    # alpha^(T-1-t)-weighted sum of the inputs, contracted over whichever
    # axis of the input's memory is time.
    decay_powers = (layer.alpha ** np.arange(steps - 1, -1, -1,
                                             dtype=np.float64)).astype(dtype)
    if events[1]:   # the caller's batch-major input
        layer.k = _caller_filter_state(xs.swapaxes(0, 1), events[0],
                                       layer.alpha, decay_powers)
    else:
        layer.k = (decay_powers @ xs.reshape(steps, -1)).reshape(batch, n_in)
    layer.neuron.h = st["h"]
    layer.neuron.last_output = st["o"]
    return spikes, v


def _caller_filter_state(inputs, csr, alpha, decay_powers) -> np.ndarray:
    """``decay_powers @ inputs``, the final filter state of the caller's
    input, kept in the memo entry that holds its events ``csr`` and
    handed out as a copy.  (A ``-0.0`` the entry let through adds to a
    ``+0.0`` accumulator: same bits.)"""
    slot = next((entry for entry in _input_memo if entry.csr is csr), None)
    if slot is None:
        return np.matmul(decay_powers, inputs)
    entry = slot.k   # read once: another thread may replace it
    if entry is None or entry[0] != alpha:
        entry = slot.k = (alpha, np.matmul(decay_powers, inputs))
    return entry[1].copy()


def _layer_chunk(layer, xs, st, events, ws=None, weight=None,
                 lengths=None, ends=None):
    """Advance ``st`` over one time-major chunk ``xs`` of ``layer``'s input.

    The crossbar product of ``events`` (:func:`_spike_events` of ``xs``)
    for every step lands in a time-major buffer — through one copy of the
    narrow product for batch-major input — which the neuron kind's kernel
    scans in place.  Returns time-major ``(spikes, v)``.
    """
    csr, batch_major = events
    steps, batch, n_in = xs.shape
    weight = _resolve_weight_override(layer, weight)
    adaptive = layer.neuron_kind == "adaptive"
    w_t = _ws_empty(ws, (n_in, weight.shape[0]), xs.dtype)
    np.copyto(w_t, weight.T)
    # The hard-reset discretisation gain is folded into the weight so its
    # scan is pure elementwise work.
    gain = 1.0 if adaptive else float(layer.neuron.input_gain)
    if gain != 1.0:
        w_t *= xs.dtype.type(gain)
    # The CSR product allocates its own result — foreign to the
    # workspace, which ``release()`` tolerates.
    product = np.ascontiguousarray(csr @ w_t)
    _ws_release(ws, w_t)
    if batch_major:
        gv = _ws_empty(ws, (steps, batch, product.shape[1]), xs.dtype)
        np.copyto(gv, product.reshape(batch, steps, -1).swapaxes(0, 1))
    else:
        gv = product.reshape(steps, batch, -1)
    kernel = _adaptive_forward if adaptive else _hard_reset_forward
    return kernel(layer, gv, st, ws, lengths, ends)


def _adaptive_forward(layer, gv, st, ws=None, lengths=None, ends=None):
    """One chunk of an adaptive-threshold layer, advancing ``st`` in place.

    ``gv`` is the time-major crossbar product of the raw input spikes:
    the synapse filter (eq. 9) and the product (eq. 7) are both linear, so
    ``filter(x) @ W^T == filter(x @ W^T)``, which keeps the product over
    events only and moves the scan to the narrow ``n_out`` axis.  Drive
    scan -> threshold scan, both in place.

    The drive scan is seeded with the carried ``g`` (see :func:`_scan`)
    and the threshold loop with the carried ``h``/``o``; a zero state is
    the fresh start of a one-shot run.  ``lengths``/``ends`` (from
    :func:`_resolve_lengths`) capture each row's state at its own final
    valid step.  Returns ``(spikes, v)``, both ``(T, batch, n_out)``.
    """
    dtype = gv.dtype
    steps, batch, n_out = gv.shape
    neuron = layer.neuron
    theta = neuron.params.theta
    v_th = neuron.params.v_th
    beta = neuron.beta_r

    # ``gv`` starts life as g[t] and is rewritten to v[t] = g[t] - theta*h[t].
    _scan(gv, layer.alpha, carry=st["g"])
    # The carry for the next chunk is the *scanned drive* at each row's
    # final valid step — captured before the threshold loop rewrites
    # ``gv`` into membrane values in place.
    if lengths is None:
        np.copyto(st["g"], gv[-1])
    else:
        np.copyto(st["g"], gv[lengths - 1, np.arange(batch)])

    spikes = _ws_empty(ws, gv.shape, dtype)
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
        v_t = gv[t]
        np.multiply(h, theta, out=scratch)
        v_t -= scratch                    # v[t] = g[t] - theta*h[t] (eq. 6)
        o_t = spikes[t]
        o_t[...] = v_t >= v_th            # O[t] = U(v[t] - Vth) (eq. 10/11)
        o_prev = o_t
        if ends is not None:
            rows = ends.get(t)
            if rows is not None:
                h_final[rows] = h[rows]
                o_final[rows] = o_t[rows]
    if ends is None:
        np.copyto(st["o"], spikes[-1])
    else:
        # Padded rows kept evolving the shared working ``h`` past their
        # end; restore every row from its own captured snapshot.
        np.copyto(st["h"], h_final)
        np.copyto(st["o"], o_final)
        _ws_release(ws, h_final, o_final)
    _ws_release(ws, scratch)
    return spikes, gv


def _hard_reset_forward(layer, gv, st, ws=None, lengths=None, ends=None):
    """One chunk of a hard-reset layer, advancing ``st`` (``{v}``) in place.

    The leaky-integrate/reset scan rewrites ``gv`` (the time-major product
    with the input gain folded in) in place; ``lengths`` is unused (rows
    are captured through ``ends``).  ``v`` is the pre-reset membrane.
    """
    dtype = gv.dtype
    steps, batch, n_out = gv.shape
    neuron = layer.neuron
    alpha = neuron.alpha
    v_th = neuron.params.v_th

    spikes = _ws_empty(ws, gv.shape, dtype)
    v_post = st["v"]
    scratch = _ws_empty(ws, (batch, n_out), dtype)
    v_final = None
    if ends is not None:
        v_final = _ws_empty(ws, (batch, n_out), dtype)
    for t in range(steps):
        v_t = gv[t]
        np.multiply(v_post, alpha, out=scratch)
        v_t += scratch                    # v_pre[t] = alpha*v_post[t-1] + j[t]
        o_t = spikes[t]
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
    step-wise path; ``outputs`` and the record's tensors are
    ``(batch, T, n)`` views of time-major buffers.  A record holds the
    per-layer ``v``/``spikes`` the kernels materialise anyway, never the
    ``k`` trace (derived on first read).  With a workspace and
    ``record=False`` each intermediate tensor is recycled once the next
    layer has consumed it.  Each layer runs its kernel from a zero state,
    so the outputs equal a stream of the whole sequence as one chunk.

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
    x = inputs.swapaxes(0, 1)
    layer_records: list[LayerStepRecord] = []
    input_events = []
    for index, (layer, weight) in enumerate(zip(network.layers, weights)):
        events = _spike_events(x, ws)
        input_events.append(events)
        spikes, v = _run_layer(layer, x, events, ws, weight)
        if record:
            layer_input = inputs if index == 0 else layer_records[-1].spikes
            layer_records.append(LayerStepRecord.for_layer(
                layer, layer_input, v.swapaxes(0, 1), spikes.swapaxes(0, 1)))
        elif ws is not None:
            ws.release(v)
            if index > 0:
                ws.release(x)
        x = spikes
    outputs = x.swapaxes(0, 1)
    if not record:
        return outputs, None
    run_record = RunRecord(inputs=inputs, layers=layer_records)
    # Stash the CSR conversions so a following fused_backward on this
    # record reuses them for its weight-gradient contractions.
    run_record._input_events = input_events
    return outputs, run_record


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
    values beyond a row's length are unspecified.  The outputs are a
    ``(batch, T_chunk, n_out)`` view of a time-major buffer.

    ``weights`` (optional, one ``(n_out, n_in)`` array per layer)
    substitutes the crossbar product's weight matrices without touching
    the network's own parameters — the hardware-in-the-loop hook of
    :meth:`~repro.hardware.mapped_network.HardwareMappedNetwork.run_stream`
    (same code path, the crossbars' achieved weight values).  Unlike
    :func:`fused_run`, the network's layer/neuron scratch state is left
    untouched: many concurrent streams share one resident network.
    """
    batch, steps, _ = chunk.shape
    lengths, ends = _resolve_lengths(lengths, batch, steps)
    weights = _per_layer_weights(network, weights)
    if steps == 0:
        return np.zeros((batch, 0, network.sizes[-1]), dtype=state.dtype)
    x = chunk.swapaxes(0, 1)
    for index, (layer, st, weight) in enumerate(
            zip(network.layers, state.layers, weights)):
        spikes, v = _layer_chunk(layer, x, st, _spike_events(x, ws), ws,
                                 weight, lengths, ends)
        _ws_release(ws, v)
        if index > 0:
            _ws_release(ws, x)
        x = spikes
    if lengths is None:
        state.steps += steps
    else:
        state.steps += lengths
    return x.swapaxes(0, 1)


# -- backward ---------------------------------------------------------------

def fused_backward(network, record, grad_outputs: np.ndarray,
                   mode: str = "exact", precision=None, ws=None,
                   need_input_grad: bool = True, weights=None):
    """Fused BPTT through a recorded run; drop-in for
    :func:`repro.core.backprop.backward`.

    The adjoint recursions of the reference implementation are split the
    same way as the forward pass: the ``delta_v`` recurrence stays a
    sequential elementwise scan over time-major ``(T, batch, n)`` buffers
    (``grad_outputs`` is transposed in once), the weight gradient becomes
    one sparse contraction over ``(T, batch)`` (:func:`_weight_grad`) and
    the input gradient one batched matmul plus a reverse exponential scan
    (exact mode's ``alpha``-carry).

    ``precision`` defaults to the record's dtype (so a float32 forward run
    gets a float32 backward); pass ``"float64"`` to upcast.  ``ws`` serves
    and recycles the adjoint buffers; only the buffer captured by the
    deferred input-gradient closure survives the call, and it is
    allocated outside the workspace.  Training never reads
    ``GradientResult.input_grad``, so the trainer/pool path passes
    ``need_input_grad=False``: the closure is then skipped and every
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

    grad_spikes = _swap_time_batch(grad_outputs, dtype, ws)
    cached_events = getattr(record, "_input_events", None)
    weight_grads: list[np.ndarray] = [None] * len(network.layers)
    input_grad_fn = None
    for index in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[index]
        # Reuse the forward pass's conversion unless the backward runs at
        # another precision (then the contraction rebuilds it).
        events = cached_events[index] if cached_events else None
        if events is None or events[0].dtype != dtype:
            events = _spike_events(record.layer_input(index).swapaxes(0, 1),
                                   dtype=dtype)
        defer = index == 0 and need_input_grad
        kernel = (_fused_backward_adaptive if layer.neuron_kind == "adaptive"
                  else _fused_backward_hard_reset)
        w_grad, upstream, gain, retained = kernel(
            layer, record.layers[index], events, grad_spikes, mode, dtype,
            defer, ws)
        weight_grads[index] = w_grad
        grad_inputs_fn = _input_grad_fn(layer, upstream, weights[index],
                                        gain, dtype, ws, defer)
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
            consumed = grad_spikes
            grad_spikes = grad_inputs_fn()
            # The consumed adjoint and this layer's scan buffers are dead
            # once the next upstream gradient exists.
            _ws_release(ws, consumed, *retained)
    return GradientResult(weight_grads=weight_grads, input_grad=None,
                          input_grad_fn=input_grad_fn)


def _swap_time_batch(tensor: np.ndarray, dtype, ws=None) -> np.ndarray:
    """``tensor`` with its ``(batch, T)`` axes swapped, as a contiguous
    array of ``dtype`` — between the public and the time-major layout.
    Without ``ws``, a view when the memory already has that layout (the
    buffer behind a fused record's view), else a copy; with ``ws``,
    always a fresh workspace copy the caller releases."""
    if ws is None:
        return np.ascontiguousarray(tensor.swapaxes(0, 1), dtype=dtype)
    out = ws.empty(tensor.shape[1::-1] + tensor.shape[2:], dtype)
    np.copyto(out, tensor.swapaxes(0, 1))
    return out


def _weight_grad(adjoint: np.ndarray, events, ws=None) -> np.ndarray:
    """``sum_{t,b} adjoint[t,b]^T x[t,b]`` over the layer input's events.

    ``adjoint`` is time-major; ``events`` is :func:`_spike_events` of the
    layer input.  A batch-major input (the network input) is contracted
    in its own ``(b, t)`` row order, so the adjoint is copied out to that
    order once rather than transposing the wide input.
    """
    csr, batch_major = events
    n_out = adjoint.shape[2]
    if not batch_major:
        return spike_outer(adjoint.reshape(-1, n_out), None, csr=csr)
    rows = _swap_time_batch(adjoint, adjoint.dtype, ws)   # (batch, T, n_out)
    grad = spike_outer(rows.reshape(-1, n_out), None, csr=csr)
    _ws_release(ws, rows)
    return grad


def _input_grad_fn(layer, upstream, weight, gain, dtype, ws, defer):
    """The input-gradient closure ``gain * upstream @ W`` of one layer.

    ``upstream`` is the time-major adjoint the input gradient is read
    from.  The matmul traverses the weights the forward pass used: the
    layer's own or the caller's override.  The closure returns a
    time-major ``ws`` buffer for the next layer's backward.  A ``defer``
    closure (layer 0's, behind ``GradientResult.input_grad``) may run
    after an in-place optimizer step, so it reads a weight snapshot and
    returns the public ``(batch, T, n_in)`` view of a plain array.
    """
    weight = np.asarray(_resolve_weight_override(layer, weight), dtype=dtype)
    if defer:
        ws = None
        if weight is layer.weight:
            weight = weight.copy()
    steps, batch, n_out = upstream.shape

    def grad_inputs_fn() -> np.ndarray:
        out = _ws_empty(ws, (steps, batch, layer.n_in), dtype)
        np.matmul(upstream.reshape(steps * batch, n_out), weight,
                  out=out.reshape(steps * batch, layer.n_in))
        if gain != 1.0:
            out *= gain
        return out.swapaxes(0, 1) if defer else out

    return grad_inputs_fn


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


def _fused_backward_adaptive(layer, layer_record, events, grad_spikes,
                             mode, dtype, defer=False, ws=None):
    """Adaptive-layer adjoints with the matmuls hoisted out of the time loop.

    Sequential part (elementwise, reverse time)::

        delta_v[t] = (dE/dO[t] + reset_term[t]) * eps[t]
        exact:      reset_term[t] = a_h[t+1],  a_h[t] = beta*a_h[t+1] - theta*delta_v[t]
        truncated:  reset_term[t] = -theta * delta_v[t+1]

    Hoisted part — with ``e = exp_scan_reverse(delta_v, alpha)``, the
    synapse filter's adjoint.  The filter is linear, so it moves off the
    recorded trace ``k`` onto the adjoint
    (``sum_t delta_v[t]^T k[t] == sum_s e[s]^T x[s]``) and commutes with
    the weight product (``revscan(delta_v @ W) == e @ W``)::

        dE/dW    = sum_{s,b} e[s,b]^T x[s,b]    (over the spike events)
        dE/dx[t] = e @ W          (exact)
                 = delta_v @ W    (truncated; eq. 13 drops the alpha-carry)

    which is why a record carries no ``k`` trace.  Returns
    ``(w_grad, upstream, gain, retained)``: the input gradient's adjoint
    and gain, and the workspace buffers to release after it is read.
    """
    theta = layer.params.theta
    beta = layer.neuron.beta_r

    v = _swap_time_batch(layer_record.v, dtype)
    steps, batch, n_out = v.shape
    eps = _surrogate_eps(layer, v, dtype, ws)
    # The buffer a deferred (layer-0) closure captures must outlive this
    # call indefinitely, so it is never taken from the workspace.
    dv = np.empty(v.shape, dtype) if defer else _ws_empty(ws, v.shape, dtype)
    scratch = _ws_empty(ws, (batch, n_out), dtype)
    if mode == "exact":
        a_h = np.zeros((batch, n_out), dtype=dtype)
        for t in range(steps - 1, -1, -1):
            dv_t = dv[t]
            np.add(grad_spikes[t], a_h, out=dv_t)
            dv_t *= eps[t]
            a_h *= beta
            np.multiply(dv_t, theta, out=scratch)
            a_h -= scratch
    else:
        np.multiply(grad_spikes[-1], eps[-1], out=dv[-1])
        for t in range(steps - 2, -1, -1):
            np.multiply(dv[t + 1], theta, out=scratch)
            np.subtract(grad_spikes[t], scratch, out=dv[t])
            dv[t] *= eps[t]
    _ws_release(ws, scratch, eps)

    if mode == "exact":
        # Only the scanned adjoint is read from here on: scan in place.
        e = _scan_reverse(dv, layer.alpha)
        w_grad = _weight_grad(e, events, ws)
        return w_grad, e, 1.0, () if defer else (dv,)
    # Truncated mode still reads the pre-scan ``delta_v`` upstream.
    e = _ws_empty(ws, dv.shape, dtype)
    np.copyto(e, dv)
    w_grad = _weight_grad(_scan_reverse(e, layer.alpha), events, ws)
    if defer:
        _ws_release(ws, e)
        return w_grad, dv, 1.0, ()
    return w_grad, dv, 1.0, (dv, e)


def _fused_backward_hard_reset(layer, layer_record, events, grad_spikes,
                               mode, dtype, defer=False, ws=None):
    """Hard-reset adjoints with the matmuls hoisted (reset gate detached);
    ``mode`` is unused (one rule for both).  Returns what
    :func:`_fused_backward_adaptive` returns."""
    alpha = layer.neuron.alpha
    input_gain = getattr(layer.neuron, "input_gain", 1.0)

    v_pre = _swap_time_batch(layer_record.v, dtype)
    spikes = _swap_time_batch(layer_record.spikes, dtype)
    steps, batch, n_out = v_pre.shape
    eps = _surrogate_eps(layer, v_pre, dtype, ws)

    # delta_v[t] = dE/dO[t]*eps[t] + alpha*(1 - O[t])*delta_v[t+1]
    # (``dv`` is what a deferred closure captures, so plain-allocated then).
    dv = (np.empty(v_pre.shape, dtype) if defer
          else _ws_empty(ws, v_pre.shape, dtype))
    scratch = _ws_empty(ws, (batch, n_out), dtype)
    np.multiply(grad_spikes[-1], eps[-1], out=dv[-1])
    for t in range(steps - 2, -1, -1):
        dv_t = dv[t]
        np.subtract(1.0, spikes[t], out=scratch)
        scratch *= dv[t + 1]
        scratch *= alpha
        np.multiply(grad_spikes[t], eps[t], out=dv_t)
        dv_t += scratch
    _ws_release(ws, scratch, eps)

    w_grad = _weight_grad(dv, events, ws)
    if input_gain != 1.0:
        w_grad *= input_gain
    return w_grad, dv, input_gain, () if defer else (dv,)
