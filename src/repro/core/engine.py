"""Fused, vectorized simulation engine for the core forward/backward loop.

The reference oracle (the autograd tape's unroll,
:func:`repro.autograd.reference.unroll`, which
``SpikingNetwork.run(engine="step")`` runs) steps every layer once per
time step, paying one small matmul and several Python dispatches each.
This module reorders the loop nest instead: the network is feedforward and
layer ``l`` at step ``t`` depends only on layer ``l-1`` at steps ``<= t``
(eq. 9 couples same-step outputs, never future ones), so it runs layer 0
over the entire sequence, then layer 1, and so on.  Per layer the work
splits into

* **linear scans** — the synapse filter ``k[t] = alpha k[t-1] + x[t]``
  (eq. 9) and its adjoint, evaluated in place over a preallocated buffer
  by the one pair of scans in :mod:`repro.core.filters` (``_scan``,
  ``_scan_reverse``) with no per-step allocation;
* **one sparse matmul** — the crossbar product ``g = k W^T`` (eq. 7) for
  *all* time steps at once, contracted over the input's spike events;
* **a thin nonlinear scan** — the spike/threshold recurrence (eqs. 6, 8,
  10), inherently sequential (the spike at ``t`` feeds the reset filter
  at ``t+1``) but elementwise on ``(batch, n_out)`` slices.

Memory layout: one row order.  Every engine buffer and every event list
is **time-major**, ``(T, batch, n)``, so each step of the threshold loop,
the BPTT ``delta_v`` loop and the scans touches one contiguous
``(batch, n)`` slice.  Public shapes stay ``(batch, T, n)``: outputs and
record tensors are ``swapaxes`` views of the buffers.  The caller's
batch-major input is never transposed: a mask of its own memory is
copied time-major and its events are listed in ``(t, b)`` row order
(:func:`_spike_events`); the backward transposes the output gradient in
once, so each weight gradient contracts over its input's events as the
adjoint lies.

One kernel per neuron kind: :func:`_adaptive_forward` and
:func:`_hard_reset_forward` advance a carried per-layer state (the
:class:`StreamState` layout) over one chunk, and one layer loop
(:func:`_advance`) runs them up the stack.  A forward run is a pure
function of weights, input and carried state: a one-shot run
(:func:`fused_run`) is a stream from a zero state, :func:`run_streaming`
carries the state between chunks, and neither writes to a layer or
neuron.  Every crossbar product runs over the input's
spike events (:class:`_Events`, built by :func:`_spike_csr`): each output
row is an independent sum over that row's events in index order, so a
sample's spikes and membrane values are bitwise the same alone, inside a
batch, split into chunks, or with the rows in either order.  (A dense
GEMM has no such guarantee: BLAS picks different kernels for different
row counts.)  Events pass between layers from the threshold comparison:
each kernel writes ``v >= v_th`` into a boolean buffer, copies its float
spikes from it and returns it, and the next layer's events are one
``nonzero`` of that mask with unit values (:func:`_mask_events`), never
a re-scan of the float train.  The backward (:func:`fused_backward`)
applies the same split to the BPTT adjoints derived in
:mod:`repro.core.backprop`: an elementwise ``delta_v`` recurrence, one
sparse weight-gradient contraction over ``(T, batch)``, one batched
input-gradient matmul.

Repeated input: a Fig. 8 sweep runs one fixed evaluation set once per
programming draw, so one-shot runs remember recent batch-major caller
inputs' events, checked by content in the caller's memory order on
every call (:class:`_InputMemo`).
Stream chunks (new on every call) and hidden layers' events are always
built afresh.

Precision: every entry point accepts ``precision="float32"|"float64"``
(:func:`resolve_precision`); float32 halves memory traffic, at the cost of
spike-level equivalence with float64 (near-threshold membrane values may
round across ``v_th``).

Buffer reuse: every large buffer, crossbar products included, is
checked out of the calling thread's arena
(:func:`repro.core.workspace.arena`), the one owner of engine buffers.
Intermediates go back as soon as the next layer has consumed them;
outputs and record tensors stay lent to the caller, weakly: a caller
that drops them frees them, and a hot loop (a training step, a server
tick, a pool worker) releases them so its next call reuses the memory
(releasing a ``swapaxes`` view returns the buffer behind it).

Equivalence with the tape is tested in
``tests/unit/test_engine.py`` and ``tests/property/test_engine_properties.py``;
the speed is measured by ``perfbench/run.py`` (``docs/performance.md``).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from ..common.errors import ShapeError
from .filters import _scan, _scan_reverse
from .workspace import arena

__all__ = [
    "PRECISIONS",
    "resolve_precision",
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


class _Events:
    """The spike events of an ``(m, n)`` matrix in CSR form: ``data``,
    ``indices`` (columns) and ``indptr`` (row bounds), rows in order.
    Its products run the kernels inside scipy's ``csr_matrix @ w`` and
    ``csr_matrix.T @ dv`` (``csr_matvecs``, ``csc_matvecs``) on the same
    arrays into a zeroed buffer: scipy's bits, with no matrix object
    built per call, into a zeroed buffer from the thread's arena."""

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(self, data, indices, indptr, shape):
        self.data, self.indices, self.indptr = data, indices, indptr
        self.shape = shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def matmul(self, w: np.ndarray) -> np.ndarray:
        """``x @ w`` for a dense ``(n, k)`` ``w``."""
        return self._product(_sparsetools.csr_matvecs, *self.shape, w)

    def t_matmul(self, dv: np.ndarray) -> np.ndarray:
        """``x.T @ dv`` (a weight gradient), as :meth:`matmul`."""
        return self._product(_sparsetools.csc_matvecs, *self.shape[::-1], dv)

    def _product(self, kernel, rows, cols, dense):
        # The kernels index raw memory: check the shape, fix the layout.
        if dense.ndim != 2 or dense.shape[0] != cols:
            raise ShapeError(f"cannot multiply events of shape {self.shape} "
                             f"with an operand of shape {dense.shape}")
        dense = np.ascontiguousarray(dense, dtype=self.dtype)
        out = arena().zeros((rows, dense.shape[1]), self.dtype)
        kernel(rows, cols, dense.shape[1], self.indptr, self.indices,
               self.data, dense.reshape(-1), out.reshape(-1))
        return out


def _csr(idx, data, columns, m: int, n: int) -> _Events:
    """:class:`_Events` from sorted flat event indices ``idx`` into ``m``
    rows of width ``n``: the row pointers are one ``searchsorted`` of the
    rows' first flat indices."""
    bounds = np.arange(0, (m + 1) * n, n)
    return _Events(data, columns, idx.searchsorted(bounds), (m, n))


def _spike_csr(flat: np.ndarray) -> _Events:
    """The :class:`_Events` of an ``(m, n)`` spike matrix, whatever its
    size or density: one ``nonzero`` scan (indices come out sorted,
    i.e. canonical CSR order) plus a ``searchsorted`` for the row
    pointers (``scipy.sparse.csr_matrix(dense)`` costs as much as the
    GEMM it is meant to replace).
    """
    m, n = flat.shape
    # Explicit bool compare first: nonzero on a float array pays an
    # extra full-size temporary and runs ~3x slower.
    raveled = np.ascontiguousarray(flat).reshape(-1)
    buffers = arena()
    mask = buffers.empty(raveled.shape, np.bool_)
    np.not_equal(raveled, 0, out=mask)
    idx = mask.nonzero()[0]   # the method: no Python-level wrapper
    buffers.release(mask)
    return _csr(idx, raveled[idx], idx % n, m, n)


def _mask_events(mask: np.ndarray, dtype) -> _Events:
    """The :class:`_Events` of a time-major ``(T, batch, n)`` spike train
    from the boolean threshold comparison a kernel returned: one
    ``nonzero`` of the bools and unit values, the arrays
    :func:`_spike_csr` builds from the float train (spikes are ``1.0``)."""
    steps, batch, n = mask.shape
    idx = mask.reshape(-1).nonzero()[0]
    return _csr(idx, np.ones(len(idx), dtype), idx % n, steps * batch, n)


class _InputMemo:
    """One remembered batch-major caller input, by its events: shape,
    dtype, each event's flat index into the caller's memory (in the
    events' time-major order) and CSR (read-only: hits share them).
    ``nbytes`` counts the events (24 bytes each in float64: flat index,
    value, column) and the row pointers."""

    __slots__ = ("shape", "idx", "csr", "nbytes")

    def __init__(self, shape, idx, csr):
        for array in (idx, csr.data, csr.indices, csr.indptr):
            array.setflags(write=False)
        self.shape, self.idx, self.csr = shape, idx, csr
        self.nbytes = (idx.nbytes + csr.data.nbytes + csr.indices.nbytes
                       + csr.indptr.nbytes)

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


def _spike_events(xs: np.ndarray, dtype=None, remember=True):
    """:class:`_Events` of a time-major ``(T, batch, n)`` spike view, rows
    in ``(t, b)`` order.  An engine buffer is read as it lies.  A caller's
    batch-major array (seen through ``swapaxes``) is masked in its own
    memory order, for the input memo's check unless ``remember`` is off
    (a stream chunk); a miss copies the bool mask time-major and reads
    each event at its caller-memory index, which the memo keeps.
    ``dtype`` casts the events (a backward at another precision)."""
    if dtype is not None:
        xs = np.asarray(xs, dtype=dtype)
    steps, batch, n = xs.shape
    if xs.flags.c_contiguous:
        return _spike_csr(xs.reshape(-1, n))
    shape = (batch, steps, n)
    raveled = np.ascontiguousarray(xs.swapaxes(0, 1)).reshape(-1)
    # A hit checks out both masks too, so hits and misses reuse one set.
    buffers = arena()
    mask = buffers.empty(shape, np.bool_)
    rows = buffers.empty((steps, batch, n), np.bool_)
    np.not_equal(raveled.reshape(shape), 0, out=mask)
    if remember:
        memo = _input_memo
        count = np.count_nonzero(mask)
        for slot in memo:
            if slot.holds(shape, raveled, count):
                buffers.release(mask, rows)
                _remember(slot, memo)
                return slot.csr
    np.copyto(rows, mask.swapaxes(0, 1))
    idx = rows.reshape(-1).nonzero()[0]
    buffers.release(mask, rows)
    # Flat time-major index (t*batch + b)*n + c -> caller's (b*T + t)*n + c.
    row, columns = np.divmod(idx, n)
    source = (np.arange(batch) * steps + np.arange(steps)[:, None]).ravel()
    source = source[row] * n + columns
    csr = _csr(idx, raveled[source], columns, steps * batch, n)
    if remember:
        _remember(_InputMemo(shape, source, csr), memo)
    return csr


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


def _zero_layer_state(layer, batch: int, dtype) -> dict[str, np.ndarray]:
    """The fused engine's all-zero carried state for one layer.

    Adaptive layers carry ``{"g", "h", "o"}``: the scanned crossbar drive
    ``g[t]`` (eq. 9 applied after the matmul), the reset filter ``h[t]``
    (eq. 8) and the last output spikes ``O[t]``.  Hard-reset layers carry
    ``{"v"}``, the post-reset membrane.  All ``(batch, n_out)``.
    """
    keys = ("g", "h", "o") if layer.neuron_kind == "adaptive" else ("v",)
    return {key: np.zeros((batch, layer.n_out), dtype) for key in keys}


def _layer_chunk(layer, xs, st, events, weight=None, lengths=None,
                 ends=None):
    """Advance ``st`` over one time-major chunk ``xs`` of ``layer``'s input.

    The crossbar product of ``events`` (:func:`_spike_events` of ``xs``,
    time-major rows) for every step is the time-major buffer the neuron
    kind's kernel scans in place.  Returns time-major ``(spikes, v,
    mask)``, ``mask`` the boolean ``v >= v_th`` the spikes were copied
    from (the next layer's events, :func:`_mask_events`).
    """
    steps, batch, _ = xs.shape
    weight = _resolve_weight_override(layer, weight)
    adaptive = layer.neuron_kind == "adaptive"
    # The product reads the crossbar layout (n_in, n_out): the ``.T``
    # view of such an array in the run's dtype is read in place, any
    # other weight is copied once; the hard-reset gain is folded into a
    # scaled copy so its scan is pure elementwise work.
    w_t = np.ascontiguousarray(weight.T, dtype=xs.dtype)
    gain = 1.0 if adaptive else float(layer.neuron.input_gain)
    if gain != 1.0:
        w_t = w_t * xs.dtype.type(gain)
    gv = events.matmul(w_t).reshape(steps, batch, -1)
    kernel = _adaptive_forward if adaptive else _hard_reset_forward
    return kernel(layer, gv, st, lengths, ends)


def _adaptive_forward(layer, gv, st, lengths=None, ends=None):
    """One chunk of an adaptive-threshold layer, advancing ``st`` in place.

    ``gv`` is the time-major crossbar product of the raw input spikes:
    the synapse filter (eq. 9) and the product (eq. 7) are both linear, so
    ``filter(x) @ W^T == filter(x @ W^T)``, which keeps the product over
    events only and moves the scan to the narrow ``n_out`` axis.  Drive
    scan -> threshold scan, both in place.

    The drive scan is seeded with the carried ``g`` (see ``filters._scan``)
    and the threshold loop with the carried ``h``/``o``; a zero state is
    the fresh start of a one-shot run.  ``lengths``/``ends`` (from
    :func:`_resolve_lengths`) capture each row's state at its own final
    valid step.  Returns ``(spikes, v, mask)``, all ``(T, batch, n_out)``:
    ``mask`` holds ``v >= v_th`` as bools, the spikes' source.
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

    buffers = arena()
    spikes = buffers.empty(gv.shape, dtype)
    mask = buffers.empty(gv.shape, np.bool_)
    h = st["h"]
    scratch = buffers.empty((batch, n_out), dtype)
    h_final = o_final = None
    if ends is not None:
        h_final = buffers.empty((batch, n_out), dtype)
        o_final = buffers.empty((batch, n_out), dtype)
    o_prev = st["o"]
    for t in range(steps):
        # h[t] = beta*h[t-1] + O[t-1]   (eq. 8)
        h *= beta
        h += o_prev
        v_t = gv[t]
        np.multiply(h, theta, out=scratch)
        v_t -= scratch                    # v[t] = g[t] - theta*h[t] (eq. 6)
        o_t, m_t = spikes[t], mask[t]
        np.greater_equal(v_t, v_th, out=m_t)   # O[t] = U(v[t] - Vth)
        o_t[...] = m_t                         # (eq. 10/11)
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
    buffers.release(scratch, h_final, o_final)
    return spikes, gv, mask


def _hard_reset_forward(layer, gv, st, lengths=None, ends=None):
    """One chunk of a hard-reset layer, advancing ``st`` (``{v}``) in place.

    The leaky-integrate/reset scan rewrites ``gv`` (the time-major product
    with the input gain folded in) in place; ``lengths`` is unused (rows
    are captured through ``ends``).  ``v`` is the pre-reset membrane.
    Returns ``(spikes, v, mask)`` as :func:`_adaptive_forward` does.
    """
    dtype = gv.dtype
    steps, batch, n_out = gv.shape
    neuron = layer.neuron
    alpha = neuron.alpha
    v_th = neuron.params.v_th

    buffers = arena()
    spikes = buffers.empty(gv.shape, dtype)
    mask = buffers.empty(gv.shape, np.bool_)
    v_post = st["v"]
    scratch = buffers.empty((batch, n_out), dtype)
    v_final = None
    if ends is not None:
        v_final = buffers.empty((batch, n_out), dtype)
    for t in range(steps):
        v_t = gv[t]
        np.multiply(v_post, alpha, out=scratch)
        v_t += scratch                    # v_pre[t] = alpha*v_post[t-1] + j[t]
        o_t, m_t = spikes[t], mask[t]
        np.greater_equal(v_t, v_th, out=m_t)
        o_t[...] = m_t
        np.subtract(1.0, o_t, out=scratch)
        np.multiply(v_t, scratch, out=v_post)   # hard reset (eq. 1b)
        if ends is not None:
            rows = ends.get(t)
            if rows is not None:
                v_final[rows] = v_post[rows]
    if ends is not None:
        np.copyto(st["v"], v_final)
    buffers.release(scratch, v_final)
    return spikes, gv, mask


def _advance(network, x, events, states, weights, record=False,
             lengths=None, ends=None):
    """Advance every layer's carried state over the time-major input ``x``.

    The one layer loop of :func:`fused_run` (zero states) and
    :func:`run_streaming` (a stream's states).  ``events`` are ``x``'s
    (:func:`_spike_events`); each higher layer's are built from the
    threshold mask of the layer below (:func:`_mask_events`).  ``states``
    (one :func:`_zero_layer_state` dict per layer) advance in place,
    ``lengths``/``ends`` as in :func:`_adaptive_forward`.  Returns the
    time-major output spikes and, with ``record``, per layer its input
    events and time-major ``(v, spikes)``; without, each intermediate
    buffer goes back to the thread's arena once the next layer has
    consumed it.  An empty input (no steps or no rows) advances nothing:
    every layer's outputs are empty.
    """
    steps, batch, _ = x.shape
    last = len(network.layers) - 1
    buffers = arena()
    recorded = []
    for index, (layer, st, weight) in enumerate(
            zip(network.layers, states, weights)):
        if steps and batch:
            spikes, v, mask = _layer_chunk(layer, x, st, events, weight,
                                           lengths, ends)
        else:
            spikes = np.zeros((steps, batch, layer.n_out), x.dtype)
            v, mask = spikes.copy(), spikes.astype(np.bool_)
        if record:
            recorded.append((events, v, spikes))
        if index < last:
            events = _mask_events(mask, spikes.dtype)
        buffers.release(mask)
        if not record:
            buffers.release(v)
            if index > 0:
                buffers.release(x)
        x = spikes
    return x, recorded


def fused_run(network, inputs: np.ndarray, record: bool = False,
              weights=None):
    """Fused forward pass over the whole stack.

    ``inputs`` must already be a validated ``(batch, T, n_input)`` array of
    the desired precision (``SpikingNetwork.run`` handles coercion).
    Returns ``(outputs, RunRecord | None)``; ``outputs`` and the record's
    tensors are ``(batch, T, n)`` views of time-major buffers lent by the
    thread's arena.  A record holds the per-layer ``v``/``spikes`` the
    kernels materialise anyway, never the ``k`` trace (derived on first
    read).  With ``record=False`` each intermediate tensor is recycled
    once the next layer has consumed it.
    Every layer starts from a zero state, so the outputs equal a stream
    of the whole sequence as one chunk (the same loop, :func:`_advance`);
    the final state is dropped.

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
    states = [_zero_layer_state(layer, inputs.shape[0], inputs.dtype)
              for layer in network.layers]
    x, recorded = _advance(network, x, _spike_events(x), states, weights,
                           record)
    outputs = x.swapaxes(0, 1)
    if not record:
        return outputs, None
    layer_records = []
    layer_input = inputs
    for layer, (_, v, spikes) in zip(network.layers, recorded):
        spikes = spikes.swapaxes(0, 1)
        layer_records.append(LayerStepRecord.for_layer(
            layer, layer_input, v.swapaxes(0, 1), spikes))
        layer_input = spikes
    run_record = RunRecord(inputs=inputs, layers=layer_records)
    # Stash the CSR conversions so a following fused_backward on this
    # record reuses them for its weight-gradient contractions.
    run_record._input_events = [events for events, _, _ in recorded]
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
    holds one per resident model, a row per session), and no run writes
    state to the network.
    ``batch`` may exceed 1 — a server's tick copies its sessions' rows
    into one batched state with :meth:`gather` and back with
    :meth:`scatter`.
    """

    def __init__(self, dtype, batch: int, sizes: tuple, kinds: tuple,
                 layers: list[dict[str, np.ndarray]], steps=None):
        self.dtype = np.dtype(dtype)
        self.batch = int(batch)
        self.sizes = tuple(sizes)
        self.kinds = tuple(kinds)
        self.layers = layers
        #: Per-row count of consumed time steps (bookkeeping only).
        self.steps = (np.zeros(self.batch, dtype=np.int64) if steps is None
                      else steps)

    @classmethod
    def for_network(cls, network, batch: int,
                    precision=None) -> "StreamState":
        """A fresh (all-zero) state for ``batch`` independent streams in
        ``precision`` (a name or dtype; default float64)."""
        if batch <= 0:
            raise ValueError(f"batch must be positive, got {batch}")
        resolved = resolve_precision(precision) or np.dtype(np.float64)
        layers = [_zero_layer_state(layer, batch, resolved)
                  for layer in network.layers]
        return cls(resolved, batch, network.sizes,
                   tuple(layer.neuron_kind for layer in network.layers),
                   layers)

    def compatible_with(self, network) -> bool:
        """Whether this state was built for ``network``'s architecture."""
        return (self.sizes == tuple(network.sizes)
                and self.kinds == tuple(layer.neuron_kind
                                        for layer in network.layers))

    def gather(self, rows) -> "StreamState":
        """Streams ``rows`` of this state, in that order, as one new
        batched state: one ``ndarray.take`` per array."""
        rows = np.asarray(rows, dtype=np.intp)
        layers = [{key: arr.take(rows, axis=0)
                   for key, arr in layer.items()} for layer in self.layers]
        return StreamState(self.dtype, len(rows), self.sizes, self.kinds,
                           layers, self.steps.take(rows))

    def scatter(self, rows, source: "StreamState") -> None:
        """Write ``source``'s streams to rows ``rows`` of this state, one
        indexed assignment per array — the inverse of :meth:`gather`."""
        if (source.dtype != self.dtype or source.sizes != self.sizes
                or source.kinds != self.kinds):
            raise ValueError("cannot copy state rows across dtypes, "
                             "architectures or neuron kinds")
        for mine, theirs in zip(self.layers, source.layers):
            for key, arr in mine.items():
                arr[rows] = theirs[key]
        self.steps[rows] = source.steps

    def double(self) -> None:
        """Double the number of streams in place; the new rows are zero."""
        self.layers = [{key: np.concatenate((arr, np.zeros_like(arr)))
                        for key, arr in layer.items()} for layer in self.layers]
        self.steps = np.concatenate((self.steps, np.zeros_like(self.steps)))
        self.batch *= 2

    def clone(self) -> "StreamState":
        """An independent deep copy (e.g. for forking a stream)."""
        return self.gather(np.arange(self.batch))

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
                  lengths=None, weights=None) -> np.ndarray:
    """Advance a fused-engine stream by one chunk; returns output spikes.

    ``chunk`` is a validated ``(batch, T_chunk, n_in)`` array in the
    state's dtype (:meth:`~repro.core.network.SpikingNetwork.run_stream`
    handles coercion).  ``state`` is advanced in place by the layer loop
    a one-shot :func:`fused_run` runs from a zero state
    (:func:`_advance`), so chunked and one-shot outputs are bitwise
    equal.  ``lengths``
    (optional, ``(batch,)`` ints in ``[1, T_chunk]``) marks each row's
    valid prefix in a padded chunk: rows still compute the padded tail
    (rejecting cross-row work would cost more than it saves) but their
    state is captured at their own final valid step, so a padded batched
    run leaves every stream exactly where its own data ended.  Output
    values beyond a row's length are unspecified.  The outputs are a
    ``(batch, T_chunk, n_out)`` view of a time-major buffer lent by the
    thread's arena.

    ``weights`` (optional, one ``(n_out, n_in)`` array per layer)
    substitutes the crossbar product's weight matrices without touching
    the network's own parameters — the hardware-in-the-loop hook of
    :meth:`~repro.hardware.mapped_network.HardwareMappedNetwork.run_stream`
    (same code path, the crossbars' achieved weight values).  The stream's
    memory is ``state`` alone, so many concurrent streams share one
    resident network.
    """
    batch, steps, _ = chunk.shape
    lengths, ends = _resolve_lengths(lengths, batch, steps)
    weights = _per_layer_weights(network, weights)
    x = chunk.swapaxes(0, 1)
    x, _ = _advance(network, x, _spike_events(x, remember=False),
                    state.layers, weights, lengths=lengths, ends=ends)
    state.steps += steps if lengths is None else lengths
    return x.swapaxes(0, 1)


# -- backward ---------------------------------------------------------------

def fused_backward(network, record, grad_outputs: np.ndarray,
                   mode: str = "exact", precision=None,
                   need_input_grad: bool = True, weights=None):
    """Fused BPTT through a recorded run (what
    :func:`repro.core.backprop.backward` runs).

    The adjoint recursions derived in :mod:`repro.core.backprop` are split
    the same way as the forward pass: the ``delta_v`` recurrence stays a
    sequential elementwise scan over time-major ``(T, batch, n)`` buffers
    (``grad_outputs`` is transposed in once), the weight gradient becomes
    one sparse contraction over ``(T, batch)`` (:func:`_weight_grad`) and
    the input gradient one batched matmul plus a reverse exponential scan
    (exact mode's ``alpha``-carry).

    ``precision`` defaults to the record's dtype (so a float32 forward run
    gets a float32 backward); pass ``"float64"`` to upcast.  The adjoint
    buffers come from the thread's arena and go back to it; only the
    buffer captured by the deferred input-gradient closure survives the
    call, and it is allocated outside the arena.  Training never reads
    ``GradientResult.input_grad``, so the trainer/pool path passes
    ``need_input_grad=False``: the closure is then skipped and every
    adjoint buffer returns to the arena.

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

    buffers = arena()
    # Time-major, in an arena copy the loop below releases once consumed.
    grad_spikes = buffers.empty(grad_outputs.shape[1::-1]
                                + grad_outputs.shape[2:], dtype)
    np.copyto(grad_spikes, grad_outputs.swapaxes(0, 1))
    cached_events = getattr(record, "_input_events", None)
    weight_grads: list[np.ndarray] = [None] * len(network.layers)
    input_grad_fn = None
    for index in range(len(network.layers) - 1, -1, -1):
        layer = network.layers[index]
        # Reuse the forward pass's conversion unless the backward runs at
        # another precision (then the contraction rebuilds it).
        events = cached_events[index] if cached_events else None
        if events is None or events.dtype != dtype:
            events = _spike_events(record.layer_input(index).swapaxes(0, 1),
                                   dtype=dtype)
        defer = index == 0 and need_input_grad
        kernel = (_fused_backward_adaptive if layer.neuron_kind == "adaptive"
                  else _fused_backward_hard_reset)
        w_grad, upstream, gain, retained = kernel(
            layer, record.layers[index], events, grad_spikes, mode, dtype,
            defer)
        weight_grads[index] = w_grad
        grad_inputs_fn = _input_grad_fn(layer, upstream, weights[index],
                                        gain, dtype, defer)
        if index == 0:
            if need_input_grad:
                # The network-input gradient is only consumed by
                # sensitivity analyses, never by training — defer its
                # dense matmul until someone actually reads
                # GradientResult.input_grad.
                input_grad_fn = grad_inputs_fn
            else:
                # Closure discarded unused; its buffers recycle now.
                buffers.release(*retained)
            # The last consumed adjoint is dead (a deferred closure
            # captures its own plain-allocated buffers, never this one).
            buffers.release(grad_spikes)
        else:
            consumed = grad_spikes
            grad_spikes = grad_inputs_fn()
            # The consumed adjoint and this layer's scan buffers are dead
            # once the next upstream gradient exists.
            buffers.release(consumed, *retained)
    return GradientResult(weight_grads=weight_grads, input_grad=None,
                          input_grad_fn=input_grad_fn)


def _swap_time_batch(tensor: np.ndarray, dtype) -> np.ndarray:
    """``tensor`` with its ``(batch, T)`` axes swapped, as a contiguous
    array of ``dtype`` — between the public and the time-major layout:
    a view when the memory already has that layout (the buffer behind a
    fused record's view), else a copy."""
    return np.ascontiguousarray(tensor.swapaxes(0, 1), dtype=dtype)


def _weight_grad(adjoint: np.ndarray, events) -> np.ndarray:
    """``sum_{t,b} adjoint[t,b]^T x[t,b]`` over the layer input's events.

    ``adjoint`` and ``events`` (of the layer input) are both time-major,
    so the contraction reads the adjoint as it lies.
    """
    n_out = adjoint.shape[2]
    product = events.t_matmul(adjoint.reshape(-1, n_out))   # (n_in, n_out)
    # Always a copy: ``ascontiguousarray`` would return a view of the
    # product when a side is 1, and the product goes back to the arena.
    grad = product.T.copy()
    arena().release(product)
    return grad


def _input_grad_fn(layer, upstream, weight, gain, dtype, defer):
    """The input-gradient closure ``gain * upstream @ W`` of one layer.

    ``upstream`` is the time-major adjoint the input gradient is read
    from.  The matmul traverses the weights the forward pass used: the
    layer's own or the caller's override.  The closure returns a
    time-major arena buffer for the next layer's backward.  A ``defer``
    closure (layer 0's, behind ``GradientResult.input_grad``) may run
    after an in-place optimizer step, so it reads a weight snapshot and
    returns the public ``(batch, T, n_in)`` view of a plain array.
    """
    weight = np.asarray(_resolve_weight_override(layer, weight), dtype=dtype)
    if defer and weight is layer.weight:
        weight = weight.copy()
    steps, batch, n_out = upstream.shape

    def grad_inputs_fn() -> np.ndarray:
        shape = (steps, batch, layer.n_in)
        out = np.empty(shape, dtype) if defer else arena().empty(shape, dtype)
        np.matmul(upstream.reshape(steps * batch, n_out), weight,
                  out=out.reshape(steps * batch, layer.n_in))
        if gain != 1.0:
            out *= gain
        return out.swapaxes(0, 1) if defer else out

    return grad_inputs_fn


def _surrogate_eps(layer, v: np.ndarray, dtype) -> np.ndarray:
    """``eps = U'(v - v_th)`` (eq. 14) as a ``dtype`` arena buffer.

    The derivative runs in place over one float64 arena buffer holding
    ``v - v_th`` (so float32 runs keep their float64-evaluated surrogate),
    which is then cast to ``dtype`` and released.  The caller releases the
    returned array.
    """
    buffers = arena()
    centred = buffers.empty(v.shape, np.float64)
    np.subtract(v, layer.params.v_th, out=centred)
    layer.surrogate.derivative(centred, out=centred)
    if dtype == np.float64:
        return centred
    eps = buffers.empty(v.shape, dtype)
    np.copyto(eps, centred)
    buffers.release(centred)
    return eps


def _fused_backward_adaptive(layer, layer_record, events, grad_spikes,
                             mode, dtype, defer=False):
    """Adaptive-layer adjoints with the matmuls hoisted out of the time loop.

    Sequential part (elementwise, reverse time)::

        delta_v[t] = (dE/dO[t] + reset_term[t]) * eps[t]
        exact:      reset_term[t] = a_h[t+1],  a_h[t] = beta*a_h[t+1] - theta*delta_v[t]
        truncated:  reset_term[t] = -theta * delta_v[t+1]

    Hoisted part — with ``e = _scan_reverse(delta_v, alpha)``, the
    synapse filter's adjoint.  The filter is linear, so it moves off the
    recorded trace ``k`` onto the adjoint
    (``sum_t delta_v[t]^T k[t] == sum_s e[s]^T x[s]``) and commutes with
    the weight product (``revscan(delta_v @ W) == e @ W``)::

        dE/dW    = sum_{s,b} e[s,b]^T x[s,b]    (over the spike events)
        dE/dx[t] = e @ W          (exact)
                 = delta_v @ W    (truncated; eq. 13 drops the alpha-carry)

    which is why a record carries no ``k`` trace.  Returns
    ``(w_grad, upstream, gain, retained)``: the input gradient's adjoint
    and gain, and the arena buffers to release after it is read.
    """
    theta = layer.params.theta
    beta = layer.neuron.beta_r

    v = _swap_time_batch(layer_record.v, dtype)
    steps, batch, n_out = v.shape
    buffers = arena()
    eps = _surrogate_eps(layer, v, dtype)
    # The buffer a deferred (layer-0) closure captures must outlive this
    # call indefinitely, so it is never taken from the arena.
    dv = np.empty(v.shape, dtype) if defer else buffers.empty(v.shape, dtype)
    scratch = buffers.empty((batch, n_out), dtype)
    if mode == "exact":
        a_h = np.zeros((batch, n_out), dtype=dtype)
        for t in range(steps - 1, -1, -1):
            dv_t = dv[t]
            np.add(grad_spikes[t], a_h, out=dv_t)
            dv_t *= eps[t]
            a_h *= beta
            np.multiply(dv_t, theta, out=scratch)
            a_h -= scratch
    elif steps:   # a zero-step record has no last step to seed
        np.multiply(grad_spikes[-1], eps[-1], out=dv[-1])
        for t in range(steps - 2, -1, -1):
            np.multiply(dv[t + 1], theta, out=scratch)
            np.subtract(grad_spikes[t], scratch, out=dv[t])
            dv[t] *= eps[t]
    buffers.release(scratch, eps)

    if mode == "exact":
        # Only the scanned adjoint is read from here on: scan in place.
        e = _scan_reverse(dv, layer.alpha)
        w_grad = _weight_grad(e, events)
        return w_grad, e, 1.0, () if defer else (dv,)
    # Truncated mode still reads the pre-scan ``delta_v`` upstream.
    e = buffers.empty(dv.shape, dtype)
    np.copyto(e, dv)
    w_grad = _weight_grad(_scan_reverse(e, layer.alpha), events)
    if defer:
        buffers.release(e)
        return w_grad, dv, 1.0, ()
    return w_grad, dv, 1.0, (dv, e)


def _fused_backward_hard_reset(layer, layer_record, events, grad_spikes,
                               mode, dtype, defer=False):
    """Hard-reset adjoints with the matmuls hoisted (reset gate detached);
    ``mode`` is unused (one rule for both).  Returns what
    :func:`_fused_backward_adaptive` returns."""
    alpha = layer.neuron.alpha
    input_gain = getattr(layer.neuron, "input_gain", 1.0)

    v_pre = _swap_time_batch(layer_record.v, dtype)
    spikes = _swap_time_batch(layer_record.spikes, dtype)
    steps, batch, n_out = v_pre.shape
    buffers = arena()
    eps = _surrogate_eps(layer, v_pre, dtype)

    # delta_v[t] = dE/dO[t]*eps[t] + alpha*(1 - O[t])*delta_v[t+1]
    # (``dv`` is what a deferred closure captures, so plain-allocated then).
    dv = (np.empty(v_pre.shape, dtype) if defer
          else buffers.empty(v_pre.shape, dtype))
    scratch = buffers.empty((batch, n_out), dtype)
    if steps:   # a zero-step record has no last step to seed
        np.multiply(grad_spikes[-1], eps[-1], out=dv[-1])
    for t in range(steps - 2, -1, -1):
        dv_t = dv[t]
        np.subtract(1.0, spikes[t], out=scratch)
        scratch *= dv[t + 1]
        scratch *= alpha
        np.multiply(grad_spikes[t], eps[t], out=dv_t)
        dv_t += scratch
    buffers.release(scratch, eps)

    w_grad = _weight_grad(dv, events)
    if input_gain != 1.0:
        w_grad *= input_gain
    return w_grad, dv, input_gain, () if defer else (dv,)
