"""Reusable buffer arenas for the fused engine's steady-state hot loop.

Every fused forward/backward pass allocates a handful of large
``(batch, T, n)`` tensors — spike buffers, membrane traces, adjoint scans —
whose shapes repeat identically batch after batch during training.  A
:class:`Workspace` turns those allocations into arena reuse: buffers are
checked out by exact ``(shape, dtype)`` key, handed back once the training
step that used them is finished, and served again on the next batch.  In
steady state (constant batch shape) the engine then performs *zero* large
allocations per step; the only remaining churn is the small foreign arrays
produced inside BLAS/SciPy calls.

Design rules that keep this safe:

* A workspace is **single-threaded state** — one per trainer, one per pool
  worker, one per model server (the serving tick's padded gather buffer
  and transient batched stream state recycle through it).  It is never
  shared across processes (each worker process builds its own).
* ``release`` ignores arrays the workspace did not hand out, so callers may
  bulk-release a record's tensors without tracking which of them came from
  the arena (e.g. a membrane trace produced by a SciPy sparse product is
  foreign and simply skipped).
* Reuse is **opt-in at the call site**: every engine entry point takes
  ``ws=None`` and behaves exactly as before when no workspace is supplied.
  Buffers that escape to user code (e.g. ``network.run`` outputs outside a
  trainer) are never pooled.

The workspace also caches the CSR row-boundary scratch used by the sparse
spike matmul (:func:`Workspace.row_bounds`): the ``arange(0, (m+1)*n, n)``
array consumed by ``searchsorted`` is a pure function of the flattened
spike-matrix shape, so in steady state the conversion allocates only the
per-batch nonzero index vectors.

Equivalence (with-workspace == without, bitwise) is pinned by
``tests/unit/test_runtime.py``, including across consecutive calls with
differing shapes.
"""

from __future__ import annotations

import collections

import numpy as np

__all__ = ["Workspace"]

#: Default cap on bytes parked in free lists before old buffers are dropped.
DEFAULT_MAX_BYTES = 1 << 29  # 512 MiB


class Workspace:
    """A keyed pool of reusable numpy buffers.

    Parameters
    ----------
    max_bytes:
        Soft cap on the total size of *idle* (released) buffers.  When a
        release would exceed it, the oldest idle buffers are dropped —
        important for sweeps whose shapes change between phases, so stale
        shapes do not pin memory forever.  Checked-out buffers are never
        counted against the cap.
    """

    def __init__(self, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self._free: dict[tuple, list[np.ndarray]] = {}
        # id -> (key, array).  The strong reference is load-bearing: if a
        # checked-out buffer were garbage-collected, its id could be reused
        # by an unrelated array, and a later release() would pool that
        # array under the stale key — handing out wrong-shaped memory.
        self._lent: dict[int, tuple[tuple, np.ndarray]] = {}
        self._fifo: collections.deque[tuple] = collections.deque()
        self._free_bytes = 0
        self._row_bounds: dict[tuple[int, int], np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    # -- checkout / return --------------------------------------------------
    @staticmethod
    def _key(shape, dtype) -> tuple:
        return (tuple(int(s) for s in shape), np.dtype(dtype).str)

    def empty(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialised buffer of exactly ``(shape, dtype)``.

        Pops a previously released buffer when one matches, else allocates.
        The caller owns the buffer until it is passed to :meth:`release`.
        """
        key = self._key(shape, dtype)
        stack = self._free.get(key)
        if stack:
            arr = stack.pop()
            self._free_bytes -= arr.nbytes
            # Keep the eviction queue in lockstep with the free lists:
            # one entry per *idle* buffer, so it stays bounded and
            # eviction really drops the oldest idle buffer.
            try:
                self._fifo.remove(key)
            except ValueError:  # pragma: no cover - queues are in lockstep
                pass
            self.hits += 1
        else:
            arr = np.empty(key[0], dtype=np.dtype(key[1]))
            self.misses += 1
        self._lent[id(arr)] = (key, arr)
        return arr

    def zeros(self, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`empty` but zero-filled."""
        arr = self.empty(shape, dtype)
        arr.fill(0)
        return arr

    def release(self, *arrays) -> None:
        """Hand buffers back to the pool.

        Arrays this workspace did not allocate (or ``None``) are ignored, so
        callers can release whole records without provenance bookkeeping.
        A view of a lent buffer (a reshape, slice or ``swapaxes``, like the
        ``(batch, T, n)`` views the engine hands out of its time-major
        buffers) releases the buffer behind it.
        Releasing the same buffer twice in a row is also a no-op (the
        second call sees it as foreign) — but release a buffer **at most
        once per checkout**: the array object itself is the lease token,
        so a stale release issued *after* the buffer has been handed out
        again would return the new owner's live memory to the pool and
        alias two users onto it.  The engine/trainer integration releases
        only at end-of-step points where no stale references survive.
        """
        for arr in arrays:
            if arr is None:
                continue
            entry = self._lent.pop(id(arr), None)
            if entry is None:
                # NumPy points every view's ``base`` at the array owning
                # the memory, which for a lent buffer is the buffer.
                base = getattr(arr, "base", None)
                if base is None:
                    continue
                entry = self._lent.pop(id(base), None)
                if entry is None:
                    continue
            key, arr = entry
            self._free.setdefault(key, []).append(arr)
            self._fifo.append(key)
            self._free_bytes += arr.nbytes
        while self._free_bytes > self.max_bytes and self._fifo:
            old_key = self._fifo.popleft()
            stack = self._free.get(old_key)
            if stack:
                dropped = stack.pop(0)
                self._free_bytes -= dropped.nbytes

    # -- CSR scratch --------------------------------------------------------
    def row_bounds(self, m: int, n: int) -> np.ndarray:
        """Cached ``arange(0, (m+1)*n, n)`` for direct CSR construction."""
        key = (int(m), int(n))
        bounds = self._row_bounds.get(key)
        if bounds is None:
            bounds = np.arange(0, (m + 1) * n, n)
            self._row_bounds[key] = bounds
        return bounds

    # -- maintenance --------------------------------------------------------
    def reclaim(self) -> None:
        """Drop every idle buffer and cached scratch (checked-out buffers
        stay valid; they are simply forgotten when released)."""
        self._free.clear()
        self._fifo.clear()
        self._free_bytes = 0
        self._lent.clear()
        self._row_bounds.clear()

    @property
    def idle_bytes(self) -> int:
        """Total bytes currently parked in free lists."""
        return self._free_bytes

    @property
    def lent_count(self) -> int:
        """Number of buffers currently checked out."""
        return len(self._lent)

    def __repr__(self) -> str:
        return (f"Workspace(idle={self._free_bytes >> 20} MiB, "
                f"lent={len(self._lent)}, hits={self.hits}, "
                f"misses={self.misses})")
