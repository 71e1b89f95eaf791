"""Reusable buffer arenas for the fused engine's steady-state hot loop.

Every fused forward/backward pass allocates a handful of large
``(batch, T, n)`` tensors — spike buffers, membrane traces, adjoint scans —
whose shapes repeat identically batch after batch during training.  A
:class:`Workspace` turns those allocations into arena reuse: buffers are
checked out by exact ``(shape, dtype)`` key, handed back once the training
step that used them is finished, and served again on the next batch.  In
steady state (constant batch shape) the engine then performs *zero* large
allocations per step; the only remaining churn is the small foreign arrays
produced inside BLAS calls.

Design rules that keep this safe:

* A workspace is **single-threaded state** — one per trainer, one per pool
  worker, one per model server (the serving tick's padded chunk buffer
  and engine buffers recycle through it), one per thread for the
  engine's one-shot runs (``repro.core.engine._arena``).  It is never
  shared across threads or processes (each worker process builds its
  own).
* ``release`` ignores arrays the workspace did not hand out, so callers may
  bulk-release a record's tensors without tracking which of them came from
  the arena (a tensor produced without the workspace is foreign and simply
  skipped).
* Reuse is **opt-in at the call site**: every engine entry point takes
  ``ws=None`` and behaves exactly as before when no workspace is supplied.
  Buffers that escape to user code (e.g. ``network.run`` outputs outside a
  trainer, which a one-shot run copies out of its thread's arena) are
  never pooled.

Equivalence (with-workspace == without, bitwise) is pinned by
``tests/unit/test_runtime.py``, including across consecutive calls with
differing shapes.
"""

from __future__ import annotations

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
        # Idle buffers' keys by buffer id, in release order: the eviction
        # order, kept in step with the free lists in O(1) per call.
        self._idle: dict[int, tuple] = {}
        self._free_bytes = 0
        self.hits = 0
        self.misses = 0

    # -- checkout / return --------------------------------------------------
    @staticmethod
    def _key(shape, dtype) -> tuple:
        # Built on every checkout, so kept cheap: equal dtypes hash equal.
        return (tuple(map(int, shape)), np.dtype(dtype))

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
            del self._idle[id(arr)]
            self.hits += 1
        else:
            arr = np.empty(*key)
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
            self._idle[id(arr)] = key
            self._free_bytes += arr.nbytes
        while self._free_bytes > self.max_bytes and self._idle:
            # A key's free list runs oldest release first, so the oldest
            # idle buffer heads its own list.
            oldest = next(iter(self._idle))
            dropped = self._free[self._idle.pop(oldest)].pop(0)
            self._free_bytes -= dropped.nbytes

    # -- maintenance --------------------------------------------------------
    def reclaim(self) -> None:
        """Drop every idle buffer (checked-out buffers stay valid; they
        are simply forgotten when released)."""
        self._free.clear()
        self._idle.clear()
        self._free_bytes = 0
        self._lent.clear()

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
