"""The calling thread's buffer arena: the one owner of engine buffers.

Every fused forward/backward pass allocates a handful of large
time-major ``(T, batch, n)`` tensors — spike buffers, membrane traces,
crossbar products, adjoint scans — whose shapes repeat batch after
batch.  Each thread owns one :class:`Workspace` (:func:`arena`), and
every engine call checks its buffers out of the calling thread's:
buffers are keyed by exact ``(shape, dtype)``, handed back with
:meth:`Workspace.release` and served again to the next call of that
shape.  In steady state (constant batch shape) a training step, a
serving tick or a pool worker's shard then performs zero large
allocations; the only remaining churn is the small arrays numpy and
BLAS make inside their calls.

Design rules that keep this safe:

* An arena is **single-threaded state**: it belongs to its thread
  (``threading.local``) and is never shared; each worker process runs
  on its own, and a forked child starts on an empty one.
* A lease is **weak**.  The arena tracks a lent buffer by a weak
  reference whose callback forgets it, so a buffer its holder drops
  unreleased (an output, a record, the buffers of a call that raised)
  is freed like any ``np.empty`` array, and nothing needs reclaiming.
  The callback runs on whichever thread drops the last reference and
  does one ``dict.pop``, atomic under the GIL; CPython clears weak
  references before it frees the memory, so the entry is gone before
  the buffer's id can be reused.
* Releasing is an optimisation, not an obligation: the hot loops (the
  training step, ``run_in_batches``, the server tick, the pool worker)
  release what they are done with so their next call reuses it.
  ``release`` ignores arrays the arena did not lend (foreign, already
  released, or lent by another thread's arena), so callers release a
  record's tensors without provenance bookkeeping.

Reuse is bitwise-transparent: a run on a recycled arena equals the same
run on a fresh thread's arena (``tests/unit/test_runtime.py``).
"""

from __future__ import annotations

import os
import threading
import weakref

import numpy as np

__all__ = ["Workspace", "arena"]

#: Idle bytes an arena keeps parked before it drops its oldest buffers.
#: A bench training step (64 x 100 steps through 700-128-128-20, float64)
#: leaves 59 MB idle, 76 MB with an interleaved evaluation of 100
#: samples (chunks of 64 and 36); the full-profile SHD step (64 x 150
#: steps through 700-400-400-20) 233 MB, 293 MB with an evaluation.  At
#: 128 MB that step re-allocated 16 buffers every time; at 512 MB none.
ARENA_BYTES = 512 << 20


class Workspace:
    """A keyed pool of reusable numpy buffers with weak leases.

    ``max_bytes`` (``ARENA_BYTES`` when the pool is made) caps the total
    size of *idle* (released) buffers: when a release would exceed it,
    the oldest idle buffers are dropped, so shapes a caller stopped
    using do not pin memory forever.  Lent buffers are never counted.
    """

    def __init__(self):
        self.max_bytes = ARENA_BYTES
        self._free: dict[tuple, list[np.ndarray]] = {}
        # id -> (key, weak reference); the reference's callback drops the
        # entry when the buffer is freed unreleased.
        self._lent: dict[int, tuple[tuple, weakref.ref]] = {}
        # Idle buffers' keys by buffer id, in release order: the eviction
        # order, kept in step with the free lists in O(1) per call.
        self._idle: dict[int, tuple] = {}
        self._free_bytes = 0
        self.hits = 0
        self.misses = 0

    # -- checkout / return --------------------------------------------------
    def empty(self, shape, dtype=np.float64) -> np.ndarray:
        """An uninitialised buffer of exactly ``(shape, dtype)``.

        Pops a previously released buffer when one matches, else
        allocates.  The buffer is lent until it is passed to
        :meth:`release` or freed.
        """
        # Built on every checkout, so kept cheap: equal dtypes hash equal.
        key = (tuple(map(int, shape)), np.dtype(dtype))
        stack = self._free.get(key)
        if stack:
            arr = stack.pop()
            if not stack:
                del self._free[key]
            self._free_bytes -= arr.nbytes
            del self._idle[id(arr)]
            self.hits += 1
        else:
            arr = np.empty(*key)
            self.misses += 1
        # A closure per lease measured cheaper than a ``functools.partial``
        # or a ``weakref.ref`` subclass that carries the id.
        ident, lent = id(arr), self._lent
        lent[ident] = (key, weakref.ref(
            arr, lambda _, ident=ident: lent.pop(ident, None)))
        return arr

    def zeros(self, shape, dtype=np.float64) -> np.ndarray:
        """Like :meth:`empty` but zero-filled."""
        arr = self.empty(shape, dtype)
        arr.fill(0)
        return arr

    def release(self, *arrays) -> None:
        """Hand buffers back to the pool.

        Arrays this arena did not lend (or ``None``) are ignored.  A view
        of a lent buffer (a reshape, slice or ``swapaxes``, like the
        ``(batch, T, n)`` views the engine hands out of its time-major
        buffers) releases the buffer behind it.  Release a buffer **at
        most once per checkout**, once nothing reads it anymore: the
        next checkout of its shape gets the same memory.
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
            key, ref = entry
            # ``arr`` (or its base) is alive, so the reference is too.
            arr = ref()
            self._free.setdefault(key, []).append(arr)
            self._idle[id(arr)] = key
            self._free_bytes += arr.nbytes
        while self._free_bytes > self.max_bytes and self._idle:
            # A key's free list runs oldest release first, so the oldest
            # idle buffer heads its own list.
            key = self._idle.pop(next(iter(self._idle)))
            stack = self._free[key]
            self._free_bytes -= stack.pop(0).nbytes
            if not stack:
                del self._free[key]

    # -- books --------------------------------------------------------------
    @property
    def idle_bytes(self) -> int:
        """Total bytes currently parked in free lists."""
        return self._free_bytes

    @property
    def lent_count(self) -> int:
        """Number of lent buffers still alive."""
        return len(self._lent)


_threads = threading.local()


def _forget_arenas() -> None:
    """Start a forked child on empty arenas: the parent's idle buffers
    and leases are not the child's to reuse or count."""
    global _threads
    _threads = threading.local()


if hasattr(os, "register_at_fork"):   # POSIX only
    os.register_at_fork(after_in_child=_forget_arenas)


def arena() -> Workspace:
    """The calling thread's :class:`Workspace`, made on first use."""
    try:
        return _threads.arena
    except AttributeError:
        _threads.arena = Workspace()
        return _threads.arena
