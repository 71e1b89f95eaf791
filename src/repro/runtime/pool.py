"""Persistent multi-process worker pool with shared-memory data plane.

This is the execution backend of the parallel runtime: a set of long-lived
worker processes, each holding a live replica of the master's
:class:`~repro.core.network.SpikingNetwork` whose weight arrays are **views
into one shared-memory block** — the master memcpys updated weights into
that block once per dispatch (:meth:`WorkerPool.sync_weights`, ~100 µs for
the paper-scale MLPs) and every worker reads them zero-copy.

Large tensors never cross the command pipes.  One master-owned
shared-memory arena carries them instead: the staging step
(:meth:`WorkerPool._stage`) copies a call's named arrays into it —
whole, or in bounded windows of whole ``batch_size`` chunks — and the
workers write any large result into a staged output view, which the
master copies back.  Two commands cross the pipes:

========  ==========================================================
command   runs
========  ==========================================================
call      a module-level function on views of staged arrays, plus small
          keyword arguments (:meth:`WorkerPool._run`)
task      an arbitrary picklable callable on one item (:meth:`~WorkerPool.map`)
========  ==========================================================

The pipes carry only small command dicts — arena references
``{name, shape, dtype, offset}``, the function's importable name,
scalars — and small replies (losses, counts, pickled task results).

Every pooled call runs the serial path's own work unit on the serial
path's own boundaries:

* a forward chunk (:meth:`WorkerPool.run_sharded`) is one ``batch_size``
  chunk of ``run_in_batches``;
* a gradient shard (:meth:`WorkerPool.grad_shards`) runs
  :func:`repro.runtime.parallel.shard_grads` — the function the serial
  fallback calls in-process — so pooled gradients are bitwise-equal to a
  serial execution of the same shard split;
* a Fig. 8 draw (``accuracy_under_variation(pool=...)``) runs
  :func:`repro.hardware.mapped_network.seed_correct` on one window;
* ``task`` runs an arbitrary picklable callable (sweep grid points).

Each worker's engine calls borrow its thread's arena
(:func:`repro.core.workspace.arena`) and release what they checked out,
so steady-state training allocates nothing per batch on either side of
the pipe.  Failures split into two kinds with opposite handling:

* a :class:`WorkerError` — user code raised *inside* a worker — is
  caught there, formatted, and re-raised in the master with the worker
  traceback attached.  Deterministic code fails deterministically, so
  these are never retried;
* a :class:`PoolTransportError` — dead process, reply timeout, corrupt
  reply — triggers **self-healing**: the pool respawns the failed
  worker from the original spec (:meth:`WorkerPool._respawn`) and the
  dispatch requeues exactly its in-flight commands, with bounded heal
  rounds and exponential backoff.  Because the arena is master-owned
  and replicas rebuild deterministically, a healed dispatch returns
  results bitwise-equal to a fault-free run.

Fault injection (:mod:`repro.common.faults`): constructing a pool under
an active :class:`~repro.common.faults.FaultPlan` snapshots the plan
into the ``_PoolSpec``; each worker generation installs a fresh copy
with ``worker=index, generation=n`` context and consults the
``pool.worker.crash`` / ``pool.worker.hang`` / ``pool.reply.corrupt``
sites, so crash-recovery paths are exercised reproducibly in tests and
chaos scenarios.
"""

from __future__ import annotations

import atexit
import collections
import dataclasses
import multiprocessing as mp
import os
import pickle
import threading
import time
import traceback
import weakref
from multiprocessing import shared_memory

import numpy as np

from .. import obs as _obs
from ..common import faults as _faults

__all__ = ["WorkerPool", "WorkerError", "PoolTransportError"]

#: Pools that still own shared-memory segments.  An atexit hook closes
#: them because ``__del__`` alone is not enough at interpreter shutdown:
#: a frozen daemon thread blocked in a dispatch keeps its pool reachable
#: forever, the segments are never unlinked, and the multiprocessing
#: resource tracker prints a "leaked shared_memory objects" warning.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()

#: Set by the atexit hook before it closes the live pools, so that a
#: dispatch the hook breaks in a daemon thread parks instead of raising.
_EXITING = threading.Event()


@atexit.register
def _close_live_pools() -> None:  # pragma: no cover - exercised in a
    _EXITING.set()                  # subprocess by tests/unit/test_runtime.py
    for pool in list(_LIVE_POOLS):
        try:
            pool.close()
        except Exception:
            pass


class WorkerError(RuntimeError):
    """An exception raised *inside* a worker, re-raised in the master.

    Distinct from transport failures (dead worker, timeout): the worker
    survives a :class:`WorkerError` and its pipe stays usable, so the pool
    drains in-flight replies and remains open.
    """


class PoolTransportError(RuntimeError):
    """The pipe to one or more workers can no longer be trusted.

    Raised when a worker process dies, stops replying within the
    timeout, or delivers a reply that violates the protocol.  Carries
    the affected worker indices in :attr:`workers` so the dispatch loop
    can heal exactly those workers and requeue their in-flight shards.
    Reaches callers only once the per-dispatch restart budget is
    exhausted (the pool is closed first).
    """

    def __init__(self, message: str, workers=()):
        super().__init__(message)
        self.workers = tuple(workers)


_ALIGN = 64  # byte alignment for per-layer / per-worker shm regions


def _aligned(nbytes: int) -> int:
    return (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN


# ---------------------------------------------------------------------------
# Shared-memory plumbing
# ---------------------------------------------------------------------------
class _Arena:
    """The master-owned, grow-on-demand shared-memory block staged
    arrays live in."""

    def __init__(self):
        self._shm: shared_memory.SharedMemory | None = None
        self.capacity = 0

    def ensure(self, nbytes: int) -> None:
        if nbytes <= self.capacity:
            return
        new_capacity = _aligned(max(nbytes, 2 * self.capacity, 4096))
        old = self._shm
        self._shm = shared_memory.SharedMemory(create=True, size=new_capacity)
        self.capacity = new_capacity
        if old is not None:
            old.close()
            old.unlink()

    def ref(self, shape, dtype, offset: int) -> dict:
        """A picklable handle a worker can attach and view."""
        return {
            "name": self._shm.name,
            "shape": tuple(int(s) for s in shape),
            "dtype": np.dtype(dtype).str,
            "offset": int(offset),
        }

    def view(self, ref: dict) -> np.ndarray:
        return np.ndarray(ref["shape"], dtype=np.dtype(ref["dtype"]),
                          buffer=self._shm.buf, offset=ref["offset"])

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None
            self.capacity = 0


def _rows(ref: dict, rows) -> dict:
    """The ref of ``rows`` (a slice, or one index) of a staged array's
    leading axis; ``None`` is the whole array."""
    if rows is None:
        return ref
    shape = ref["shape"]
    row_bytes = (int(np.prod(shape[1:], dtype=np.int64))
                 * np.dtype(ref["dtype"]).itemsize)
    if isinstance(rows, slice):
        start, stop, _ = rows.indices(shape[0])
        shape = (stop - start,) + shape[1:]
    else:
        start, shape = rows, shape[1:]
    return dict(ref, shape=shape, offset=ref["offset"] + start * row_bytes)


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
@dataclasses.dataclass
class _PoolSpec:
    """Everything a worker needs to rebuild the master's network."""

    sizes: tuple | None
    params: object | None
    neuron_kind: str | None
    surrogates: list | None
    weight_ref: dict | None      # one block, all layers
    weight_offsets: list | None  # per-layer byte offsets into the block
    weight_shapes: list | None
    loss: object | None
    #: Snapshot of the fault plan active when the pool was built; each
    #: worker generation installs a fresh (zero-counter) copy.
    fault_plan: object | None = None


class _WorkerState:
    """Per-process state: attached blocks and network replicas."""

    def __init__(self, spec: _PoolSpec):
        self.spec = spec
        self.blocks: dict[str, shared_memory.SharedMemory] = {}
        self.networks: dict[str, object] = {}

    #: Keep at most this many non-weight blocks attached; arena growth on
    #: the master side replaces segments (new names), and holding the old
    #: attachments would pin the unlinked memory for the worker's lifetime.
    MAX_CACHED_BLOCKS = 8

    def view(self, ref: dict) -> np.ndarray:
        shm = self.blocks.pop(ref["name"], None)
        if shm is None:
            shm = shared_memory.SharedMemory(name=ref["name"])
        self.blocks[ref["name"]] = shm  # reinsert: dict order tracks LRU
        return np.ndarray(ref["shape"], dtype=np.dtype(ref["dtype"]),
                          buffer=shm.buf, offset=ref["offset"])

    def prune_blocks(self) -> None:
        """Drop least-recently-used attachments beyond the cache limit.

        Called between commands only — numpy views of arena blocks never
        outlive a command handler, so closing here is safe.  The weights
        block is exempt: the cached network replicas hold permanent views
        into it.
        """
        spec = self.spec
        protected = ({spec.weight_ref["name"]}
                     if spec.weight_ref is not None else set())
        excess = len(self.blocks) - self.MAX_CACHED_BLOCKS
        if excess <= 0:
            return
        for name in list(self.blocks):
            if excess <= 0:
                break
            if name in protected:
                continue
            self.blocks.pop(name).close()
            excess -= 1

    def network(self, neuron_kind: str | None = None):
        """The shared-weight network replica (variant kinds built lazily)."""
        spec = self.spec
        if spec.sizes is None:
            raise RuntimeError("this pool was created without a network")
        kind = neuron_kind or spec.neuron_kind
        net = self.networks.get(kind)
        if net is None:
            from ..core.layers import SpikingLinear
            from ..core.network import SpikingNetwork

            net = SpikingNetwork.from_layers([
                SpikingLinear(
                    shape[1], shape[0], params=spec.params,
                    neuron_kind=kind, surrogate=surrogate,
                    name=f"layer{i}", weight=self.view(
                        dict(spec.weight_ref, shape=shape, offset=offset)))
                for i, (surrogate, offset, shape) in enumerate(zip(
                    spec.surrogates, spec.weight_offsets,
                    spec.weight_shapes))])
            self.networks[kind] = net
        return net

    def close(self) -> None:
        for shm in self.blocks.values():
            shm.close()
        self.blocks.clear()


def _worker_main(spec: _PoolSpec, conn, index: int = 0,
                 generation: int = 0, master_ends=()) -> None:
    """Command loop executed in each worker process.

    ``master_ends`` are the master's ends of this worker's pipe and of
    every live worker's, inherited through fork.  They are closed first:
    otherwise this process holds a write end of its own pipe (and keeps
    its siblings' open), so a master that dies without ``close()`` never
    delivers EOF and the workers block in ``recv`` forever.
    """
    for end in master_ends:
        end.close()
    # Fault injection is spec-driven, never inherited: a forked child
    # starts with the master's active plan (shared counters and all), so
    # it is replaced with a fresh per-process copy — or removed.  The
    # context names this incarnation, letting rules target e.g. only the
    # original generation of worker 0.
    if spec.fault_plan is not None:
        _faults.install(spec.fault_plan.fresh(), worker=index,
                        generation=generation)
    else:
        _faults.deactivate()
    state = _WorkerState(spec)
    try:
        conn.send(("ready", os.getpid()))
        while True:
            # Worker side of the pipe: blocking on the master is the
            # design — a heal kills hung workers from outside.
            # repro: disable=concurrency
            msg = conn.recv()
            cmd = msg["cmd"]
            if cmd == "stop":
                break
            if _faults.should_fire("pool.worker.crash"):
                os._exit(13)  # hard crash: no cleanup, no reply
            rule = _faults.hit("pool.worker.hang")
            if rule is not None:
                # Stop replying for longer than any sane timeout; the
                # master's heal will terminate this process.
                time.sleep(3600.0 if rule.payload is None else rule.payload)
            try:
                reply = ("ok", _handle(state, msg))
            except Exception:
                # Any failure inside the command (including a user task
                # raising BrokenPipeError itself) is a worker error to
                # report, not a transport failure.
                reply = ("error", traceback.format_exc())
            if _faults.should_fire("pool.reply.corrupt"):
                reply = "corrupt-reply"  # protocol violation, not a 2-tuple
            try:
                conn.send(reply)
            except OSError:
                raise  # reply pipe gone (master closed/vanished): exit below
            except Exception:
                # The reply itself would not pickle; report that instead.
                conn.send(("error", traceback.format_exc()))
            state.prune_blocks()
    except (EOFError, BrokenPipeError, ConnectionResetError, OSError,
            KeyboardInterrupt):
        # Master vanished (or closed our pipe mid-reply) / interrupt:
        # normal shutdown paths, not worker errors — exit silently rather
        # than spraying tracebacks over the master's stderr.
        pass
    finally:
        state.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover - already torn down
            pass


def _handle(state: _WorkerState, msg: dict):
    cmd = msg["cmd"]
    if cmd == "call":
        views = {name: state.view(ref) for name, ref in msg["refs"].items()}
        return msg["fn"](state, **views, **msg["kwargs"])
    if cmd == "task":
        fn, item = msg["payload"]
        return fn(item)
    raise ValueError(f"unknown pool command {cmd!r}")


def _forward(worker: _WorkerState, x, out, precision, neuron_kind):
    """One ``batch_size`` chunk of ``run_in_batches``, written to ``out``."""
    from ..core.workspace import arena

    outputs, _ = worker.network(neuron_kind).run(x, precision=precision)
    np.copyto(out, outputs)
    arena().release(outputs)


def _grad(worker: _WorkerState, x, targets, mode, precision, **grads):
    """One gradient shard; its weight gradients go to ``grads``' views."""
    # Looked up per call, so a patched ``shard_grads`` reaches forked
    # workers.
    from .parallel import shard_grads

    loss_value, shard_n, shard = shard_grads(
        worker.network(), worker.spec.loss, x, targets, mode=mode,
        precision=precision)
    for out, grad in zip(grads.values(), shard):
        # casting="no": the master sized the output for the dtype this
        # precision produces — a silent downcast here would diverge from
        # the serial path.
        np.copyto(out, grad, casting="no")
    return loss_value, shard_n


# ---------------------------------------------------------------------------
# Master-side pool
# ---------------------------------------------------------------------------
class WorkerPool:
    """A persistent pool of worker processes sharing the network weights.

    Parameters
    ----------
    network:
        The master :class:`~repro.core.network.SpikingNetwork` to replicate
        (``None`` builds a generic pool that only serves :meth:`map`).
    workers:
        Number of worker processes (>= 1).
    loss:
        Loss object shipped to the workers for gradient shards (must be
        picklable; both built-in losses are).

    Workers start by fork where the platform has it, else by spawn.
    """

    #: Seconds to wait for any single worker reply, unless a dispatch
    #: passes its own ``timeout=``.
    _TIMEOUT_S = 600.0
    #: Heal rounds allowed per dispatch (one round may respawn several
    #: workers after a collective timeout); past it the pool closes and
    #: the transport error propagates, so a persistently dying worker
    #: (genuine OOM, broken native library) still fails loudly.
    _MAX_HEAL_ROUNDS = 3
    #: Respawn backoff: ``_BACKOFF_S * 2**n`` before the pool's n-th
    #: lifetime restart, capped at ``_MAX_BACKOFF_S``.  A restart storm
    #: must not busy-spin a machine that is actually out of memory.
    _BACKOFF_S = 0.05
    _MAX_BACKOFF_S = 1.0
    #: Seconds granted per escalation stage when stopping a worker (stop
    #: → terminate → kill).  Tests exercising the escalation shrink it.
    _CLOSE_GRACE_S = 5.0

    def __init__(self, network=None, workers: int = 1, loss=None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.network = network
        self.workers = int(workers)
        # Lifetime robustness counters live in a *private* registry (not
        # the installed telemetry's): a caller's pool can outlive a run,
        # so binding it to one run's registry would strand the others.
        # The installed tracer is looked up per event instead.
        self.metrics = _obs.MetricsRegistry()
        self._c_restarts = self.metrics.counter(
            "pool.restarts", help="workers respawned by a heal")
        self._c_retries = self.metrics.counter(
            "pool.retries", help="in-flight commands requeued after a heal")
        self._c_dispatches = self.metrics.counter(
            "pool.dispatches", help="dispatch rounds sent to the fleet")
        self._c_timeouts = self.metrics.counter(
            "pool.timeouts", help="workers declared unresponsive (timeout)")
        # Every attribute close() touches exists before anything that can
        # raise, so a failed constructor (a spawn failure) still unlinks
        # whatever shared memory it had already created.
        self._closed = False
        self._weights_shm: shared_memory.SharedMemory | None = None
        self._weight_views: list[np.ndarray] = []
        self._arena = _Arena()
        self._conns = []
        self._procs = []
        self._generations = [0] * self.workers
        try:
            self._spec = self._build_spec(network, loss)
            self._ctx = mp.get_context(
                "fork" if "fork" in mp.get_all_start_methods() else "spawn")
            for index in range(self.workers):
                proc, conn = self._spawn_worker(index)
                self._conns.append(conn)
                self._procs.append(proc)
            for index in range(self.workers):
                self._recv(index)  # "ready" handshake
        except Exception:
            self.close()
            raise
        _LIVE_POOLS.add(self)

    @property
    def stats(self) -> dict:
        """Lifetime robustness counters (a view over :attr:`metrics`).

        ``restarts`` (workers respawned), ``retries`` (in-flight
        commands requeued after a heal), ``dispatches`` (dispatch
        rounds), ``timeouts`` (workers declared unresponsive), and
        ``respawns`` (per-worker respawn counts, ``{index: count}``).
        """
        return {
            "restarts": int(self._c_restarts.value),
            "retries": int(self._c_retries.value),
            "dispatches": int(self._c_dispatches.value),
            "timeouts": int(self._c_timeouts.value),
            "respawns": {
                int(inst.labels[0][1]): int(inst.value)
                for inst in self.metrics.labelled("pool.respawns")
            },
        }

    def _spawn_worker(self, index: int):
        """Start one worker process for slot ``index`` (current generation)."""
        parent_conn, child_conn = self._ctx.Pipe()
        # A forked child inherits every master end open now; a spawned
        # one inherits none (and passing them would duplicate them).
        master_ends = ()
        if self._ctx.get_start_method() == "fork":
            master_ends = [parent_conn] + [
                conn for conn in self._conns if not conn.closed]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._spec, child_conn, index, self._generations[index],
                  master_ends),
            daemon=True, name=f"repro-worker-{index}")
        proc.start()
        child_conn.close()
        return proc, parent_conn

    def _respawn(self, index: int) -> None:
        """Replace worker ``index`` with its next generation.

        Reclaims the old process and pipe, backs off, respawns from the
        original spec at an incremented **generation** (fault rules
        scoped ``where={"generation": 0}`` stop firing in the replacement
        — see :mod:`repro.common.faults`) and completes the ``ready``
        handshake.  A failed handshake raises
        :class:`PoolTransportError`, which the dispatch's bounded loop
        handles like any other transport failure.
        """
        try:
            self._conns[index].close()
        except OSError:  # pragma: no cover - already torn down
            pass
        self._stop(self._procs[index])
        # The exponent is clamped: 2.0 ** 1024 overflows, and the cap
        # bounds the delay long before that.
        exponent = min(self._c_restarts.value, 32)
        time.sleep(min(self._BACKOFF_S * 2.0 ** exponent,
                       self._MAX_BACKOFF_S))
        self._generations[index] += 1
        self._procs[index], self._conns[index] = self._spawn_worker(index)
        self._c_restarts.inc()
        self.metrics.counter(
            "pool.respawns",
            help="respawns of one worker slot", worker=index).inc()
        _obs.event("pool.respawn", worker=index,
                   generation=self._generations[index])
        self._recv(index)  # "ready" handshake from the new generation

    def _stop(self, proc) -> None:
        """Terminate ``proc``, escalating to kill if it ignores SIGTERM."""
        try:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=self._CLOSE_GRACE_S)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=self._CLOSE_GRACE_S)
        except (OSError, ValueError, AssertionError):  # pragma: no cover
            pass  # interpreter teardown races

    # -- construction helpers ----------------------------------------------
    def _build_spec(self, network, loss) -> _PoolSpec:
        # Snapshot the active fault plan (if any) so child processes
        # inject reproducibly no matter the start method.
        plan = _faults.active_plan()
        if network is None:
            return _PoolSpec(None, None, None, None, None, None, None, loss,
                             fault_plan=plan)
        offsets, shapes = [], []
        cursor = 0
        for layer in network.layers:
            offsets.append(cursor)
            shapes.append(layer.weight.shape)
            cursor += _aligned(layer.weight.nbytes)
        self._weights_shm = shared_memory.SharedMemory(create=True,
                                                       size=max(cursor, 8))
        self._weight_views = [
            np.ndarray(shape, dtype=np.float64, buffer=self._weights_shm.buf,
                       offset=offset)
            for shape, offset in zip(shapes, offsets)
        ]
        self.sync_weights()
        weight_ref = {"name": self._weights_shm.name, "shape": (),
                      "dtype": "<f8", "offset": 0}
        return _PoolSpec(
            sizes=network.sizes, params=network.params,
            neuron_kind=network.neuron_kind,
            surrogates=[layer.surrogate for layer in network.layers],
            weight_ref=weight_ref, weight_offsets=offsets,
            weight_shapes=shapes, loss=loss, fault_plan=plan,
        )

    def sync_weights(self, weights=None) -> None:
        """Memcpy the master network's current weights into shared memory.

        Every network call (:meth:`_run`: forward chunks, gradient
        shards, Fig. 8 draws) does this first — a ~100 µs memcpy for the
        paper MLP — so a pool reused across optimizer steps (or handed to
        ``run_in_batches(pool=...)`` after further training) always
        computes with the master's current weights.  Workers observe the
        update on their next command (pipe delivery orders the accesses).

        ``weights`` (optional per-layer arrays) stages an *override*
        instead of the master weights — how a hardware-aware training
        dispatch ships its quantized(+noisy) weights to the replicas.
        The override lasts until the next dispatch re-syncs.
        """
        source = (weights if weights is not None
                  else [layer.weight for layer in self.network.layers])
        if len(source) != len(self._weight_views):
            raise ValueError(
                f"expected {len(self._weight_views)} weight arrays, "
                f"got {len(source)}")
        for view, weight in zip(self._weight_views, source):
            np.copyto(view, weight)

    # -- message plumbing ---------------------------------------------------
    def _recv(self, index: int, timeout: float | None = None):
        conn = self._conns[index]
        timeout = self._TIMEOUT_S if timeout is None else timeout
        deadline = time.monotonic() + timeout
        while not conn.poll(0.2):
            if not self._procs[index].is_alive():
                # A dead worker's pipe may still hold completed replies;
                # drain those before declaring the transport broken.
                if conn.poll(0):
                    break
                raise PoolTransportError(
                    f"pool worker {index} died (exit code "
                    f"{self._procs[index].exitcode})", workers=(index,))
            if time.monotonic() > deadline:
                self._c_timeouts.inc()
                raise PoolTransportError(
                    f"pool worker {index} unresponsive after "
                    f"{timeout:.0f}s", workers=(index,))
        try:
            reply = conn.recv()
            status, payload = reply
            if status not in ("ready", "ok", "error"):
                raise ValueError(f"unknown reply status {status!r}")
        except (WorkerError, PoolTransportError):
            raise
        except Exception as exc:
            # EOF mid-message, an unpicklable stream, or a reply that is
            # not a valid (status, payload) pair: the pipe contents can
            # no longer be paired with commands.
            raise PoolTransportError(
                f"pool worker {index} sent a corrupt reply ({exc!r})",
                workers=(index,)) from exc
        if status == "error":
            raise WorkerError(
                f"pool worker {index} raised:\n{payload}")
        return payload

    #: Commands in flight per worker before the master waits for replies.
    _WINDOW = 4
    #: In-flight pickled command bytes per worker.  Kept under a quarter of
    #: the smallest common OS pipe buffer (64 KiB) so a send can never
    #: block on a pipe the worker has stopped draining: a master blocked
    #: in send() while the worker is blocked sending a large reply would
    #: deadlock with no timeout (Connection.send has no deadline).  A
    #: single command bigger than this is sent only to an *idle* worker —
    #: idle means it is blocked in recv(), actively draining the pipe, so
    #: an arbitrarily large send still streams through.
    _WINDOW_BYTES = 1 << 14

    def _dispatch(self, assignments, timeout: float | None = None):
        """Counted + traced wrapper around :meth:`_dispatch_inner`.

        At interpreter exit the atexit hook closes the pool under any
        dispatch still in flight in a daemon thread (the only threads
        left by then), and the dispatch fails on the closed pipes.  That
        thread parks instead of raising: the interpreter freezes it in a
        moment anyway, and the error would only print a traceback.
        """
        self._c_dispatches.inc()
        try:
            with _obs.span("pool.dispatch", commands=len(assignments),
                           workers=len({w for w, _ in assignments})):
                return self._dispatch_inner(assignments, timeout=timeout)
        except Exception:
            if (_EXITING.is_set()
                    and threading.current_thread()
                    is not threading.main_thread()):
                threading.Event().wait()  # pragma: no cover - see above
            raise

    def _dispatch_inner(self, assignments, timeout: float | None = None):
        """Send ``[(worker, msg), ...]`` and collect replies in list order.

        Sends are interleaved with receives, bounded per worker both in
        count (:attr:`_WINDOW`) and in pickled bytes
        (:attr:`_WINDOW_BYTES`).  Pipes are FIFO per worker, so replies
        pair with commands in send order; results are reassembled into
        the original sequence.

        Failure handling:

        * :class:`WorkerError` (user code raised in a worker): the
          remaining in-flight replies are drained first (the workers
          themselves survive — they caught the exception) so the pipes
          stay aligned with the protocol and the pool remains usable,
          then the error propagates.  Never retried.
        * :class:`PoolTransportError` (dead / hung / corrupt worker):
          the failed workers are respawned and their in-flight commands
          requeued — results stay bitwise-equal to a fault-free run
          because the staged arena, the command bytes and the rebuilt
          replicas are all identical.  After :attr:`_MAX_HEAL_ROUNDS`
          heal rounds the pool closes and the transport error
          propagates.
        """
        self._check_open()
        queues: dict[int, collections.deque] = {}
        bufs: list[bytes] = [b""] * len(assignments)
        for position, (worker, msg) in enumerate(assignments):
            buf = pickle.dumps(msg)
            bufs[position] = buf
            queues.setdefault(worker, collections.deque()).append(
                (position, buf))
        inflight = {worker: collections.deque() for worker in queues}
        inflight_bytes = {worker: 0 for worker in queues}
        results = [None] * len(assignments)

        def can_send(worker) -> bool:
            queue = queues[worker]
            if not queue or len(inflight[worker]) >= self._WINDOW:
                return False
            nbytes = len(queue[0][1])
            if nbytes > self._WINDOW_BYTES:
                return not inflight[worker]  # oversized: idle worker only
            return inflight_bytes[worker] + nbytes <= self._WINDOW_BYTES

        def send_pending() -> None:
            for worker in queues:
                while can_send(worker):
                    position, buf = queues[worker][0]
                    try:
                        self._conns[worker].send_bytes(buf)
                    except (BrokenPipeError, OSError) as exc:
                        # The command never entered the pipe (connection
                        # side is gone); leave it queued for the heal.
                        raise PoolTransportError(
                            f"pool worker {worker} pipe broke on send "
                            f"({exc!r})", workers=(worker,)) from exc
                    queues[worker].popleft()
                    inflight[worker].append((position, len(buf)))
                    inflight_bytes[worker] += len(buf)

        heal_rounds = 0
        to_heal: tuple = ()
        while True:
            try:
                # Healing runs inside the try: a replacement worker that
                # fails its handshake re-enters the bounded handler below
                # instead of escaping the retry loop.
                if to_heal:
                    failed, to_heal = to_heal, ()
                    self._heal(failed, queues, inflight, inflight_bytes,
                               bufs)
                while any(queues.values()) or any(inflight.values()):
                    send_pending()
                    worker = self._wait_any(
                        [w for w, pending in inflight.items() if pending],
                        timeout=timeout)
                    position, nbytes = inflight[worker][0]
                    try:
                        results[position] = self._recv(worker,
                                                       timeout=timeout)
                    except WorkerError:
                        # The "error" reply WAS consumed — account for it
                        # before draining so the drain does not wait for
                        # a reply that already arrived.
                        inflight[worker].popleft()
                        inflight_bytes[worker] -= nbytes
                        raise
                    inflight[worker].popleft()
                    inflight_bytes[worker] -= nbytes
                return results
            except WorkerError:
                # Deterministic user-code failure: drain, stay open,
                # never retry.  (Unsent queue entries never reached a
                # pipe, so dropping them cannot desynchronize anything.)
                self._drain({w: len(pending)
                             for w, pending in inflight.items()})
                raise
            except PoolTransportError as exc:
                if self._closed:
                    raise  # healing a closing pool would resurrect it
                heal_rounds += 1
                if heal_rounds > self._MAX_HEAL_ROUNDS:
                    self.close()
                    raise
                to_heal = exc.workers

    def _heal(self, failed, queues, inflight, inflight_bytes, bufs) -> None:
        """Respawn ``failed`` workers and requeue their in-flight commands.

        Requeued commands go to the *front* of the worker's queue in
        their original send order, so the replacement worker replays the
        exact FIFO the failed one saw.  Raises
        :class:`PoolTransportError` if a replacement fails its
        handshake — the caller's bounded loop counts that as another
        heal round.
        """
        for worker in failed:
            pending = inflight.get(worker)
            if pending is None:
                # Failure outside this dispatch's worker set (e.g. the
                # handshake of a previous heal): respawn only.
                self._respawn(worker)
                continue
            requeued = [(position, bufs[position])
                        for position, _ in pending]
            self._c_retries.inc(len(requeued))
            _obs.event("pool.retry", worker=worker, requeued=len(requeued))
            queues[worker].extendleft(reversed(requeued))
            pending.clear()
            inflight_bytes[worker] = 0
            self._respawn(worker)

    def _wait_any(self, workers: list[int],
                  timeout: float | None = None) -> int:
        """Block until one of ``workers`` has a reply ready; return it."""
        from multiprocessing.connection import wait as _conn_wait

        timeout = self._TIMEOUT_S if timeout is None else timeout
        deadline = time.monotonic() + timeout
        conn_to_worker = {self._conns[w]: w for w in workers}
        while True:
            ready = _conn_wait(list(conn_to_worker), timeout=0.2)
            if ready:
                return conn_to_worker[ready[0]]
            for worker in workers:
                if not self._procs[worker].is_alive():
                    raise PoolTransportError(
                        f"pool worker {worker} died (exit code "
                        f"{self._procs[worker].exitcode})",
                        workers=(worker,))
            if time.monotonic() > deadline:
                # No way to tell which of the awaited workers hung;
                # the heal replaces all of them.
                self._c_timeouts.inc(len(workers))
                raise PoolTransportError(
                    f"pool workers {workers} unresponsive after "
                    f"{timeout:.0f}s", workers=tuple(workers))

    def _drain(self, outstanding: dict[int, int]) -> None:
        """Consume (and discard) in-flight replies after a dispatch in
        which some worker raised.

        Leaving them queued would permanently desynchronize the pipes —
        the next dispatch would read the previous dispatch's replies as
        its own.  If a worker does not deliver during the drain, the pool
        is closed so later use fails loudly instead of silently
        misattributing results.
        """
        try:
            for worker, count in outstanding.items():
                for _ in range(count):
                    try:
                        self._recv(worker)
                    except WorkerError:
                        continue  # an "error" reply: consumed, re-aligned
        except Exception:  # dead/hung worker: the pipes cannot be trusted
            self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("pool is closed")

    # -- the one pooled call ------------------------------------------------
    #: Cap on shared memory staged per window (inputs + outputs).  Bounds
    #: peak /dev/shm use for large evaluation sets — run_in_batches
    #: exists to bound memory, and the pooled path must honour that
    #: contract (a default Docker ``/dev/shm`` is 64 MB).  Windows are
    #: whole multiples of ``batch_size``, so the chunk boundaries — and
    #: therefore the outputs — stay identical to the serial path.
    ARENA_CAP_BYTES = 256 * 1024 * 1024

    def _window_samples(self, row_bytes: int, batch_size: int) -> int:
        """Samples per bounded staging window.

        Always a whole multiple of ``batch_size`` (at least one batch) —
        the serial-equality guarantee depends on window boundaries
        falling on the serial path's chunk boundaries.
        """
        return max(
            batch_size,
            self.ARENA_CAP_BYTES // max(row_bytes, 1)
            // batch_size * batch_size,
        )

    def _stage(self, arrays: dict, outputs: dict, batch_size=None):
        """Copy named arrays into the arena; yield each window's refs.

        ``arrays`` (read by the workers) and ``outputs`` (written by
        them) map names to arrays.  Without ``batch_size`` they are
        staged whole, as one window; with it, they share a leading
        sample axis and are staged in bounded windows of whole
        ``batch_size`` multiples (:meth:`_window_samples`).  Yields each
        window's sample count and a ref per name; when the caller
        resumes, the window's ``outputs`` rows are copied back.
        """
        named = {**arrays, **outputs}
        if batch_size is None:
            windows = [slice(None)]
        else:
            if batch_size < 1:
                raise ValueError(
                    f"batch_size must be >= 1, got {batch_size}")
            n = len(next(iter(named.values())))
            size = self._window_samples(
                sum(array[:1].nbytes for array in named.values()),
                batch_size)
            windows = [slice(start, start + size)
                       for start in range(0, n, size)]
        for rows in windows:
            parts = {name: array[rows] for name, array in named.items()}
            self._arena.ensure(sum(_aligned(part.nbytes)
                                   for part in parts.values()))
            refs, offset = {}, 0
            for name, part in parts.items():
                refs[name] = self._arena.ref(part.shape, part.dtype, offset)
                if name in arrays:
                    np.copyto(self._arena.view(refs[name]), part)
                offset += _aligned(part.nbytes)
            yield len(next(iter(parts.values()))), refs
            for name in outputs:
                np.copyto(parts[name], self._arena.view(refs[name]))

    def _run(self, fn, arrays: dict, commands, outputs: dict | None = None,
             batch_size: int | None = None, weights=None,
             timeout: float | None = None) -> list[list]:
        """Stage ``arrays``/``outputs`` (:meth:`_stage`) and run ``fn``
        once per command of each window; returns each window's replies.

        ``commands(count)`` lists the commands of a window of ``count``
        samples as ``(rows, kwargs)`` pairs: ``rows`` maps a staged name
        to the rows of it the command sees (a slice, or one index; a
        name it leaves out is seen whole), and a worker runs
        ``fn(worker, **views, **kwargs)`` on them, ``worker`` being its
        ``_WorkerState``.  ``fn`` must be a module-level function: it
        crosses the pipe by name.  Commands go round-robin over the
        workers, after :meth:`sync_weights` (``weights``).
        """
        self._check_open()
        self.sync_weights(weights)
        replies = []
        for count, refs in self._stage(arrays, outputs or {}, batch_size):
            replies.append(self._dispatch([
                (index % self.workers, {
                    "cmd": "call", "fn": fn, "kwargs": kwargs,
                    "refs": {name: _rows(ref, rows.get(name))
                             for name, ref in refs.items()}})
                for index, (rows, kwargs) in enumerate(commands(count))],
                timeout=timeout))
        return replies

    def run_sharded(self, inputs: np.ndarray, batch_size: int,
                    precision=None,
                    neuron_kind: str | None = None,
                    timeout: float | None = None) -> np.ndarray:
        """Forward-only inference over ``inputs``, chunked exactly like the
        serial ``run_in_batches`` and distributed round-robin.

        Returns the concatenated ``(n, T, n_out)`` outputs — bitwise equal
        to the serial path because the per-chunk computations are the same
        calls on the same chunk boundaries.  Inputs larger than
        :attr:`ARENA_CAP_BYTES` are staged and dispatched in bounded
        windows of whole chunks.

        ``timeout`` overrides the pool-wide reply timeout for this call
        only.
        """
        from ..core.engine import resolve_precision

        dtype = resolve_precision(precision) or np.dtype(np.float64)
        inputs = np.asarray(inputs, dtype=dtype)
        outputs = np.empty(inputs.shape[:2] + (self.network.sizes[-1],),
                           dtype=dtype)
        kwargs = {"precision": precision, "neuron_kind": neuron_kind}
        self._run(_forward, {"x": inputs}, lambda count: [
            ({"x": rows, "out": rows}, kwargs)
            for rows in (slice(start, start + batch_size)
                         for start in range(0, count, batch_size))],
            outputs={"out": outputs}, batch_size=batch_size, timeout=timeout)
        return outputs

    def grad_shards(self, inputs: np.ndarray, targets: np.ndarray,
                    slices: list[slice], mode: str = "exact",
                    precision=None, weights=None,
                    timeout: float | None = None):
        """Run one gradient shard per worker; returns per-shard
        ``(loss, n, grads)`` in shard order (the fixed reduction order),
        the gradients copied back into master-owned arrays.

        ``weights`` stages per-layer override arrays into the shared
        weight block for this dispatch (see :meth:`sync_weights`): the
        workers then run forward *and* backward through the override —
        the pooled execution of hardware-aware training's
        straight-through estimator, bitwise-equal to the serial
        ``shard_grads(..., weights=...)`` of the same shard split.
        """
        from ..core.engine import resolve_precision

        if len(slices) > self.workers:
            raise ValueError(
                f"{len(slices)} shards for {self.workers} workers")
        dtype = resolve_precision(precision) or np.dtype(np.float64)
        grads = {f"grad{index}": np.empty((len(slices),) + layer.weight.shape,
                                          dtype=dtype)
                 for index, layer in enumerate(self.network.layers)}
        kwargs = {"mode": mode, "precision": precision}
        [replies] = self._run(
            _grad, {"x": np.asarray(inputs, dtype=dtype),
                    "targets": np.asarray(targets)},
            lambda count: [
                ({"x": rows, "targets": rows, **dict.fromkeys(grads, index)},
                 kwargs)
                for index, rows in enumerate(slices)],
            outputs=grads, weights=weights, timeout=timeout)
        return [(loss_value, shard_n, [grad[index] for grad in grads.values()])
                for index, (loss_value, shard_n) in enumerate(replies)]

    def map(self, fn, items, timeout: float | None = None) -> list:
        """``[fn(item) for item in items]`` over the workers, in order."""
        assignments = [
            (index % self.workers, {"cmd": "task", "payload": (fn, item)})
            for index, item in enumerate(items)
        ]
        return self._dispatch(assignments, timeout=timeout)

    # -- lifecycle ----------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and free every shared-memory block.

        Escalates per worker: a cooperative ``stop`` command, then
        SIGTERM, then SIGKILL — a signal-ignoring worker must not leak
        its process and pinned shared memory.  Idempotent, and
        deliberately quiet: it is the path taken after transport
        failures (dead/hung workers) and from ``__del__`` or the
        atexit hook at interpreter shutdown, so every step tolerates
        already-broken pipes and already-gone processes instead of
        raising or warning (pinned by ``tests/unit/test_runtime.py``).
        """
        if self._closed:
            return
        self._closed = True
        _LIVE_POOLS.discard(self)
        for conn in self._conns:
            try:
                conn.send({"cmd": "stop"})
            except (BrokenPipeError, OSError, ValueError):
                pass
        for proc in self._procs:
            try:
                proc.join(timeout=self._CLOSE_GRACE_S)  # cooperative stop
            except (OSError, ValueError, AssertionError):  # pragma: no cover
                pass  # interpreter teardown races
            self._stop(proc)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        self._arena.close()
        if self._weights_shm is not None:
            self._weight_views = []
            self._weights_shm.close()
            try:
                self._weights_shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            self._weights_shm = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        arch = ("-".join(str(s) for s in self.network.sizes)
                if self.network is not None else "generic")
        return f"WorkerPool({arch}, workers={self.workers}, {state})"

