"""Persistent multi-process worker pool with shared-memory data plane.

This is the execution backend of the parallel runtime: a set of long-lived
worker processes, each holding a live replica of the master's
:class:`~repro.core.network.SpikingNetwork` whose weight arrays are **views
into one shared-memory block** — the master memcpys updated weights into
that block once per dispatch (:meth:`WorkerPool.sync_weights`, ~100 µs for
the paper-scale MLPs) and every worker reads them zero-copy.

Large tensors never cross the command pipes.  Four shared-memory arenas
carry them instead:

========  =======================================================
arena     contents
========  =======================================================
inputs    the staged mini-batch / evaluation set (all workers read)
targets   training targets (labels or spike targets)
outputs   forward results, written at disjoint per-chunk offsets
grads     per-worker weight-gradient regions (64-byte aligned)
========  =======================================================

The pipes carry only small command dicts — arena references
``{name, shape, dtype, offset}``, shard bounds, scalars — and small
replies (loss values, accuracies, pickled task results).

Work units are deliberately identical to the serial path's:

* ``grad`` runs :func:`repro.runtime.parallel.shard_grads` — the same
  function the serial fallback calls in-process — so pooled gradients are
  bitwise-equal to a serial execution of the same shard split;
* ``forward`` runs one ``batch_size`` chunk of a sharded inference, the
  same chunks ``run_in_batches`` would process serially;
* ``hw_eval`` runs one device-noise seed of the Fig. 8 sweep via
  :func:`repro.hardware.mapped_network.seed_accuracy`;
* ``task`` runs an arbitrary picklable callable (sweep grid points).

Each worker owns a :class:`~repro.runtime.workspace.Workspace`, so
steady-state training allocates nothing per batch on either side of the
pipe.  Failures split into two kinds with opposite handling:

* a :class:`WorkerError` — user code raised *inside* a worker — is
  caught there, formatted, and re-raised in the master with the worker
  traceback attached.  Deterministic code fails deterministically, so
  these are never retried;
* a :class:`PoolTransportError` — dead process, reply timeout, corrupt
  reply — triggers **self-healing**: a
  :class:`~repro.runtime.supervisor.WorkerSupervisor` respawns the
  failed worker from the original spec and the dispatch requeues
  exactly its in-flight commands, with bounded attempts and exponential
  backoff.  Because the arenas are master-owned and replicas rebuild
  deterministically, a healed dispatch returns results bitwise-equal to
  a fault-free run.

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
import time
import traceback
import weakref
from multiprocessing import shared_memory

import numpy as np

from .. import obs as _obs
from ..common import faults as _faults
from .supervisor import RestartPolicy, WorkerSupervisor

__all__ = ["WorkerPool", "WorkerError", "PoolTransportError", "PoolCache"]

#: Pools that still own shared-memory segments.  An atexit hook closes
#: them because ``__del__`` alone is not enough at interpreter shutdown:
#: a frozen daemon thread blocked in a dispatch keeps its pool reachable
#: forever, the segments are never unlinked, and the multiprocessing
#: resource tracker prints a "leaked shared_memory objects" warning.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


@atexit.register
def _close_live_pools() -> None:  # pragma: no cover - exercised in a
    for pool in list(_LIVE_POOLS):  # subprocess by tests/unit/test_runtime.py
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


def _default_start_method() -> str:
    env = os.environ.get("REPRO_MP_START", "").strip()
    if env:
        return env
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def _aligned(nbytes: int) -> int:
    return (int(nbytes) + _ALIGN - 1) // _ALIGN * _ALIGN


# ---------------------------------------------------------------------------
# Shared-memory plumbing
# ---------------------------------------------------------------------------
class _Arena:
    """A master-owned, grow-on-demand shared-memory block."""

    def __init__(self, tag: str):
        self.tag = tag
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

    def ref(self, shape, dtype, offset: int = 0) -> dict:
        """A picklable handle a worker can attach and view."""
        return {
            "name": self._shm.name,
            "shape": tuple(int(s) for s in shape),
            "dtype": np.dtype(dtype).str,
            "offset": int(offset),
        }

    def view(self, shape, dtype, offset: int = 0) -> np.ndarray:
        return np.ndarray(tuple(int(s) for s in shape), dtype=np.dtype(dtype),
                          buffer=self._shm.buf, offset=int(offset))

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm = None
            self.capacity = 0


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
    """Per-process state: attached blocks, network replicas, workspace."""

    def __init__(self, spec: _PoolSpec):
        from .workspace import Workspace

        self.spec = spec
        self.blocks: dict[str, shared_memory.SharedMemory] = {}
        self.networks: dict[str, object] = {}
        self.ws = Workspace()

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
                 generation: int = 0) -> None:
    """Command loop executed in each worker process."""
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
            # design — the supervisor kills hung workers from outside.
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
                # supervisor will terminate this process.
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
    if cmd == "forward":
        network = state.network(msg.get("neuron_kind"))
        x = state.view(msg["in"])
        out_view = state.view(msg["out"])
        outputs, _ = network.run(x, engine=msg["engine"],
                                 precision=msg["precision"],
                                 workspace=state.ws)
        np.copyto(out_view, outputs)
        state.ws.release(outputs)
        return None
    if cmd == "grad":
        from .parallel import shard_grads

        network = state.network()
        x = state.view(msg["in"])
        targets = state.view(msg["targets"])
        loss_value, shard_n, grads = shard_grads(
            network, state.spec.loss, x, targets, mode=msg["mode"],
            engine=msg["engine"], precision=msg["precision"], ws=state.ws)
        for grad, ref in zip(grads, msg["grads"]):
            # casting="no": the master sized the arena for the dtype this
            # engine/precision combination actually produces — a silent
            # downcast here would diverge from the serial path.
            np.copyto(state.view(ref), grad, casting="no")
        return loss_value, shard_n
    if cmd == "hw_eval":
        from ..hardware.mapped_network import seed_correct

        network = state.network()
        inputs = state.view(msg["in"])
        return seed_correct(
            network, inputs, state.view(msg["labels"]), bits=msg["bits"],
            variation=msg["variation"], seed=msg["seed"],
            batch_size=msg["batch_size"], engine=msg["engine"],
            precision=msg["precision"], device=msg.get("device"))
    if cmd == "task":
        fn, item = msg["payload"]
        return fn(item)
    raise ValueError(f"unknown pool command {cmd!r}")


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
        Loss object shipped to the workers for ``grad`` dispatches (must be
        picklable; both built-in losses are).
    start_method:
        ``"fork"`` / ``"spawn"`` / ``"forkserver"``; default from
        ``REPRO_MP_START``, else fork where available.
    timeout:
        Seconds to wait for any single worker reply before raising
        (default from ``REPRO_POOL_TIMEOUT``, else 600).
    restart_policy:
        Bounds and pacing of self-healing worker restarts (a
        :class:`~repro.runtime.supervisor.RestartPolicy`; the defaults
        allow 3 heal rounds per dispatch).
    """

    def __init__(self, network=None, workers: int = 1, loss=None,
                 start_method: str | None = None,
                 timeout: float | None = None,
                 restart_policy: RestartPolicy | None = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.network = network
        self.workers = int(workers)
        if timeout is None:
            timeout = float(os.environ.get("REPRO_POOL_TIMEOUT", "600"))
        self.timeout = timeout
        # Lifetime robustness counters live in a *private* registry (not
        # the installed telemetry's): pools outlive runs via PoolCache,
        # so binding them to one run's registry would strand the others.
        # The installed tracer is looked up per event instead.
        self.metrics = _obs.MetricsRegistry()
        self._c_restarts = self.metrics.counter(
            "pool.restarts", help="workers respawned by the supervisor")
        self._c_retries = self.metrics.counter(
            "pool.retries", help="in-flight commands requeued after a heal")
        self._c_dispatches = self.metrics.counter(
            "pool.dispatches", help="dispatch rounds sent to the fleet")
        self._c_timeouts = self.metrics.counter(
            "pool.timeouts", help="workers declared unresponsive (timeout)")
        self._supervisor = WorkerSupervisor(self, restart_policy)
        # Every attribute close() touches exists before anything that can
        # raise, so a failed constructor (bad start method, spawn failure)
        # still unlinks whatever shared memory it had already created.
        self._closed = False
        self._weights_shm: shared_memory.SharedMemory | None = None
        self._weight_views: list[np.ndarray] = []
        self._arenas: dict[str, _Arena] = {}
        self._conns = []
        self._procs = []
        self._generations = [0] * self.workers
        try:
            self._spec = self._build_spec(network, loss)
            self._arenas = {
                tag: _Arena(tag)
                for tag in ("inputs", "targets", "outputs", "grads")
            }
            self._ctx = mp.get_context(start_method
                                       or _default_start_method())
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
        proc = self._ctx.Process(
            target=_worker_main,
            args=(self._spec, child_conn, index, self._generations[index]),
            daemon=True, name=f"repro-worker-{index}")
        proc.start()
        child_conn.close()
        return proc, parent_conn

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

        Every network-dispatch (:meth:`run_sharded`, :meth:`grad_shards`,
        :meth:`hw_eval`) calls this first — a ~100 µs memcpy for the paper
        MLP — so a pool reused across optimizer steps (or handed to
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
        timeout = self.timeout if timeout is None else timeout
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
        """Counted + traced wrapper around :meth:`_dispatch_inner`."""
        self._c_dispatches.inc()
        with _obs.span("pool.dispatch", commands=len(assignments),
                       workers=len({w for w, _ in assignments})):
            return self._dispatch_inner(assignments, timeout=timeout)

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
          the supervisor respawns the failed workers and their in-flight
          commands are requeued — results stay bitwise-equal to a
          fault-free run because the staged arenas, the command bytes
          and the rebuilt replicas are all identical.  After
          ``restart_policy.max_restarts`` heal rounds the pool closes
          and the transport error propagates.
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
                if heal_rounds > self._supervisor.policy.max_restarts:
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
                self._supervisor.restart(worker)
                continue
            requeued = [(position, bufs[position])
                        for position, _ in pending]
            self._c_retries.inc(len(requeued))
            _obs.event("pool.retry", worker=worker, requeued=len(requeued))
            queues[worker].extendleft(reversed(requeued))
            pending.clear()
            inflight_bytes[worker] = 0
            self._supervisor.restart(worker)

    def _wait_any(self, workers: list[int],
                  timeout: float | None = None) -> int:
        """Block until one of ``workers`` has a reply ready; return it."""
        from multiprocessing.connection import wait as _conn_wait

        timeout = self.timeout if timeout is None else timeout
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

    def _stage(self, tag: str, array: np.ndarray):
        arena = self._arenas[tag]
        arena.ensure(array.nbytes)
        view = arena.view(array.shape, array.dtype)
        np.copyto(view, array)
        return arena

    # -- high-level dispatches ----------------------------------------------
    #: Cap on shared memory staged per inference window (inputs +
    #: outputs), overridable via ``REPRO_ARENA_CAP_BYTES``.  Bounds peak
    #: /dev/shm use for large evaluation sets — run_in_batches exists to
    #: bound memory, and the pooled path must honour that contract (a
    #: default Docker ``/dev/shm`` is 64 MB).  Windows are whole multiples
    #: of ``batch_size``, so the chunk boundaries — and therefore the
    #: outputs — stay identical to the serial path.
    ARENA_CAP_BYTES = int(os.environ.get("REPRO_ARENA_CAP_BYTES",
                                         256 * 1024 * 1024))

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

    def run_sharded(self, inputs: np.ndarray, batch_size: int,
                    engine: str = "fused", precision=None,
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
        only — latency-sensitive callers (serving ticks) should not
        share a 600 s training default.
        """
        from ..core.engine import resolve_precision

        self.sync_weights()
        dtype = resolve_precision(precision) or np.dtype(np.float64)
        inputs = np.asarray(inputs, dtype=dtype)
        n, steps, n_in = inputs.shape
        n_out = self.network.sizes[-1]
        row_bytes = steps * n_in * dtype.itemsize
        out_row_bytes = steps * n_out * dtype.itemsize
        window = self._window_samples(row_bytes + out_row_bytes, batch_size)
        outputs = np.empty((n, steps, n_out), dtype=dtype)
        for window_start in range(0, n, window):
            count = min(window, n - window_start)
            self._run_window(inputs[window_start:window_start + count],
                             outputs[window_start:window_start + count],
                             batch_size, engine, precision, neuron_kind,
                             timeout)
        return outputs

    def _run_window(self, inputs, outputs, batch_size, engine, precision,
                    neuron_kind, timeout=None) -> None:
        """Stage one bounded window and dispatch its chunks round-robin."""
        n, steps, _ = inputs.shape
        n_out = outputs.shape[2]
        dtype = inputs.dtype
        in_arena = self._stage("inputs", inputs)
        out_arena = self._arenas["outputs"]
        out_arena.ensure(n * steps * n_out * dtype.itemsize)
        row_bytes = steps * inputs.shape[2] * dtype.itemsize
        out_row_bytes = steps * n_out * dtype.itemsize
        assignments = []
        for index, start in enumerate(range(0, n, batch_size)):
            count = min(batch_size, n - start)
            msg = {
                "cmd": "forward",
                "in": in_arena.ref((count, steps, inputs.shape[2]), dtype,
                                   offset=start * row_bytes),
                "out": out_arena.ref((count, steps, n_out), dtype,
                                     offset=start * out_row_bytes),
                "engine": engine,
                "precision": precision,
                "neuron_kind": neuron_kind,
            }
            assignments.append((index % self.workers, msg))
        self._dispatch(assignments, timeout=timeout)
        np.copyto(outputs, out_arena.view((n, steps, n_out), dtype))

    def grad_shards(self, inputs: np.ndarray, targets: np.ndarray,
                    slices: list[slice], mode: str = "exact",
                    engine: str = "fused", precision=None, weights=None,
                    timeout: float | None = None):
        """Run one gradient shard per worker; returns per-shard
        ``(loss, n, grads)`` in shard order (the fixed reduction order).

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
        self.sync_weights(weights)
        dtype = resolve_precision(precision) or np.dtype(np.float64)
        # The reference backward always produces float64 gradients
        # regardless of the forward precision; only the fused engine
        # keeps them in ``precision``.  The arena dtype must match what
        # the workers actually compute, or copying into it would downcast
        # and diverge from the serial path.
        grad_dtype = dtype if engine == "fused" else np.dtype(np.float64)
        inputs = np.asarray(inputs, dtype=dtype)
        targets = np.asarray(targets)
        in_arena = self._stage("inputs", inputs)
        t_arena = self._stage("targets", targets)

        shapes = [layer.weight.shape for layer in self.network.layers]
        layer_bytes = [_aligned(int(np.prod(s)) * grad_dtype.itemsize)
                       for s in shapes]
        region = sum(layer_bytes)
        g_arena = self._arenas["grads"]
        g_arena.ensure(region * len(slices))

        row_bytes = int(np.prod(inputs.shape[1:])) * inputs.dtype.itemsize
        t_row_bytes = (int(np.prod(targets.shape[1:], dtype=np.int64))
                       * targets.dtype.itemsize)
        assignments = []
        grad_refs_per_shard = []
        for index, sl in enumerate(slices):
            count = sl.stop - sl.start
            base = index * region
            grad_refs, cursor = [], base
            for shape, nbytes in zip(shapes, layer_bytes):
                grad_refs.append(g_arena.ref(shape, grad_dtype,
                                             offset=cursor))
                cursor += nbytes
            grad_refs_per_shard.append(grad_refs)
            msg = {
                "cmd": "grad",
                "in": in_arena.ref((count,) + inputs.shape[1:], dtype,
                                   offset=sl.start * row_bytes),
                "targets": t_arena.ref((count,) + targets.shape[1:],
                                       targets.dtype,
                                       offset=sl.start * t_row_bytes),
                "grads": grad_refs,
                "mode": mode,
                "engine": engine,
                "precision": precision,
            }
            assignments.append((index, msg))
        replies = self._dispatch(assignments, timeout=timeout)
        results = []
        for (loss_value, shard_n), grad_refs in zip(replies,
                                                    grad_refs_per_shard):
            grads = [g_arena.view(ref["shape"], ref["dtype"],
                                  offset=ref["offset"])
                     for ref in grad_refs]
            results.append((loss_value, shard_n, grads))
        return results

    def hw_eval(self, inputs: np.ndarray, labels: np.ndarray, tasks,
                batch_size: int = 64, engine: str = "fused",
                precision=None, device=None,
                timeout: float | None = None) -> list[float]:
        """One Fig. 8 accuracy per ``(bits, variation, seed)`` task.

        The evaluation set and labels are staged in shared memory for the
        whole task list — in bounded sample windows when the set exceeds
        :attr:`ARENA_CAP_BYTES` — and the pipes carry only the grid
        coordinates.  Each window returns per-task correct *counts*
        (exactly reproducible because the seed fully determines the
        programming draw), so the summed accuracies equal the
        full-set serial evaluation's.

        ``device`` (a picklable
        :class:`~repro.hardware.devices.RRAMDeviceConfig`, or ``None``)
        rides the command dict to every task as the base device model the
        grid coordinates override — how a served hardware profile's
        window/read-noise parameters reach a pooled sweep.
        """
        self.sync_weights()
        inputs = np.asarray(inputs, dtype=np.float64)
        labels = np.asarray(labels)
        tasks = list(tasks)
        n = inputs.shape[0]
        row_bytes = int(np.prod(inputs.shape[1:])) * inputs.dtype.itemsize
        window = self._window_samples(row_bytes, batch_size)
        counts = [0] * len(tasks)
        for window_start in range(0, n, window):
            stop = min(window_start + window, n)
            in_window = inputs[window_start:stop]
            labels_window = labels[window_start:stop]
            in_ref = self._stage("inputs", in_window).ref(
                in_window.shape, in_window.dtype)
            labels_ref = self._stage("targets", labels_window).ref(
                labels_window.shape, labels_window.dtype)
            assignments = [
                (index % self.workers, {
                    "cmd": "hw_eval", "in": in_ref, "labels": labels_ref,
                    "bits": int(bits), "variation": float(variation),
                    "seed": int(seed), "batch_size": int(batch_size),
                    "engine": engine, "precision": precision,
                    "device": device,
                })
                for index, (bits, variation, seed) in enumerate(tasks)
            ]
            for index, count in enumerate(
                    self._dispatch(assignments, timeout=timeout)):
                counts[index] += count
        return [count / n for count in counts]

    def map(self, fn, items, timeout: float | None = None) -> list:
        """``[fn(item) for item in items]`` over the workers, in order."""
        assignments = [
            (index % self.workers, {"cmd": "task", "payload": (fn, item)})
            for index, item in enumerate(items)
        ]
        return self._dispatch(assignments, timeout=timeout)

    # -- lifecycle ----------------------------------------------------------
    #: Seconds granted per escalation stage in :meth:`close` (stop →
    #: terminate → kill).  A class attribute so tests exercising the
    #: escalation can shrink it without waiting out real grace periods.
    _CLOSE_GRACE_S = 5.0

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
                proc.join(timeout=self._CLOSE_GRACE_S)
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=self._CLOSE_GRACE_S)
                if proc.is_alive():  # SIGTERM ignored: escalate
                    proc.kill()
                    proc.join(timeout=self._CLOSE_GRACE_S)
            except (OSError, ValueError, AssertionError):
                pass  # pragma: no cover - interpreter teardown races
        for conn in self._conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        for arena in self._arenas.values():
            arena.close()
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


class PoolCache:
    """Worker pools shared across the grid cells of a scenario run.

    A full harness grid touches the same (network, workers) pair dozens of
    times — train-step cells, inference cells, variation-sweep seeds.
    Spawning a fresh :class:`WorkerPool` per cell would pay process
    startup and shared-memory setup over and over; the cache keys live
    pools by ``(id(network), workers)`` and hands the same pool back for
    every cell that asks, closing them all at context exit.

    Keying by object identity is deliberate: a pool's workers hold
    replicas of one concrete network whose weights are synced through
    shared memory — two equal-shaped but distinct networks must not share
    a pool.  The cache keeps a reference to each keyed network so an id
    cannot be recycled while its pool lives.
    """

    def __init__(self):
        self._pools: dict = {}
        self._networks: dict = {}

    def get(self, network, workers: int) -> "WorkerPool":
        if workers < 1:
            raise ValueError(f"a pooled cell needs workers >= 1, "
                             f"got {workers}")
        key = (id(network), int(workers))
        pool = self._pools.get(key)
        if pool is None:
            pool = WorkerPool(network, workers=workers)
            self._pools[key] = pool
            self._networks[key] = network
        return pool

    def __len__(self) -> int:
        return len(self._pools)

    def close(self) -> None:
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()
        self._networks.clear()

    def __enter__(self) -> "PoolCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
