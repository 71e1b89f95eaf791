"""The serving front-end: resident model, sessions, micro-batched ticks.

A :class:`ModelServer` holds one resident
:class:`~repro.core.network.SpikingNetwork` and any number of client
:class:`~repro.serve.session.Session`\\ s.  Clients ``submit`` chunks of
their live spike stream and receive a :class:`~repro.serve.batcher.Ticket`;
the server's :meth:`~ModelServer.poll` runs a *tick* whenever the
micro-batcher says one is due:

1. **collect** — up to ``max_batch`` queued chunks, FIFO, one per session;
2. **gather** — take the sessions' rows of the server's resident
   :class:`~repro.core.engine.StreamState` slab (one row per session)
   into one batched state, one ``np.take`` per array
   (:meth:`~repro.core.engine.StreamState.gather`), and copy the chunks
   into one padded time-major ``(T_max, B, n_in)`` arena buffer (rows
   shorter than ``T_max`` are zero-padded and tracked via ``lengths``,
   which a tick of equal-length chunks leaves out);
3. **run** — a single :meth:`~repro.core.network.SpikingNetwork.run_stream`
   call advances all sessions at once;
4. **scatter** — write the advanced rows back to the slab, one indexed
   assignment per array (:meth:`~repro.core.engine.StreamState.scatter`),
   and complete each ticket with its row's valid output slice.

Every stream runs the fused engine, so the gather/scatter is
bitwise-transparent: a session receives exactly the spikes it would have
received streaming alone, regardless of which other sessions shared its
ticks or which slab row it holds (the event product computes rows
independently — see ``docs/serving.md``).  A session takes a zeroed row
when it opens; its row is freed once it is closed or reaped and its last
queued chunk has settled (completed, failed or expired), and the slab
doubles when every row is held.

The server can also serve the *simulated hardware* instead of the ideal
software model (``hardware=``, a
:class:`~repro.hardware.mapped_network.HardwareMappedNetwork` mapped from
the served network): ticks then substitute the crossbars' achieved
(quantized + variation-noisy) weights into every crossbar product via the
fused engine's weight-override hook — same dynamics code, hardware weight
values, same bitwise batching transparency.  ``shadow=True`` runs *both*
models on every stream and reports their per-chunk output divergence —
the canary deployment for a hardware realization (see
``docs/hardware.md``).

The server is single-threaded and clock-injected: ``poll``/``submit``
accept an explicit ``now`` so schedulers, tests and the open-loop load
generator (:mod:`repro.serve.loadgen`) can drive it deterministically; by
default it reads ``time.monotonic``.

Degradation ladder (see ``docs/robustness.md``): requests carry optional
deadlines and are **shed** unserved once expired (``request_ttl_ms``);
a failing batched tick falls back to **per-request isolation** so one
poisoned chunk fails only its own ticket; a failing hardware weight read
falls back to the **ideal weights** with tickets stamped
``degraded=True``; a repeatedly failing shadow stream trips a **circuit
breaker** that disables shadowing instead of failing the primary; idle
sessions are **reaped** after ``session_ttl_s``.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .. import obs as _obs
from ..common import faults as _faults
from ..common.errors import ShapeError, StateError
from ..core.engine import StreamState, resolve_precision
from ..core.network import SpikingNetwork
from ..core.workspace import arena
from ..hardware.mapped_network import HardwareMappedNetwork
from .batcher import MicroBatcher, StreamRequest, Ticket
from .session import Session

__all__ = ["ModelServer"]

#: The server's counter instruments (``serve.<key>`` in the registry);
#: the legacy ``stats`` keys are a compatibility view over these.
_SERVE_COUNTERS = (
    ("submitted", "admission attempts that reached the queue (incl. "
                  "rejected)"),
    ("rejected", "chunks refused by the bounded queue"),
    ("completed", "chunks answered"),
    ("ticks", "server ticks that served at least one chunk"),
    ("steps", "simulated time steps served"),
    ("closed_sessions", "sessions closed by their client"),
    ("shadow_chunks", "chunks also advanced through the shadow stream"),
    ("expired", "chunks shed past their queue-time deadline"),
    ("failed", "chunks whose ticket resolved with an error"),
    ("retried", "chunks completed via the isolation retry path"),
    ("degraded_chunks", "chunks served through a fallback weight read"),
    ("weight_fallbacks", "hardware weight reads that fell back to ideal"),
    ("shadow_failures", "shadow-path failures absorbed by the breaker"),
    ("reaped_sessions", "idle sessions dropped past session_ttl_s"),
)


class ModelServer:
    """Streaming inference server for one resident network.

    Parameters
    ----------
    network:
        The model to serve.  Its weights are programmed into the server
        when it is built, like a crossbar's: an in-place edit of the
        network's weight arrays afterwards is not served by ticks — build
        a new server (or deploy) to serve new weights.
    engine:
        Only ``"fused"`` (the default): every stream runs the fused
        engine, whose batching is bitwise-transparent.  Any other value
        raises ``ValueError``; the reference oracle (the autograd tape)
        is one-shot only, ``network.run(x, engine="step")``.
    precision:
        ``"float64"`` (default) or ``"float32"`` for stream state and
        outputs.
    max_batch, max_wait_ms, queue_limit:
        Scheduler knobs, passed to :class:`~repro.serve.batcher.
        MicroBatcher`: chunks per tick, latency cap, admission bound.
    hardware:
        Optional :class:`~repro.hardware.mapped_network.
        HardwareMappedNetwork` **mapped from this network**.  When given
        (and ``shadow`` is off) the server serves the hardware
        realization: every tick substitutes the crossbars' achieved
        weights into the crossbar products (programmed into the server
        once per programming generation of the mapped network, so a
        ``reprogram()`` between ticks is served from the next tick).
    shadow:
        Serve the *ideal* model but also advance a hardware shadow stream
        per session on the same chunks, recording per-chunk output
        divergence on each :class:`~repro.serve.batcher.Ticket` and in
        ``stats`` (see :meth:`mean_divergence`).  Requires ``hardware``.
        Roughly doubles tick compute.
    request_ttl_ms:
        Queue-time deadline per request: a chunk still queued this long
        after submission is shed (ticket resolved ``expired``) instead
        of served late.  ``None`` (default) disables shedding.
    session_ttl_s:
        Idle-session reaping: a session with no completed chunk for
        this long (and nothing queued) is dropped during :meth:`poll`;
        a ``submit`` to it raises
        :class:`~repro.common.errors.StateError`.  ``None`` disables
        reaping.
    shadow_threshold:
        Shadow circuit breaker: after this many shadow-path failures
        the shadow stream is disabled (``shadow_disabled``) rather than
        ever failing the primary.
    clock:
        0-arg callable returning seconds; default ``time.monotonic``.
    instance:
        Optional replica label (e.g. ``"r0"``).  When several servers
        share one metrics registry — the fleet
        (:class:`~repro.serve.fleet.Fleet`) binds all replicas to the
        run's bundle — each server's ``serve.*`` instruments must stay
        distinct or their books merge; the label becomes a
        ``replica=...`` instrument label and a ``replica`` attr on
        every trace record this server emits.  ``None`` (default)
        keeps the unlabelled single-server names.
    telemetry:
        Optional :class:`~repro.obs.Telemetry` bundle.  Defaults to the
        process-installed bundle (:func:`repro.obs.active_telemetry`) at
        construction time, so a server built inside ``obs.active(...)``
        records its metrics into the run's shared registry and emits
        per-ticket lifecycle events on its tracer.  Without a bundle
        the server still meters — counters live in a private registry
        behind the :attr:`stats` view — but emits no trace records.
    """

    def __init__(self, network: SpikingNetwork, *, engine: str = "fused",
                 precision: str = "float64", max_batch: int = 8,
                 max_wait_ms: float = 2.0, queue_limit: int = 64,
                 hardware: HardwareMappedNetwork | None = None,
                 shadow: bool = False,
                 request_ttl_ms: float | None = None,
                 session_ttl_s: float | None = None,
                 shadow_threshold: int = 3, clock=time.monotonic,
                 instance: str | None = None,
                 telemetry: _obs.Telemetry | None = None):
        if engine != "fused":
            raise ValueError(
                f"ModelServer streams on the fused engine only, got "
                f"engine={engine!r}; the reference oracle (the autograd "
                f"tape) is one-shot: network.run(x, engine=\"step\")")
        if shadow and hardware is None:
            raise ValueError("shadow mode needs a hardware-mapped network "
                             "to shadow (pass hardware=)")
        if hardware is not None and hardware.software_network is not network:
            raise ValueError(
                "hardware was mapped from a different network object; "
                "map it from the served network so the realization "
                "matches the model")
        if request_ttl_ms is not None and request_ttl_ms <= 0:
            raise ValueError(
                f"request_ttl_ms must be > 0, got {request_ttl_ms}")
        if session_ttl_s is not None and session_ttl_s <= 0:
            raise ValueError(
                f"session_ttl_s must be > 0, got {session_ttl_s}")
        if shadow_threshold < 1:
            raise ValueError(
                f"shadow_threshold must be >= 1, got {shadow_threshold}")
        self.network = network
        self.hardware = hardware
        self.shadow = bool(shadow)
        self.request_ttl = (None if request_ttl_ms is None
                            else float(request_ttl_ms) / 1e3)
        self.session_ttl = (None if session_ttl_s is None
                            else float(session_ttl_s))
        self.shadow_threshold = int(shadow_threshold)
        self._shadow_tripped = False
        self.dtype = resolve_precision(precision) or np.dtype(np.float64)
        self.batcher = MicroBatcher(max_batch=max_batch,
                                    max_wait_ms=max_wait_ms,
                                    queue_limit=queue_limit)
        self.clock = clock
        self.model_name: str | None = None
        self.model_version: str | None = None
        self.model_profile: str | None = None
        self.model_meta: dict = {}
        # The served weights, programmed once (see _served_weights).
        self._programmed: dict = {}
        self._served_weights()
        # Resident stream state, one row per session (a shadow-mode
        # server carries the hardware shadow streams in a second slab).
        self._slab = StreamState.for_network(network, 1, self.dtype)
        self._shadow_slab = (StreamState.for_network(network, 1, self.dtype)
                             if self.shadow else None)
        self._zero_row = StreamState.for_network(network, 1, self.dtype)
        self._free_rows = [0]
        self._sessions: dict[str, Session] = {}
        # Closed or reaped sessions whose rows _take_row has not yet
        # reclaimed (a row is reclaimed once no chunk of its session is
        # queued).
        self._closing: list[Session] = []
        self._session_seq = 0
        self._request_seq = 0
        self.instance = instance
        self.telemetry = (telemetry if telemetry is not None
                          else _obs.active_telemetry())
        self.metrics = (self.telemetry.metrics
                        if self.telemetry is not None
                        else _obs.MetricsRegistry())
        # Bind the trace hooks once: with telemetry these are the
        # tracer's own methods (no per-call indirection on the hot
        # lifecycle-event path), without they are shared no-ops.  A
        # labelled replica stamps every record with its label so one
        # fleet trace stays attributable per replica (local session ids
        # and request seqs repeat across replicas).
        if self.telemetry is not None:
            tracer = self.telemetry.tracer
            if instance is None:
                self._event = tracer.event
                self._span = tracer.span
            else:
                self._event = functools.partial(tracer.event,
                                                replica=instance)
                self._span = functools.partial(tracer.span,
                                               replica=instance)
            self._trace_clock = self.telemetry.clock
        else:
            self._event = _noop_event
            self._span = _noop_span
            self._trace_clock = None
        labels = {} if instance is None else {"replica": instance}
        self._counters = {
            key: self.metrics.counter(f"serve.{key}", help=help_text,
                                      **labels)
            for key, help_text in _SERVE_COUNTERS
        }
        self._divergence_sum = self.metrics.counter(
            "serve.divergence_sum",
            help="summed per-chunk shadow output divergence", **labels)
        self._max_tick_batch = self.metrics.gauge(
            "serve.max_tick_batch", help="largest batch any tick served",
            **labels)
        # Queue wait is virtual time (tick `now` minus request arrival) —
        # pure arithmetic on injected clocks, so it is always metered and
        # stays deterministic under the harness fake timer.
        self._queue_wait = self.metrics.histogram(
            "serve.queue_wait_ms",
            help="per-chunk wait between submit and its serving tick (ms)",
            **labels)

    @classmethod
    def from_registry(cls, registry, name: str, version: str | None = None,
                      hardware_profile=None, **kwargs) -> "ModelServer":
        """Cold-start a server from a
        :class:`~repro.serve.registry.ModelRegistry` checkpoint.

        ``hardware_profile`` additionally loads a versioned hardware
        profile (``"hw0001"``-style id, or ``True`` for an automatic
        pick) and maps the checkpoint onto crossbars under it — the
        hardware-in-the-loop cold start.  ``True`` prefers the profile
        **co-saved with the chosen checkpoint**
        (:meth:`~repro.serve.registry.ModelRegistry.save_pair` records
        the link in the profile metadata), so a hardware-aware training
        run cold-starts as exactly the (weights, crossbar recipe) pair it
        optimised; without a linked profile the newest one is used.
        Combine with ``shadow=True`` to serve the ideal model while
        canarying the realization.
        """
        network, hardware, version, profile_id, meta = _load_generation(
            registry, name, version, hardware_profile)
        server = cls(network, hardware=hardware, **kwargs)
        _stamp_generation([server], name, version, profile_id, meta)
        return server

    # -- telemetry -----------------------------------------------------------
    @property
    def stats(self) -> dict:
        """Legacy counter view over the registry instruments.

        Same keys and int/float types as the pre-``repro.obs`` dict;
        the instruments themselves live in :attr:`metrics` under
        ``serve.<key>`` names.
        """
        view = {key: int(counter.value)
                for key, counter in self._counters.items()}
        view["max_tick_batch"] = int(self._max_tick_batch.value)
        view["divergence_sum"] = self._divergence_sum.value
        return view

    def check_invariants(self) -> dict:
        """Verify ticket accounting: every submission must be exactly one
        of completed / expired / failed / rejected / still queued.

        Returns the accounting dict; raises ``StateError`` when the
        books don't balance — the tripwire that keeps the registry
        migration (or any future refactor) from silently losing tickets.
        """
        c = self._counters
        accounted = (int(c["completed"].value) + int(c["expired"].value)
                     + int(c["failed"].value) + int(c["rejected"].value)
                     + self.batcher.pending)
        submitted = int(c["submitted"].value)
        books = {
            "submitted": submitted,
            "completed": int(c["completed"].value),
            "expired": int(c["expired"].value),
            "failed": int(c["failed"].value),
            "rejected": int(c["rejected"].value),
            "in_flight": self.batcher.pending,
        }
        if submitted != accounted:
            raise StateError(
                f"ticket accounting drift: submitted={submitted} but "
                f"accounted={accounted} ({books})")
        held = [s.row for s in self._sessions.values()]
        held += [s.row for s in self._closing]
        rows = sorted(held + self._free_rows)
        if rows != list(range(self._slab.batch)):
            raise StateError(
                f"slab row drift: {len(held)} held + "
                f"{len(self._free_rows)} free rows do not partition the "
                f"{self._slab.batch}-row slab")
        return books

    # -- sessions ------------------------------------------------------------
    def open_session(self, now: float | None = None) -> str:
        """Create a fresh stream; returns its session id."""
        now = self.clock() if now is None else now
        self._session_seq += 1
        session_id = f"s{self._session_seq:06d}"
        self._sessions[session_id] = Session(session_id, self._slab,
                                             self._take_row(), now)
        return session_id

    def session(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise StateError(f"unknown or closed session {session_id!r}")
        return session

    def close_session(self, session_id: str) -> None:
        """Close a session.  Its queued chunks (if any) still complete;
        its slab row is reused once the last of them has settled."""
        self._drop(self.session(session_id))
        self._counters["closed_sessions"].inc()
        self._event("session.closed", session=session_id)

    def _slabs(self) -> list[StreamState]:
        return [slab for slab in (self._slab, self._shadow_slab)
                if slab is not None]

    def _drop(self, session: Session) -> None:
        """Forget a closed or reaped session; :meth:`_take_row` reclaims
        its row once none of its chunks is queued."""
        del self._sessions[session.session_id]
        self._closing.append(session)

    def _take_row(self) -> int:
        """A zeroed slab row for a new session.  When no row is free it
        first reclaims the rows of dropped sessions with nothing queued
        (every queued chunk has then settled: completed, failed or
        expired), and only when all rows are still held do the slabs
        double."""
        if not self._free_rows:
            pending = self.batcher.session_pending
            closing, self._closing = self._closing, []
            for session in closing:
                if pending(session.session_id):
                    self._closing.append(session)
                else:
                    self._free_rows.append(session.row)
                    session.row = None
        if not self._free_rows:
            size = self._slab.batch
            for slab in self._slabs():
                slab.double()
            self._free_rows = list(range(2 * size - 1, size - 1, -1))
        row = self._free_rows.pop()
        for slab in self._slabs():
            slab.scatter([row], self._zero_row)
        return row

    @property
    def sessions(self) -> int:
        """Open session count."""
        return len(self._sessions)

    # -- admission -----------------------------------------------------------
    def submit(self, session_id: str, chunk: np.ndarray,
               now: float | None = None) -> Ticket:
        """Queue one ``(T_chunk, n_in)`` chunk of a session's stream.

        Returns a :class:`~repro.serve.batcher.Ticket` that a later
        :meth:`poll` completes.  Raises
        :class:`~repro.common.errors.CapacityError` when the admission
        queue is full (the chunk is not queued; nothing changes), and
        :class:`~repro.common.errors.StateError` for an unknown, closed
        or TTL-expired session.
        """
        now = self.clock() if now is None else now
        session = self.session(session_id)
        if (self.session_ttl is not None
                and now - session.last_active > self.session_ttl
                and not self.batcher.session_pending(session_id)):
            # Lazy reap: an abandoned session is indistinguishable from a
            # closed one by the time its client returns.
            self._drop(session)
            self._counters["reaped_sessions"].inc()
            self._event("session.reaped", session=session_id)
            raise StateError(
                f"session {session_id!r} expired after "
                f"{self.session_ttl:g}s idle")
        chunk = np.asarray(chunk, dtype=self.dtype)
        if chunk.ndim != 2 or chunk.shape[1] != self.network.sizes[0]:
            raise ShapeError(
                f"expected a (T_chunk, {self.network.sizes[0]}) chunk, "
                f"got {chunk.shape}")
        if chunk.shape[0] == 0:
            raise ShapeError("cannot submit an empty chunk")
        deadline = (None if self.request_ttl is None
                    else now + self.request_ttl)
        ticket = Ticket(session_id, now, deadline=deadline)
        request = StreamRequest(self._request_seq, session, chunk, ticket)
        # Count the admission attempt *before* the queue decides, so the
        # check_invariants books always balance: every submission is
        # exactly one of rejected / queued (and queued ones later resolve
        # completed / expired / failed).
        self._counters["submitted"].inc()
        try:
            self.batcher.submit(request)
        except Exception:
            self._counters["rejected"].inc()
            self._event("ticket.rejected", request=request.seq,
                        session=session_id)
            raise
        self._request_seq += 1
        self._event("ticket.submitted", request=request.seq,
                    session=session_id, steps=request.steps)
        return ticket

    # -- scheduling ----------------------------------------------------------
    @property
    def pending(self) -> int:
        """Chunks queued and not yet served."""
        return self.batcher.pending

    def ready(self, now: float | None = None) -> bool:
        """Whether :meth:`poll` would run a tick at time ``now``."""
        return self.batcher.ready(self.clock() if now is None else now)

    def next_deadline(self) -> float | None:
        """When the queued work becomes due regardless of occupancy."""
        return self.batcher.next_deadline()

    def poll(self, now: float | None = None) -> int:
        """Run one tick if due; returns the number of completed chunks.

        Housekeeping rides every poll even when no tick is due: idle
        sessions past ``session_ttl_s`` are reaped, and queued requests
        past their deadline are shed (their tickets resolve
        ``expired``, which may leave no tick to run).
        """
        now = self.clock() if now is None else now
        self._reap_sessions(now)
        self._shed_expired(now)
        if not self.batcher.ready(now):
            return 0
        return self._run_tick(now)

    def flush(self, now: float | None = None) -> int:
        """Drain the whole queue (ignoring ``max_wait_ms``); returns the
        number of completed chunks."""
        completed = 0
        while self.batcher.pending:
            completed += self._run_tick(self.clock() if now is None else now)
        return completed

    def fail_pending(self, reason: str, now: float | None = None) -> int:
        """Fail every queued chunk with ``reason`` (tickets resolve
        ``failed``; no stream state advances); returns the count.

        The clean-death path: a deployment being torn down — or a fleet
        replica killed by the ``fleet.replica.down`` fault site — must
        resolve its queue rather than strand tickets pending forever,
        and the failures must land in the books so
        :meth:`check_invariants` still balances.
        """
        now = self.clock() if now is None else now
        failed = 0
        while self.batcher.pending:
            for request in self.batcher.collect():
                request.ticket.fail(reason, now)
                self._counters["failed"].inc()
                self._event("ticket.failed", request=request.seq,
                            session=request.session.session_id,
                            error=reason)
                failed += 1
        return failed

    def infer(self, session_id: str, chunk: np.ndarray,
              now: float | None = None) -> np.ndarray:
        """Convenience synchronous path: submit one chunk and drain the
        queue; returns the chunk's ``(T_chunk, n_out)`` output spikes.

        Note this flushes *all* queued work (other sessions' chunks
        complete too) — it is the single-client call, not a fast lane.
        """
        ticket = self.submit(session_id, chunk, now=now)
        self.flush(now=now)
        return ticket.outputs

    # -- housekeeping --------------------------------------------------------
    def _shed_expired(self, now: float) -> None:
        """Expire queued requests past their deadline (TTL shedding)."""
        if self.request_ttl is None:
            return
        for request in self.batcher.shed_expired(now):
            request.ticket.expire(now)
            self._counters["expired"].inc()
            self._event("ticket.expired", request=request.seq,
                        session=request.session.session_id,
                        waited_ms=(now - request.arrival) * 1e3)

    def _reap_sessions(self, now: float) -> None:
        """Drop sessions idle past ``session_ttl_s`` with nothing queued."""
        if self.session_ttl is None:
            return
        reapable = [
            session for sid, session in self._sessions.items()
            if (now - session.last_active > self.session_ttl
                and not self.batcher.session_pending(sid))
        ]
        for session in reapable:
            sid = session.session_id
            self._drop(session)
            self._counters["reaped_sessions"].inc()
            self._event("session.reaped", session=sid)

    # -- the tick ------------------------------------------------------------
    def _served_weights(self, hardware: bool = False) -> list[np.ndarray]:
        """The weights ticks serve, as the engine's ``(n_out, n_in)``
        overrides: ``.T`` views of crossbar-layout ``(n_in, n_out)``
        copies in the server's dtype, which the crossbar product reads in
        place.  The software copy is programmed from the network once (at
        construction, and again after :meth:`close`); the hardware copy
        once per programming generation — the mapped network's
        ``weight_list()`` returns a new list only after a re-programming.
        """
        source = self.hardware.weight_list() if hardware else None
        programmed = self._programmed.get(hardware)
        if programmed is None or programmed[0] is not source:
            weights = source if hardware else self.network.weights
            programmed = self._programmed[hardware] = (source, [
                np.array(w.T, dtype=self.dtype, order="C").T
                for w in weights])
        return programmed[1]

    def _primary_weights(self):
        """``(weight_overrides, degraded)`` for the primary tick run.

        The ideal weights are the network's as programmed into the
        server; in hardware mode the achieved weights of the current
        programming generation are served, so a ``reprogram()`` between
        ticks is observed on the very next tick.  A failing hardware
        weight read (a real error, or the ``hw.weights.stale`` fault
        site) degrades to the ideal weights instead of failing the tick
        — the second rung of the degradation ladder — and the chunks it
        serves are stamped ``degraded=True``.
        """
        if self.hardware is None or self.shadow:
            return self._served_weights(), False
        try:
            _faults.maybe_raise("hw.weights.stale")
            return self._served_weights(hardware=True), False
        except Exception:
            self._counters["weight_fallbacks"].inc()
            self._event("serve.weight_fallback")
            return self._served_weights(), True

    @property
    def shadow_disabled(self) -> bool:
        """Whether the shadow circuit breaker has tripped."""
        return self._shadow_tripped

    def _run_tick(self, now: float) -> int:
        self._shed_expired(now)
        requests = self.batcher.collect()
        if not requests:
            return 0
        for request in requests:
            # Virtual queue wait: both times sit on the injected clock.
            self._queue_wait.observe((now - request.arrival) * 1e3)
            self._event("ticket.batched", request=request.seq,
                        session=request.session.session_id)
        with self._span("serve.tick", batch=len(requests)) as tick_span:
            weights, degraded = self._primary_weights()
            # Per-request poison flags are drawn before the batched
            # attempt: a fault plan can fail one specific chunk while its
            # co-batched neighbours complete (the isolation contract).
            poisoned = [_faults.should_fire("serve.request.raise")
                        for _ in requests]
            if any(poisoned):
                completed = self._isolate(requests, poisoned, weights, now,
                                          degraded)
            else:
                try:
                    completed = self._advance(requests, weights, now,
                                              degraded, span=tick_span)
                except Exception:
                    # The batched attempt died mid-tick: no session state
                    # was advanced (the scatter never ran), and its arena
                    # buffers are freed once the exception is dropped.
                    # Retry each chunk in isolation.
                    completed = self._isolate(requests, poisoned, weights,
                                              now, degraded)
        self._counters["ticks"].inc()
        self._max_tick_batch.set_max(len(requests))
        return completed

    def _advance(self, requests, weights, now: float, degraded: bool,
                 retried: bool = False, span=None) -> int:
        """Advance ``requests`` in one batched run and complete tickets.

        This is the only computation path — the happy tick runs it on
        the full collected batch, the isolation fallback on one request
        at a time.  The run advances a gathered copy of the sessions'
        slab rows, scattered back only after it succeeded, and the fused
        engine computes rows independently, so the two are
        bitwise-identical: a retried chunk's outputs equal the ones its
        failed batched tick would have produced.

        ``span`` is the enclosing ``serve.tick`` span (``None`` with
        telemetry off, or on the isolation path): the gather / compute /
        scatter phase breakdown lands on it as millisecond attrs —
        three clock reads instead of three child span objects, because
        this is the serving hot loop.
        """
        if not retried:
            _faults.maybe_raise("serve.tick.raise")
        clock = self._trace_clock if span is not None else None
        buffers = arena()
        count = len(requests)
        lengths = [r.steps for r in requests]
        rows = np.fromiter((r.session.row for r in requests), np.intp, count)
        t_max = max(lengths)
        t0 = clock() if clock is not None else 0.0
        # Time-major, so layer 0's product lands in (t, b) order uncopied;
        # the engine reads the batch-major view.
        xs = buffers.empty((t_max, count, self.network.sizes[0]), self.dtype)
        for row, request in enumerate(requests):
            steps = request.steps
            xs[:steps, row] = request.chunk
            if steps < t_max:
                xs[steps:, row] = 0.0
        xs = xs.swapaxes(0, 1)
        steps_served = sum(lengths)
        lengths = None if steps_served == count * t_max else lengths
        batched = self._slab.gather(rows)
        t1 = clock() if clock is not None else 0.0
        outputs, _ = self.network.run_stream(xs, batched, lengths=lengths,
                                             weights=weights)
        t2 = clock() if clock is not None else 0.0
        divergences = self._shadow_divergences(requests, rows, xs, lengths,
                                               outputs)
        self._slab.scatter(rows, batched)
        for row, request in enumerate(requests):
            session = request.session
            session.last_active = now
            session.chunks += 1
            ticket = request.ticket
            if divergences is not None:
                ticket.divergence = divergences[row]
                session.divergence_sum += divergences[row]
            ticket.degraded = degraded
            ticket.retried = retried
            ticket.complete(outputs[row, :request.steps].copy(), now)
            self._event("ticket.completed", request=request.seq,
                        session=session.session_id,
                        steps=request.steps, degraded=degraded,
                        retried=retried, divergence=ticket.divergence)
        buffers.release(xs, outputs)
        if clock is not None:
            end = clock()
            span.set(steps=t_max, degraded=degraded,
                     gather_ms=(t1 - t0) * 1e3,
                     compute_ms=(t2 - t1) * 1e3,
                     scatter_ms=(end - t2) * 1e3)
        self._counters["completed"].inc(count)
        self._counters["steps"].inc(steps_served)
        if degraded:
            self._counters["degraded_chunks"].inc(count)
        if retried:
            self._counters["retried"].inc(count)
        return count

    def _isolate(self, requests, poisoned, weights, now: float,
                 degraded: bool) -> int:
        """Per-session error isolation: advance each chunk alone.

        Poisoned chunks (and chunks whose solo run raises) fail only
        their own ticket — the session's stream state is not advanced,
        so the client can resubmit from exactly where it stood.  The
        co-batched neighbours complete normally, stamped
        ``retried=True``.
        """
        completed = 0
        for request, bad in zip(requests, poisoned):
            if bad:
                error = "injected fault at site 'serve.request.raise'"
            else:
                try:
                    completed += self._advance([request], weights, now,
                                               degraded, retried=True)
                    continue
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
            request.ticket.fail(error, now)
            self._counters["failed"].inc()
            self._event("ticket.failed", request=request.seq,
                        session=request.session.session_id, error=error)
        return completed

    def _shadow_divergences(self, requests, rows, xs, lengths, outputs):
        """Shadow pass behind a circuit breaker; ``None`` when disabled.

        A shadow failure (a real error, or the ``serve.shadow.raise``
        fault site) never fails the primary: it is counted, and after
        ``shadow_threshold`` failures the breaker trips and shadowing
        stops entirely (``shadow_disabled``) — the canary dying must
        not take down the deployment it canaries.
        """
        if not self.shadow or self._shadow_tripped:
            return None
        try:
            _faults.maybe_raise("serve.shadow.raise")
            return self._run_shadow(requests, rows, xs, lengths, outputs)
        except Exception:
            self._counters["shadow_failures"].inc()
            self._event("serve.shadow_failure",
                        failures=int(self._counters["shadow_failures"].value))
            if (self._counters["shadow_failures"].value
                    >= self.shadow_threshold):
                self._shadow_tripped = True
                self._event("serve.shadow_breaker_tripped",
                            threshold=self.shadow_threshold)
            return None

    def _run_shadow(self, requests, rows, xs, lengths,
                    outputs) -> list[float]:
        """Advance the sessions' hardware shadow streams (their ``rows``
        of the shadow slab) on the same gathered chunk; returns the
        per-row output divergence.

        Divergence is the fraction of output spike entries (over the
        row's valid steps) on which the ideal and hardware models
        disagree — 0.0 when the realization is output-transparent for
        this chunk.
        """
        count = len(requests)
        with self._span("serve.shadow", batch=count) as shadow_span:
            shadow_batched = self._shadow_slab.gather(rows)
            shadow_out, _ = self.network.run_stream(
                xs, shadow_batched, lengths=lengths,
                weights=self._served_weights(hardware=True))
            self._shadow_slab.scatter(rows, shadow_batched)
            divergences = [
                float(np.mean(outputs[row, :request.steps]
                              != shadow_out[row, :request.steps]))
                for row, request in enumerate(requests)]
            arena().release(shadow_out)
            if shadow_span is not None:
                shadow_span.set(divergence=float(sum(divergences)) / count)
        self._counters["shadow_chunks"].inc(count)
        self._divergence_sum.inc(float(sum(divergences)))
        return divergences

    def mean_divergence(self) -> float | None:
        """Mean per-chunk ideal-vs-hardware output divergence observed so
        far (shadow mode), or ``None`` before any shadowed chunk."""
        if not self._counters["shadow_chunks"].value:
            return None
        return (self._divergence_sum.value
                / self._counters["shadow_chunks"].value)

    def _queue_wait_window(self) -> list[tuple]:
        """(histogram, start-count) of the queue-wait histogram — the
        window :func:`~repro.serve.loadgen.open_loop` reads its p95 over
        (a fleet returns one pair per replica)."""
        return [(self._queue_wait, self._queue_wait.count)]

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Fail any queued chunk, drop all sessions and programmed
        weights, and shrink the slabs back to one row (idempotent).  A
        server used again programs its weights from its network at its
        next tick.  The ticks' idle buffers stay in the calling thread's
        arena (:func:`repro.core.workspace.arena`) for the next engine
        call on that thread."""
        if self.batcher.pending:
            self.fail_pending("server closed")
        for session in [*self._sessions.values(), *self._closing]:
            session.row = None
        self._sessions.clear()
        self._closing.clear()
        self._slab = StreamState.for_network(self.network, 1, self.dtype)
        if self.shadow:
            self._shadow_slab = StreamState.for_network(self.network, 1,
                                                        self.dtype)
        self._free_rows = [0]
        self._programmed.clear()

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        arch = "-".join(str(s) for s in self.network.sizes)
        model = f", model={self.model_name}:{self.model_version}" \
            if self.model_name else ""
        mode = ""
        if self.hardware is not None:
            mode = ", shadow" if self.shadow else ", hardware"
        return (f"ModelServer({arch}, "
                f"sessions={len(self._sessions)}, "
                f"pending={self.batcher.pending}{mode}{model})")


def _load_generation(registry, name: str, version: str | None,
                     hardware_profile):
    """Resolve one (network, hardware, version, profile, meta) generation
    from a registry: the pairing rules of
    :meth:`ModelServer.from_registry`, :meth:`Fleet.from_registry
    <repro.serve.fleet.Fleet.from_registry>` and
    :meth:`~repro.serve.fleet.Fleet.deploy_canary`."""
    # Resolve the version once, up front: re-reading latest() after
    # the load could observe a concurrent save and pair the loaded
    # weights with another checkpoint's linked profile (or stamp the
    # wrong model_version on the server).
    version = version or registry.latest(name)
    network, meta = registry.load(name, version)
    hardware = None
    profile_id = None
    if hardware_profile is not None and hardware_profile is not False:
        if hardware_profile is True:
            for entry in registry.list_profiles(name):
                # Keep the newest profile linked to this checkpoint.
                if entry["meta"].get("checkpoint") == version:
                    profile_id = entry["profile"]
            # No linked profile: fall back to the newest one —
            # resolved once, like version above, so the id stamped
            # on the server is the profile actually loaded.
            profile_id = profile_id or registry.latest_profile(name)
        else:
            profile_id = hardware_profile
        profile, _ = registry.load_profile(name, profile_id)
        hardware = profile.build(network)
    return network, hardware, version, profile_id, meta


def _stamp_generation(servers, name: str, version: str,
                      profile_id: str | None, meta: dict) -> None:
    """Stamp a :func:`_load_generation` result's identity on ``servers``
    (``model_name``/``model_version``/``model_profile``/``model_meta``)."""
    for server in servers:
        server.model_name = name
        server.model_version = version
        server.model_profile = profile_id
        server.model_meta = meta


def _noop_event(name: str, **attrs) -> None:
    """The trace-event hook of a server or fleet without telemetry."""
    return None


def _noop_span(name: str, **attrs):
    """The trace-span hook of a server without telemetry."""
    return _obs.NULL_SPAN
