"""The fleet front door: replicas, tenant quotas, weighted canary rollout.

A :class:`Fleet` owns N :class:`~repro.serve.server.ModelServer`
replicas behind one submit/poll surface — the production shape the
ROADMAP names: one resident model per replica, many models/versions/
realizations behind one front door.  Three mechanisms compose here:

**Routing** — a session sticks to one replica for its whole life
(stream state lives on the replica; moving it would fork the stream),
new sessions go to the least-loaded live replica of their generation.
Request routing is therefore a pure function of the session id: the
session table is authoritative, and the ``fleet.route.misroute`` fault
site exercises the guard that enforces it (a bogus pick is detected
against the table and corrected before any state is touched).

**Admission** — per-tenant token buckets
(:class:`TenantQuota`: refill ``rate_rps``, capacity ``burst``) plus a
per-tenant in-flight bound (``max_pending``).  Both are checked *before*
a chunk reaches any replica queue, so a hot tenant's overload converts
to that tenant's ``CapacityError``\\ s without consuming the shared
queue capacity a cold tenant needs — isolation is structural, and
:meth:`Fleet.check_invariants` proves the per-tenant books conserve
every offered chunk (offered == admitted + rejected + voided).

**Canary rollout** — :meth:`Fleet.deploy_canary` stands up a second
*generation* of replicas (a new
:class:`~repro.serve.registry.ModelRegistry` checkpoint, a new hardware
realization, or both — ``save_pair`` generations) and routes a weighted
fraction of *new sessions* to it.  Existing sessions never move:
generations are fenced, so no stream crosses versions mid-flight.
:meth:`Fleet.evaluate_canary` turns the rolling
:attr:`~repro.serve.batcher.Ticket.divergence` signal (shadow-mode
canary replicas) and per-tenant error rates into a
promote / rollback / hold decision; :meth:`promote_canary` /
:meth:`rollback_canary` re-point *new* traffic and mark the losing
generation draining — its replicas retire once their last session
closes and their queues empty (:meth:`drained`).

Replica death is a first-class event: the ``fleet.replica.down`` fault
site kills a replica mid-load — its queued tickets fail cleanly
(:meth:`~repro.serve.server.ModelServer.fail_pending`), its sessions
raise :class:`~repro.common.errors.StateError` on their next submit so
clients reconnect onto a live replica, and the fleet-wide books still
balance (``tools/gates.py`` gates availability under this).

See ``docs/fleet.md`` for the full lifecycle and
:func:`repro.serve.loadgen.open_loop` (given a
:class:`~repro.serve.loadgen.TenantLoad` mix) for the multi-tenant load
generator that measures it.
"""

from __future__ import annotations

import collections
import dataclasses
import time

from .. import obs as _obs
from ..common import faults as _faults
from ..common.errors import CapacityError, StateError
from ..common.rng import RandomState
from .server import (ModelServer, _load_generation, _noop_event,
                     _stamp_generation)

__all__ = ["Fleet", "TenantQuota"]


@dataclasses.dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission budget.

    ``rate_rps`` refills a token bucket of capacity ``burst`` (one token
    per admitted chunk; ``None`` = unlimited rate).  ``max_pending``
    bounds the tenant's in-flight chunks across the whole fleet
    (``None`` = unbounded) — the per-tenant queue that keeps one
    tenant's backlog out of everyone else's.
    """

    rate_rps: float | None = None
    burst: int = 8
    max_pending: int | None = None

    def __post_init__(self):
        if self.rate_rps is not None and self.rate_rps <= 0:
            raise ValueError(
                f"quota rate_rps must be > 0, got {self.rate_rps}")
        if self.burst < 1:
            raise ValueError(f"quota burst must be >= 1, got {self.burst}")
        if self.max_pending is not None and self.max_pending < 1:
            raise ValueError(
                f"quota max_pending must be >= 1, got {self.max_pending}")


#: Per-tenant counter instruments (``fleet.<key>{tenant=...}``).
_TENANT_COUNTERS = (
    ("offered", "admission attempts (incl. rejected)"),
    ("admitted", "chunks accepted onto a replica queue"),
    ("rejected_quota", "chunks refused by the tenant's token bucket or "
                       "in-flight bound"),
    ("rejected_queue", "chunks refused by a replica's bounded queue"),
    ("voided", "admission attempts voided by a server-side session loss"),
    ("completed", "chunks answered"),
    ("failed", "chunks whose ticket resolved with an error"),
    ("expired", "chunks shed past their deadline"),
    ("completed_canary", "completed chunks served by a canary replica"),
)


class _Tenant:
    """One tenant's admission state: bucket, bound, books."""

    __slots__ = ("name", "quota", "tokens", "stamped", "pending",
                 "counters", "_pending_gauge")

    def __init__(self, name: str, quota: TenantQuota, metrics):
        self.name = name
        self.quota = quota
        self.tokens = float(quota.burst)
        self.stamped: float | None = None
        self.pending = 0
        self.counters = {
            key: metrics.counter(f"fleet.{key}", help=help_text, tenant=name)
            for key, help_text in _TENANT_COUNTERS
        }
        self._pending_gauge = metrics.gauge(
            "fleet.pending", help="tenant chunks in flight", tenant=name)

    def refill(self, now: float) -> None:
        if self.quota.rate_rps is None:
            return
        if self.stamped is not None and now > self.stamped:
            self.tokens = min(float(self.quota.burst),
                              self.tokens
                              + (now - self.stamped) * self.quota.rate_rps)
        if self.stamped is None or now > self.stamped:
            self.stamped = now

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key].inc(amount)

    def value(self, key: str) -> int:
        return int(self.counters[key].value)

    def track(self, delta: int) -> None:
        self.pending += delta
        self._pending_gauge.set(self.pending)

    @property
    def books(self) -> dict:
        view = {key: self.value(key) for key, _ in _TENANT_COUNTERS}
        view["pending"] = self.pending
        return view


class _Replica:
    """One server slot: a ModelServer plus fleet-side bookkeeping."""

    __slots__ = ("index", "server", "generation", "down", "retired",
                 "sessions")

    def __init__(self, index: int, server: ModelServer, generation: int):
        self.index = index
        self.server = server
        self.generation = generation
        self.down = False      # killed (fleet.replica.down) — sessions lost
        self.retired = False   # drained after its generation lost a rollout
        self.sessions = 0      # fleet sessions currently routed here

    @property
    def live(self) -> bool:
        return not self.down and not self.retired


class _Generation:
    """One deployed model version: its replicas and rollout signals."""

    __slots__ = ("gen", "network", "hardware", "label", "replicas",
                 "draining", "window")

    def __init__(self, gen: int, network, hardware, label: str,
                 window: int):
        self.gen = gen
        self.network = network
        self.hardware = hardware
        self.label = label
        self.replicas: list[_Replica] = []
        self.draining = False
        # Rolling outcome window: (tenant, ok, divergence) per resolved
        # chunk — what evaluate_canary reads.
        self.window: collections.deque = collections.deque(maxlen=window)


class _FleetSession:
    """Fleet-scoped session: the routing-table entry."""

    __slots__ = ("session_id", "tenant", "replica", "local_id",
                 "generation", "last_active")

    def __init__(self, session_id: str, tenant: str, replica: _Replica,
                 local_id: str, now: float):
        self.session_id = session_id
        self.tenant = tenant
        self.replica = replica
        self.local_id = local_id
        self.generation = replica.generation
        self.last_active = now


class Fleet:
    """N ``ModelServer`` replicas behind one routed, quota'd front door.

    Parameters mirror :class:`~repro.serve.server.ModelServer` where they
    configure the replicas (``precision``, ``max_batch``, ``max_wait_ms``,
    ``queue_limit``, ``hardware``, ``shadow``, ``request_ttl_ms``,
    ``shadow_threshold``); the rest are fleet-level.  Every replica
    streams on the fused engine.

    ``replicas``
        Primary-generation replica count (>= 1).  All replicas of a
        generation share one network object (ticks only read weights).
    ``session_ttl_s``
        Idle-session reaping, enforced *here* (replicas run without a
        session TTL) so the routing table and the replica session set
        can never disagree about liveness.
    ``seed``
        Seeds the canary traffic split: the weighted generation draw for
        each new session comes from a
        :class:`~repro.common.rng.RandomState` child, so a fixed seed
        reproduces the exact split (property-tested tolerance).
    ``canary_window``
        Rolling outcome window length per generation — the sample the
        promote/rollback decision reads.
    """

    def __init__(self, network, *, replicas: int = 2,
                 precision: str = "float64", max_batch: int = 8,
                 max_wait_ms: float = 2.0, queue_limit: int = 64,
                 hardware=None, shadow: bool = False,
                 request_ttl_ms: float | None = None,
                 session_ttl_s: float | None = None,
                 shadow_threshold: int = 3, clock=time.monotonic,
                 telemetry: _obs.Telemetry | None = None, seed: int = 0,
                 canary_window: int = 64):
        if replicas < 1:
            raise ValueError(f"a fleet needs >= 1 replica, got {replicas}")
        if session_ttl_s is not None and session_ttl_s <= 0:
            raise ValueError(
                f"session_ttl_s must be > 0, got {session_ttl_s}")
        if canary_window < 1:
            raise ValueError(
                f"canary_window must be >= 1, got {canary_window}")
        self.clock = clock
        self.session_ttl = (None if session_ttl_s is None
                            else float(session_ttl_s))
        self.telemetry = (telemetry if telemetry is not None
                          else _obs.active_telemetry())
        self.metrics = (self.telemetry.metrics
                        if self.telemetry is not None
                        else _obs.MetricsRegistry())
        self._event = (self.telemetry.tracer.event
                       if self.telemetry is not None else _noop_event)
        self._server_kwargs = dict(
            precision=precision, max_batch=max_batch,
            max_wait_ms=max_wait_ms, queue_limit=queue_limit,
            request_ttl_ms=request_ttl_ms, session_ttl_s=None,
            shadow_threshold=shadow_threshold)
        self._canary_window = int(canary_window)
        self._route_rng = RandomState(int(seed)).child("fleet.canary")
        self._replicas: list[_Replica] = []
        self._generations: dict[int, _Generation] = {}
        self._gen_seq = 0
        self._sessions: dict[str, _FleetSession] = {}
        self._session_seq = 0
        self._tenants: dict[str, _Tenant] = {}
        self._outstanding: list = []   # (ticket, _Tenant, _Replica)
        self._misroutes = self.metrics.counter(
            "fleet.misroutes",
            help="route-guard corrections (fleet.route.misroute firings "
                 "caught against the session table)")
        self._replicas_down = self.metrics.counter(
            "fleet.replicas_down", help="replicas killed mid-flight")
        self._lost_sessions = self.metrics.counter(
            "fleet.lost_sessions",
            help="sessions dropped because their replica died")
        self.model_name: str | None = None
        self._primary = self._add_generation(
            network, hardware, shadow=shadow, label="g0", count=replicas)
        self._canary: int | None = None
        self._canary_weight = 0.0

    # -- construction --------------------------------------------------------
    def _add_generation(self, network, hardware, *, shadow: bool,
                        label: str, count: int) -> int:
        self._gen_seq += 1
        gen = _Generation(self._gen_seq, network, hardware, label,
                          self._canary_window)
        self._generations[gen.gen] = gen
        for _ in range(count):
            index = len(self._replicas)
            server = ModelServer(
                network, hardware=hardware, shadow=shadow,
                clock=self.clock, instance=f"r{index}",
                telemetry=self.telemetry, **self._server_kwargs)
            replica = _Replica(index, server, gen.gen)
            self._replicas.append(replica)
            gen.replicas.append(replica)
        return gen.gen

    @classmethod
    def from_registry(cls, registry, name: str, *, version: str | None = None,
                      hardware_profile=None, replicas: int = 2,
                      **kwargs) -> "Fleet":
        """Cold-start a fleet from a
        :class:`~repro.serve.registry.ModelRegistry` checkpoint (and
        optionally its linked hardware profile), like
        :meth:`ModelServer.from_registry` but N replicas wide.  The
        loaded version becomes the primary generation;
        :meth:`deploy_canary` with ``registry=`` stands the next
        ``save_pair`` generation up beside it.
        """
        network, hardware, version, profile_id, meta = _load_generation(
            registry, name, version, hardware_profile)
        fleet = cls(network, replicas=replicas, hardware=hardware, **kwargs)
        fleet.model_name = name
        gen = fleet._generations[fleet._primary]
        gen.label = version
        _stamp_generation([replica.server for replica in gen.replicas],
                          name, version, profile_id, meta)
        return fleet

    # -- tenants -------------------------------------------------------------
    def set_quota(self, tenant: str, quota: TenantQuota) -> None:
        """Register (or replace) a tenant's admission quota; the bucket
        restarts full."""
        existing = self._tenants.get(tenant)
        if existing is None:
            self._tenants[tenant] = _Tenant(tenant, quota, self.metrics)
        else:
            existing.quota = quota
            existing.tokens = float(quota.burst)
            existing.stamped = None

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = self._tenants[name] = _Tenant(name, TenantQuota(),
                                                   self.metrics)
        return tenant

    # -- routing -------------------------------------------------------------
    def _live(self, generation: int | None = None) -> list[_Replica]:
        return [r for r in self._replicas if r.live
                and (generation is None or r.generation == generation)]

    def _least_loaded(self, generation: int | None) -> _Replica | None:
        candidates = [r for r in self._live(generation)
                      if not self._generations[r.generation].draining]
        if not candidates:
            return None
        return min(candidates, key=lambda r: (r.sessions, r.index))

    def _pick_generation(self) -> int:
        if self._canary is not None and self._canary_weight > 0.0:
            if float(self._route_rng.random()) < self._canary_weight:
                return self._canary
        return self._primary

    def open_session(self, tenant: str = "default",
                     now: float | None = None) -> str:
        """Open a stream for ``tenant``; returns the fleet session id.

        The session is pinned to one replica (weighted generation draw,
        then least-loaded within the generation) for its whole life.
        """
        now = self.clock() if now is None else now
        self._tenant(tenant)
        replica = self._least_loaded(self._pick_generation())
        if replica is None:
            replica = self._least_loaded(None)
        if replica is None:
            raise StateError("no live replica in the fleet")
        local_id = replica.server.open_session(now=now)
        self._session_seq += 1
        session_id = f"f{self._session_seq:06d}"
        self._sessions[session_id] = _FleetSession(
            session_id, tenant, replica, local_id, now)
        replica.sessions += 1
        self._event("fleet.session.opened", session=session_id,
                    tenant=tenant, replica=replica.index,
                    generation=replica.generation)
        return session_id

    def route(self, session_id: str) -> int:
        """The replica index ``session_id`` is pinned to (pure lookup —
        what the routing property test pins)."""
        return self._lookup(session_id).replica.index

    def _lookup(self, session_id: str) -> _FleetSession:
        session = self._sessions.get(session_id)
        if session is None:
            raise StateError(
                f"unknown or closed fleet session {session_id!r}")
        return session

    def close_session(self, session_id: str) -> None:
        session = self._lookup(session_id)
        replica = session.replica
        if not replica.retired:
            try:
                replica.server.close_session(session.local_id)
            except StateError:
                pass  # already gone server-side (dead replica)
        del self._sessions[session_id]
        replica.sessions -= 1
        self._event("fleet.session.closed", session=session_id,
                    tenant=session.tenant, replica=replica.index)

    def _drop_session(self, session: _FleetSession, reason: str) -> None:
        del self._sessions[session.session_id]
        session.replica.sessions -= 1
        self._event(f"fleet.session.{reason}",
                    session=session.session_id, tenant=session.tenant,
                    replica=session.replica.index)

    @property
    def sessions(self) -> int:
        """Open fleet session count."""
        return len(self._sessions)

    # -- admission -----------------------------------------------------------
    def submit(self, session_id: str, chunk, now: float | None = None):
        """Route one chunk to its session's replica, through the
        tenant's admission control; returns the replica's
        :class:`~repro.serve.batcher.Ticket`.

        Raises :class:`~repro.common.errors.CapacityError` when the
        tenant's token bucket / in-flight bound (or the replica's
        bounded queue) refuses the chunk, and
        :class:`~repro.common.errors.StateError` for an unknown,
        TTL-expired, or dead-replica session (clients reconnect via
        :meth:`open_session`, landing on a live replica).
        """
        now = self.clock() if now is None else now
        session = self._lookup(session_id)
        replica = session.replica
        if not replica.live:
            self._lost_sessions.inc()
            self._drop_session(session, "lost")
            raise StateError(
                f"session {session_id!r} lost: replica r{replica.index} "
                "is down — reconnect")
        if (self.session_ttl is not None
                and now - session.last_active > self.session_ttl
                and not replica.server.batcher.session_pending(
                    session.local_id)):
            try:
                replica.server.close_session(session.local_id)
            except StateError:
                pass
            self._drop_session(session, "reaped")
            raise StateError(
                f"session {session_id!r} expired after "
                f"{self.session_ttl:g}s idle")
        tenant = self._tenant(session.tenant)
        tenant.count("offered")
        tenant.refill(now)
        quota = tenant.quota
        if quota.rate_rps is not None and tenant.tokens < 1.0:
            tenant.count("rejected_quota")
            self._event("fleet.quota_rejected", session=session_id,
                        tenant=tenant.name, reason="rate")
            raise CapacityError(
                f"tenant {tenant.name!r} over its token-bucket rate "
                f"({quota.rate_rps:g} rps, burst {quota.burst})")
        if (quota.max_pending is not None
                and tenant.pending >= quota.max_pending):
            tenant.count("rejected_quota")
            self._event("fleet.quota_rejected", session=session_id,
                        tenant=tenant.name, reason="pending")
            raise CapacityError(
                f"tenant {tenant.name!r} at its in-flight bound "
                f"({quota.max_pending} chunks pending)")
        # Route guard: the session table is authoritative.  The misroute
        # fault site simulates a router bug picking another replica; the
        # guard detects the mismatch against the table and corrects it
        # before any replica state is touched (outputs stay bitwise
        # identical — pinned by test).
        if _faults.should_fire("fleet.route.misroute",
                               replica=replica.index):
            wrong = next((r for r in self._live()
                          if r.index != replica.index), None)
            if wrong is not None:
                self._misroutes.inc()
                self._event("fleet.misroute", session=session_id,
                            wanted=replica.index, got=wrong.index)
        try:
            ticket = replica.server.submit(session.local_id, chunk, now=now)
        except CapacityError:
            tenant.count("rejected_queue")
            raise
        except StateError:
            # The replica lost the session underneath us (should be
            # unreachable — the fleet owns session lifecycle); void the
            # attempt so the per-tenant books still conserve.
            tenant.count("voided")
            self._drop_session(session, "lost")
            raise
        if quota.rate_rps is not None:
            tenant.tokens -= 1.0
        tenant.count("admitted")
        tenant.track(+1)
        session.last_active = now
        self._outstanding.append((ticket, tenant, replica))
        return ticket

    # -- scheduling ----------------------------------------------------------
    @property
    def pending(self) -> int:
        """Chunks queued fleet-wide and not yet served."""
        return sum(r.server.pending for r in self._replicas)

    def ready(self, now: float | None = None) -> bool:
        now = self.clock() if now is None else now
        return any(r.server.ready(now=now) for r in self._live())

    def next_deadline(self) -> float | None:
        deadlines = [r.server.next_deadline() for r in self._live()]
        deadlines = [d for d in deadlines if d is not None]
        return min(deadlines) if deadlines else None

    def poll(self, now: float | None = None) -> int:
        """Run one due tick on every live replica; returns completed
        chunks.  Housekeeping rides every poll: the
        ``fleet.replica.down`` fault site is consulted per replica,
        idle sessions are reaped, resolved tickets are swept into the
        per-tenant books, and drained generations retire."""
        now = self.clock() if now is None else now
        for replica in self._live():
            if _faults.should_fire("fleet.replica.down",
                                   replica=replica.index):
                self._kill_replica(replica, now)
        self._reap_sessions(now)
        completed = 0
        for replica in self._live():
            completed += replica.server.poll(now=now)
        self._sweep()
        self._retire_drained()
        return completed

    def flush(self, now: float | None = None) -> int:
        """Drain every live replica's queue; returns completed chunks."""
        now = self.clock() if now is None else now
        completed = 0
        while True:
            progressed = sum(r.server.flush(now=now) for r in self._live())
            completed += progressed
            self._sweep()
            if not progressed or not any(r.server.pending
                                         for r in self._live()):
                break
        self._retire_drained()
        return completed

    def _kill_replica(self, replica: _Replica, now: float) -> None:
        replica.down = True
        failed = replica.server.fail_pending(
            "injected fault at site 'fleet.replica.down'", now=now)
        self._replicas_down.inc()
        self._event("fleet.replica.down", replica=replica.index,
                    generation=replica.generation, failed=failed,
                    sessions=replica.sessions)

    def _reap_sessions(self, now: float) -> None:
        if self.session_ttl is None:
            return
        reapable = [
            session for session in self._sessions.values()
            if now - session.last_active > self.session_ttl
            and (not session.replica.live
                 or not session.replica.server.batcher.session_pending(
                     session.local_id))
        ]
        for session in reapable:
            if session.replica.live:
                try:
                    session.replica.server.close_session(session.local_id)
                except StateError:
                    pass
            self._drop_session(session, "reaped")

    def _sweep(self) -> None:
        """Move resolved tickets from the in-flight list to the books."""
        if not self._outstanding:
            return
        still = []
        for entry in self._outstanding:
            ticket, tenant, replica = entry
            if not ticket.done:
                still.append(entry)
                continue
            tenant.track(-1)
            generation = self._generations[replica.generation]
            if ticket.ok:
                tenant.count("completed")
                if replica.generation == self._canary:
                    tenant.count("completed_canary")
                generation.window.append(
                    (tenant.name, True, ticket.divergence))
            elif ticket.expired:
                tenant.count("expired")
                generation.window.append((tenant.name, True, None))
            else:
                tenant.count("failed")
                generation.window.append((tenant.name, False, None))
        self._outstanding = still

    # -- canary rollout ------------------------------------------------------
    def deploy_canary(self, network=None, *, weight: float = 0.1,
                      replicas: int = 1, hardware=None, shadow: bool = False,
                      registry=None, name: str | None = None,
                      version: str | None = None, hardware_profile=None,
                      label: str | None = None) -> int:
        """Stand up a canary generation and send it ``weight`` of new
        sessions; returns the generation id.

        Three sources, in precedence order: ``registry`` loads a
        checkpoint (+ optionally its linked
        :meth:`~repro.serve.registry.ModelRegistry.save_pair` hardware
        profile); ``network`` serves an in-memory model; neither reuses
        the primary's network (a hardware-only canary — pass
        ``hardware=`` / ``shadow=True`` to canary a new realization of
        the same weights, the divergence-signal deployment).
        """
        if self._canary is not None:
            raise StateError(
                "a canary generation is already in flight; promote or "
                "roll it back before deploying another")
        if not 0.0 < weight <= 1.0:
            raise ValueError(f"canary weight must be in (0, 1], "
                             f"got {weight}")
        if replicas < 1:
            raise ValueError(
                f"a canary needs >= 1 replica, got {replicas}")
        model = meta = profile_id = None
        if registry is not None:
            name = name or self.model_name
            if name is None:
                raise StateError(
                    "deploy_canary(registry=...) needs a model name "
                    "(the fleet was not built from_registry)")
            network, hardware, version, profile_id, meta = _load_generation(
                registry, name, version, hardware_profile)
            label = label or version
            model = name
        if network is None:
            network = self._generations[self._primary].network
        gen_id = self._add_generation(
            network, hardware, shadow=shadow,
            label=label or f"g{self._gen_seq + 1}", count=replicas)
        if model is not None:
            _stamp_generation(
                [replica.server
                 for replica in self._generations[gen_id].replicas],
                model, version, profile_id, meta)
        self._canary = gen_id
        self._canary_weight = float(weight)
        self._event("fleet.canary.deployed", generation=gen_id,
                    weight=self._canary_weight,
                    label=self._generations[gen_id].label)
        return gen_id

    @property
    def canary_weight(self) -> float:
        return self._canary_weight

    @property
    def primary_generation(self) -> int:
        return self._primary

    @property
    def canary_generation(self) -> int | None:
        return self._canary

    @property
    def network(self):
        """The primary generation's served network."""
        return self._generations[self._primary].network

    @property
    def shadow(self) -> bool:
        """Whether any live replica shadows a hardware realization."""
        return any(r.server.shadow for r in self._live())

    def canary_status(self) -> dict:
        """The rolling signals the rollout decision reads."""
        if self._canary is None:
            raise StateError("no canary generation in flight")
        self._sweep()
        generation = self._generations[self._canary]
        window = list(generation.window)
        observed = len(window)
        errors = sum(1 for _, ok, _ in window if not ok)
        divergences = [d for _, _, d in window if d is not None]
        per_tenant: dict[str, dict] = {}
        for tenant, ok, _ in window:
            entry = per_tenant.setdefault(tenant,
                                          {"observed": 0, "errors": 0})
            entry["observed"] += 1
            entry["errors"] += 0 if ok else 1
        for entry in per_tenant.values():
            entry["error_rate"] = entry["errors"] / entry["observed"]
        return {
            "generation": self._canary,
            "label": generation.label,
            "weight": self._canary_weight,
            "sessions": sum(r.sessions for r in generation.replicas),
            "observed": observed,
            "error_rate": (errors / observed) if observed else 0.0,
            "mean_divergence": (sum(divergences) / len(divergences)
                                if divergences else None),
            "per_tenant": per_tenant,
        }

    def evaluate_canary(self, *, min_chunks: int = 32,
                        max_divergence: float = 0.05,
                        max_error_rate: float = 0.02) -> str:
        """``"promote"`` / ``"rollback"`` / ``"hold"`` from the rolling
        window: hold below ``min_chunks`` observations; roll back when
        the canary's mean shadow divergence exceeds ``max_divergence``
        or any adequately-sampled tenant's error rate exceeds
        ``max_error_rate``; promote otherwise.  Pure read — acting on
        the decision is :meth:`promote_canary` / :meth:`rollback_canary`.
        """
        status = self.canary_status()
        if status["observed"] < min_chunks:
            return "hold"
        floor = max(1, min_chunks // 4)
        tenant_rates = [entry["error_rate"]
                        for entry in status["per_tenant"].values()
                        if entry["observed"] >= floor]
        worst = max([status["error_rate"], *tenant_rates])
        if worst > max_error_rate:
            return "rollback"
        divergence = status["mean_divergence"]
        if divergence is not None and divergence > max_divergence:
            return "rollback"
        return "promote"

    def promote_canary(self) -> int:
        """Make the canary generation primary.  New sessions all land on
        it; the old generation drains generation-fenced (existing
        sessions finish where they are) and retires once idle."""
        if self._canary is None:
            raise StateError("no canary generation to promote")
        old = self._primary
        self._primary = self._canary
        self._canary = None
        self._canary_weight = 0.0
        self._generations[old].draining = True
        self._event("fleet.canary.promoted",
                    generation=self._primary, draining=old)
        self._retire_drained()
        return self._primary

    def rollback_canary(self) -> int:
        """Stop routing new sessions to the canary; it drains
        generation-fenced and retires once idle."""
        if self._canary is None:
            raise StateError("no canary generation to roll back")
        cancelled = self._canary
        self._canary = None
        self._canary_weight = 0.0
        self._generations[cancelled].draining = True
        self._event("fleet.canary.rolled_back", generation=cancelled)
        self._retire_drained()
        return cancelled

    def drained(self, generation: int) -> bool:
        """Whether every replica of ``generation`` has retired (or died)."""
        gen = self._generations.get(generation)
        if gen is None:
            raise StateError(f"unknown generation {generation!r}")
        return all(not r.live for r in gen.replicas)

    def _retire_drained(self) -> None:
        for generation in self._generations.values():
            if not generation.draining:
                continue
            for replica in generation.replicas:
                if (replica.live and replica.sessions == 0
                        and replica.server.pending == 0):
                    replica.retired = True
                    replica.server.close()
                    self._event("fleet.replica.retired",
                                replica=replica.index,
                                generation=generation.gen)

    # -- aggregation ---------------------------------------------------------
    def mean_divergence(self) -> float | None:
        """Fleet-wide mean per-chunk shadow divergence, or ``None``."""
        chunks = sum(r.server.stats["shadow_chunks"]
                     for r in self._replicas)
        if not chunks:
            return None
        total = sum(r.server.stats["divergence_sum"]
                    for r in self._replicas)
        return total / chunks

    def check_invariants(self) -> dict:
        """Fleet-wide ticket accounting tripwire.

        Verifies every replica's own books
        (:meth:`ModelServer.check_invariants`), then the fleet-level
        conservation laws: per tenant, offered == admitted +
        rejected_quota + rejected_queue + voided, and admitted ==
        completed + failed + expired + in-flight; across the fleet,
        tenant admissions + queue rejections == replica submissions.
        Raises :class:`~repro.common.errors.StateError` on drift;
        returns the aggregated books.
        """
        self._sweep()
        per_replica = {f"r{r.index}": r.server.check_invariants()
                       for r in self._replicas}
        in_flight: collections.Counter = collections.Counter()
        for _, tenant, _ in self._outstanding:
            in_flight[tenant.name] += 1
        per_tenant = {}
        for name, tenant in self._tenants.items():
            books = tenant.books
            offered = books["offered"]
            decided = (books["admitted"] + books["rejected_quota"]
                       + books["rejected_queue"] + books["voided"])
            if offered != decided:
                raise StateError(
                    f"tenant {name!r} admission drift: offered={offered} "
                    f"but decided={decided} ({books})")
            resolved = (books["completed"] + books["failed"]
                        + books["expired"] + books["pending"])
            if books["admitted"] != resolved:
                raise StateError(
                    f"tenant {name!r} resolution drift: "
                    f"admitted={books['admitted']} but "
                    f"resolved={resolved} ({books})")
            if books["pending"] != in_flight[name]:
                raise StateError(
                    f"tenant {name!r} in-flight drift: books say "
                    f"{books['pending']} pending but "
                    f"{in_flight[name]} tickets are outstanding")
            per_tenant[name] = books
        admitted = sum(b["admitted"] for b in per_tenant.values())
        queue_rejected = sum(b["rejected_queue"]
                             for b in per_tenant.values())
        submitted = sum(b["submitted"] for b in per_replica.values())
        if admitted + queue_rejected != submitted:
            raise StateError(
                f"fleet routing drift: tenants admitted {admitted} + "
                f"{queue_rejected} queue-rejected but replicas booked "
                f"{submitted} submissions")
        return {
            "submitted": submitted,
            "admitted": admitted,
            "per_replica": per_replica,
            "per_tenant": per_tenant,
        }

    @property
    def replicas(self) -> int:
        """Total replica slots (live + down + retired)."""
        return len(self._replicas)

    @property
    def live_replicas(self) -> int:
        return len(self._live())

    @property
    def stats(self) -> dict:
        """Aggregated counters plus per-replica / per-tenant breakdowns."""
        aggregate: collections.Counter = collections.Counter()
        for replica in self._replicas:
            for key, value in replica.server.stats.items():
                if key == "max_tick_batch":
                    aggregate[key] = max(aggregate[key], value)
                else:
                    aggregate[key] += value
        view = dict(aggregate)
        view.update(
            replicas=len(self._replicas),
            live_replicas=self.live_replicas,
            replicas_down=int(self._replicas_down.value),
            misroutes=int(self._misroutes.value),
            lost_sessions=int(self._lost_sessions.value),
            sessions=len(self._sessions),
            primary_generation=self._primary,
            canary_generation=self._canary,
            canary_weight=self._canary_weight,
            per_replica=[
                {"replica": r.index, "generation": r.generation,
                 "down": r.down, "retired": r.retired,
                 "sessions": r.sessions, "pending": r.server.pending}
                for r in self._replicas
            ],
            per_tenant={name: tenant.books
                        for name, tenant in self._tenants.items()},
        )
        return view

    def _queue_wait_window(self) -> list[tuple]:
        """(histogram, start-count) pairs for every replica's queue-wait
        histogram — :func:`~repro.serve.loadgen.open_loop` windows the
        fleet-wide p95 across them."""
        return [pair for r in self._replicas
                for pair in r.server._queue_wait_window()]

    # -- lifecycle -----------------------------------------------------------
    def close(self) -> None:
        """Close every replica (idempotent)."""
        for replica in self._replicas:
            replica.server.close()
        self._sessions.clear()
        self._outstanding.clear()

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        canary = (f", canary gen{self._canary}@{self._canary_weight:g}"
                  if self._canary is not None else "")
        return (f"Fleet({len(self._replicas)} replicas "
                f"({self.live_replicas} live), "
                f"{len(self._sessions)} sessions, "
                f"{len(self._tenants)} tenants{canary})")
