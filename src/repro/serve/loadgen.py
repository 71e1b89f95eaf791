"""Synthetic open-loop load generation and serving metrics.

:func:`open_loop` drives a :class:`~repro.serve.server.ModelServer` the
way a fleet of independent clients would: request arrival times are drawn
from a Poisson process at a configured offered rate and do **not** wait
for earlier responses (open loop — the honest way to measure a server,
cf. closed-loop generators that self-throttle and hide queueing).

Time is hybrid: arrivals advance a virtual clock along the precomputed
schedule, while each tick advances it by the tick's *measured* wall-clock
compute.  Latency therefore contains everything a real client would see —
queueing delay, the coalescing wait, and compute — while the schedule
stays exactly reproducible for a given seed.  On an otherwise idle
machine the numbers match a realtime run; the virtual clock just removes
sleep time and scheduler jitter from the measurement.

The resulting :class:`ServingReport` carries the acceptance metrics of
the serving layer: ``throughput_rps`` and p50/p95/p99 latency (the
serving rows of ``run_table.csv``, ``make bench-table``).

:func:`open_loop_fleet` is the multi-tenant variant: one Poisson
arrival process whose requests are split across named tenants
(:class:`TenantLoad` shares), driving a
:class:`~repro.serve.fleet.Fleet` through its per-tenant admission
control.  The :class:`FleetReport` carries the aggregate
:class:`ServingReport` plus one per tenant — the per-tenant SLO rows
the ``fleet`` scenario kind lands in ``run_table.csv``.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

import numpy as np

from ..common import faults as _faults
from ..common.errors import CapacityError, ShapeError, StateError
from ..common.rng import RandomState, as_random_state

__all__ = ["FleetReport", "ServingReport", "TenantLoad", "open_loop",
           "open_loop_fleet"]


@dataclasses.dataclass
class ServingReport:
    """Aggregate metrics of one open-loop serving run."""

    offered_rps: float
    duration_s: float
    submitted: int
    completed: int
    rejected: int
    ticks: int
    throughput_rps: float
    mean_batch: float
    steps_per_s: float
    latency_ms: dict  # p50 / p95 / p99 / mean / max
    #: Mean per-chunk ideal-vs-hardware output divergence (shadow-mode
    #: servers only; ``None`` otherwise).
    divergence: float | None = None
    #: Robustness metrics — the zero/1.0 defaults describe a clean run,
    #: so every serving report carries the same shape whether or not a
    #: fault plan was active (see docs/robustness.md).
    faults_injected: int = 0
    requests_retried: int = 0
    requests_expired: int = 0
    requests_failed: int = 0
    #: p99 arrival-to-answer latency of the *retried* requests only —
    #: what recovery costs the requests that needed it.  ``None`` when
    #: nothing was retried.
    recovery_p99_ms: float | None = None
    #: completed / (completed + failed + expired).  Queue-full
    #: rejections are back-pressure, not unavailability, and are
    #: excluded (reported separately as ``rejected``).
    availability: float = 1.0
    #: p95 of per-chunk queue wait (submit to serving tick, virtual
    #: clock, ms) — from the server's ``serve.queue_wait_ms`` histogram,
    #: windowed to this run.  ``None`` when nothing was batched.
    queue_wait_p95_ms: float | None = None
    #: p95 of measured per-tick compute (the load generator's ``timer``,
    #: ms).  ``None`` when no tick completed anything.
    tick_compute_p95_ms: float | None = None
    #: ``WorkerPool.stats`` snapshot of the deployment's pool (restarts,
    #: retries, dispatches, timeouts, per-worker respawns); ``None``
    #: when the served path ran without one.
    pool_stats: dict | None = None

    @classmethod
    def from_run(cls, offered_rps: float, duration_s: float,
                 latencies_s: list[float], rejected: int,
                 ticks: int, steps: int,
                 divergence: float | None = None,
                 expired: int = 0, failed: int = 0,
                 retried_latencies_s: list[float] | None = None,
                 faults_injected: int = 0,
                 queue_wait_p95_ms: float | None = None,
                 tick_compute_p95_ms: float | None = None,
                 pool_stats: dict | None = None) -> "ServingReport":
        completed = len(latencies_s)
        # The virtual clock runs on numpy scalars (np.cumsum arrivals);
        # coerce to builtin floats so downstream renderers (the run
        # table's repr-based CSV cells) never see np.float64.
        duration_s = float(duration_s)
        duration = max(duration_s, 1e-12)
        if completed:
            ms = 1e3 * np.asarray(latencies_s)
            latency = {
                "p50": round(float(np.percentile(ms, 50)), 3),
                "p95": round(float(np.percentile(ms, 95)), 3),
                "p99": round(float(np.percentile(ms, 99)), 3),
                "mean": round(float(ms.mean()), 3),
                "max": round(float(ms.max()), 3),
            }
        else:
            # Nothing completed (total rejection): JSON null, not a fake
            # 0 ms that would read as instant service in the trajectory.
            latency = {key: None for key in ("p50", "p95", "p99", "mean",
                                             "max")}
        retried = list(retried_latencies_s or [])
        recovery_p99 = None
        if retried:
            recovery_p99 = round(float(np.percentile(
                1e3 * np.asarray(retried), 99)), 3)
        resolved = completed + int(failed) + int(expired)
        return cls(
            offered_rps=round(float(offered_rps), 3),
            duration_s=round(duration_s, 6),
            submitted=completed + rejected + int(failed) + int(expired),
            completed=completed,
            rejected=rejected,
            ticks=ticks,
            throughput_rps=round(completed / duration, 3),
            mean_batch=round(completed / ticks, 3) if ticks else 0.0,
            steps_per_s=round(float(steps) / duration, 1),
            latency_ms=latency,
            divergence=(None if divergence is None
                        else round(float(divergence), 6)),
            faults_injected=int(faults_injected),
            requests_retried=len(retried),
            requests_expired=int(expired),
            requests_failed=int(failed),
            recovery_p99_ms=recovery_p99,
            availability=(round(completed / resolved, 6) if resolved
                          else 1.0),
            queue_wait_p95_ms=(None if queue_wait_p95_ms is None
                               else round(float(queue_wait_p95_ms), 3)),
            tick_compute_p95_ms=(None if tick_compute_p95_ms is None
                                 else round(float(tick_compute_p95_ms), 3)),
            pool_stats=pool_stats,
        )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def render(self) -> str:
        lat = self.latency_ms

        def ms(key: str) -> str:
            # Total-rejection reports carry None latencies by design.
            return "    n/a" if lat[key] is None else f"{lat[key]:7.2f}"

        return (
            f"offered {self.offered_rps:8.1f} rps | served "
            f"{self.throughput_rps:8.1f} rps | rejected {self.rejected:4d} | "
            f"batch {self.mean_batch:5.2f} | latency ms "
            f"p50 {ms('p50')}  p95 {ms('p95')}  p99 {ms('p99')}"
        )


def open_loop(server, *, sessions: int = 16, requests: int = 200,
              chunk_steps: int = 10, rate_rps: float = 200.0,
              spike_density: float = 0.03,
              rng: RandomState | int | None = 0,
              workload=None,
              timer=time.perf_counter, pool=None,
              export_dir=None) -> ServingReport:
    """Drive ``server`` with a Poisson open-loop arrival process.

    Parameters
    ----------
    server:
        A :class:`~repro.serve.server.ModelServer` (fresh stats are not
        required; the report uses only this run's tickets).
    sessions:
        Concurrent client streams; arrivals are assigned round-robin so
        every session receives an in-order subsequence of chunks.
    requests:
        Total chunks offered (pregenerated outside the timed loop).
    chunk_steps:
        Time steps per chunk.
    rate_rps:
        Offered arrival rate (chunks/second) of the Poisson process.
    spike_density:
        Bernoulli spike probability of the synthetic chunks (ignored
        when ``workload`` is given).
    workload:
        What the request streams carry: ``None`` keeps the legacy
        synthetic Bernoulli chunks; otherwise a
        :class:`~repro.serve.workloads.Workload` instance or name
        (``"speech"``, ``"dvs"``, ``"glyph"``, ``"speech+synthetic"``,
        ...) whose channel width must match the served network's input
        layer.
    timer:
        Clock used to measure per-tick compute (seconds, monotonic).
        The default is real wall time; the scenario harness injects a
        deterministic fake in its reproducibility tests.  Each completed
        tick's measurement is also observed into the server's
        ``serve.tick_compute_ms`` histogram, and the run's p95 lands in
        the report.
    pool:
        Optional :class:`~repro.runtime.pool.WorkerPool` backing the
        deployment; its ``stats`` snapshot is attached to the report
        (``pool_stats``) after the run.
    export_dir:
        Optional directory to export telemetry artifacts into after the
        run: ``serving.prom`` (the server registry's Prometheus text
        snapshot) always, plus ``serving.trace.jsonl`` when the server
        carries a telemetry bundle (see :mod:`repro.obs`).
    """
    rng = as_random_state(rng)
    n_in = server.network.sizes[0]
    if workload is not None:
        from .workloads import make_workload

        workload = make_workload(workload, channels=None)
        if workload.channels != n_in:
            raise ShapeError(
                f"workload {workload.name!r} emits {workload.channels} "
                f"channels but the served network expects {n_in}")
    session_ids = [server.open_session(now=0.0) for _ in range(sessions)]
    gaps = -np.log(np.clip(rng.random(requests), 1e-12, None)) / rate_rps
    arrivals = np.cumsum(gaps)
    if workload is None:
        chunks = [
            (rng.random((chunk_steps, n_in))
             < spike_density).astype(np.float64)
            for _ in range(requests)
        ]
    else:
        chunks = [workload.sample(chunk_steps, rng)
                  for _ in range(requests)]

    outstanding: list = []
    latencies: list[float] = []
    retried_latencies: list[float] = []
    rejected = 0
    expired = 0
    failed = 0
    ticks = 0
    steps_served = 0
    now = 0.0
    index = 0
    plan = _faults.active_plan()
    injected_before = sum(plan.injected.values()) if plan else 0
    # Window the shared histograms to this run: the server instruments
    # outlive a single open_loop call (and a PoolCache'd server may host
    # several), so percentiles read only the samples added from here on.
    queue_wait = server.metrics.histogram("serve.queue_wait_ms")
    tick_compute = server.metrics.histogram(
        "serve.tick_compute_ms",
        help="measured wall-clock compute per completed tick (ms)")
    queue_wait_start = queue_wait.count
    tick_compute_start = tick_compute.count

    def settle(after: float, completed: int) -> None:
        """Resolve finished tickets against the post-compute time."""
        nonlocal steps_served, expired, failed
        still = []
        for ticket in outstanding:
            if not ticket.done:
                still.append(ticket)
            elif ticket.ok:
                if completed:
                    # Re-stamp completion at the post-compute virtual
                    # time (the server stamped the pre-compute instant).
                    ticket.completed_at = after
                latencies.append(ticket.latency)
                if ticket.retried:
                    retried_latencies.append(ticket.latency)
                steps_served += ticket.outputs.shape[0]
            elif ticket.expired:
                expired += 1
            else:
                failed += 1
        outstanding[:] = still

    def run_tick(at: float) -> float:
        """Run one due tick; advance the virtual clock by measured cost."""
        nonlocal ticks
        start = timer()
        completed = server.poll(now=at)
        elapsed = timer() - start
        after = at + elapsed
        if completed:
            ticks += 1
            tick_compute.observe(elapsed * 1e3)
        # Scan even on completed == 0: a poll may resolve tickets only
        # by shedding expired requests or failing poisoned ones.
        settle(after, completed)
        return after

    def admit(position: int) -> None:
        nonlocal rejected
        arrival = float(arrivals[position])
        slot = position % sessions
        try:
            outstanding.append(
                server.submit(session_ids[slot], chunks[position],
                              now=arrival))
        except CapacityError:
            rejected += 1
        except StateError:
            # The session was reaped while this client was idle: a real
            # client reconnects — open a fresh stream and resubmit.
            session_ids[slot] = server.open_session(now=arrival)
            try:
                outstanding.append(
                    server.submit(session_ids[slot], chunks[position],
                                  now=arrival))
            except CapacityError:
                rejected += 1

    while index < requests or outstanding:
        # Admit everything that has arrived by ``now`` — arrivals land in
        # the queue while the server computes, stamped with their *true*
        # arrival time, and are rejected at that moment if the queue is
        # full.  Only then may the next tick run.
        while index < requests and arrivals[index] <= now:
            admit(index)
            index += 1
        if server.ready(now=now):
            now = run_tick(now)
            continue
        next_arrival = arrivals[index] if index < requests else math.inf
        deadline = server.next_deadline()
        deadline = math.inf if deadline is None else deadline
        event = min(next_arrival, deadline)
        if math.isinf(event):
            # Nothing schedulable — but queued-only requests may still
            # hold tickets that a TTL poll would expire; resolve them
            # instead of spinning forever.
            if outstanding:
                now = run_tick(now)
                if outstanding:
                    break  # genuinely unresolvable (no TTL configured)
                continue
            break
        now = max(now, event)

    duration = max(now, float(arrivals[-1]) if requests else 0.0)
    divergence = (server.mean_divergence()
                  if getattr(server, "shadow", False) else None)
    injected = (sum(plan.injected.values()) - injected_before if plan
                else 0)
    # Drain-time accounting tripwire: every submission this run made (and
    # any the server saw before) must be booked exactly once.
    server.check_invariants()
    if export_dir is not None:
        export_dir = Path(export_dir)
        export_dir.mkdir(parents=True, exist_ok=True)
        (export_dir / "serving.prom").write_text(
            server.metrics.render_prometheus(), encoding="utf-8")
        if server.telemetry is not None:
            server.telemetry.tracer.write_jsonl(
                export_dir / "serving.trace.jsonl")
    return ServingReport.from_run(
        rate_rps, duration, latencies, rejected, ticks, steps_served,
        divergence=divergence, expired=expired, failed=failed,
        retried_latencies_s=retried_latencies, faults_injected=injected,
        queue_wait_p95_ms=queue_wait.percentile(95,
                                                start=queue_wait_start),
        tick_compute_p95_ms=tick_compute.percentile(
            95, start=tick_compute_start),
        pool_stats=None if pool is None else pool.stats)


@dataclasses.dataclass(frozen=True)
class TenantLoad:
    """One tenant's slice of a fleet load mix.

    ``share`` weights the per-request tenant draw (shares are
    normalized, so ``(3, 1)`` means a 75/25 split); ``sessions`` is the
    tenant's concurrent stream count; ``quota`` (a
    :class:`~repro.serve.fleet.TenantQuota`) is installed on the fleet
    before the run when given.
    """

    tenant: str
    share: float = 1.0
    sessions: int = 4
    quota: object = None  # a repro.serve.fleet.TenantQuota, or None

    def __post_init__(self):
        if self.share <= 0:
            raise ValueError(
                f"tenant {self.tenant!r} share must be > 0, "
                f"got {self.share}")
        if self.sessions < 1:
            raise ValueError(
                f"tenant {self.tenant!r} needs >= 1 session, "
                f"got {self.sessions}")


@dataclasses.dataclass
class FleetReport:
    """One multi-tenant open-loop run: fleet-wide plus per-tenant books."""

    aggregate: ServingReport
    #: Per-tenant :class:`ServingReport` (offered rate = the tenant's
    #: share of the mix; ``ticks`` is fleet-wide, so ``mean_batch`` is
    #: the tenant's share of each tick).
    tenants: dict
    replicas: int
    live_replicas: int
    replicas_down: int
    misroutes: int
    canary_weight: float
    #: Fraction of completed chunks served by the canary generation
    #: (``None`` when no canary was in flight).
    canary_share: float | None
    #: Per-tenant admission-control rejections (token bucket +
    #: in-flight bound) — the quota slice of each tenant's ``rejected``.
    quota_rejected: dict

    def to_dict(self) -> dict:
        view = dataclasses.asdict(self)
        view["aggregate"] = self.aggregate.to_dict()
        view["tenants"] = {name: report.to_dict()
                           for name, report in self.tenants.items()}
        return view

    def render(self) -> str:
        lines = [f"fleet    {self.aggregate.render()}"]
        for name in sorted(self.tenants):
            lines.append(f"{name:8s} {self.tenants[name].render()}")
        return "\n".join(lines)


def open_loop_fleet(fleet, *, tenants=None, requests: int = 400,
                    chunk_steps: int = 8, rate_rps: float = 300.0,
                    spike_density: float = 0.03,
                    rng: RandomState | int | None = 0,
                    workload=None, timer=time.perf_counter,
                    export_dir=None) -> FleetReport:
    """Drive a :class:`~repro.serve.fleet.Fleet` with a mixed
    multi-tenant Poisson arrival process.

    One open-loop schedule at ``rate_rps`` is drawn exactly as in
    :func:`open_loop`; each arrival is then assigned a tenant by a
    seeded draw weighted by the :class:`TenantLoad` shares and
    round-robined over that tenant's sessions.  Tenant quotas (when a
    ``TenantLoad.quota`` is given) are installed before any traffic, so
    the run measures the fleet's admission control, not just its
    queues: a tenant's ``CapacityError``\\ s count against *that
    tenant's* report only.

    A session that dies with its replica (``StateError`` on submit)
    reconnects through :meth:`~repro.serve.fleet.Fleet.open_session` —
    landing on a live replica — and resubmits once; if the whole fleet
    is down the chunk counts as rejected.  At drain the fleet-wide
    accounting tripwire :meth:`~repro.serve.fleet.Fleet.check_invariants`
    runs, like :func:`open_loop` does for a bare server.

    ``export_dir`` writes ``fleet.prom`` (the fleet registry snapshot)
    and, when a telemetry bundle is attached, ``fleet.trace.jsonl``.
    """
    rng = as_random_state(rng)
    if tenants is None:
        tenants = (TenantLoad("t0"),)
    tenants = tuple(tenants)
    if not tenants:
        raise ValueError("open_loop_fleet needs at least one TenantLoad")
    names = [t.tenant for t in tenants]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant ids in load mix: {names}")
    for load in tenants:
        if load.quota is not None:
            fleet.set_quota(load.tenant, load.quota)
    n_in = fleet.network.sizes[0]
    if workload is not None:
        from .workloads import make_workload

        workload = make_workload(workload, channels=None)
        if workload.channels != n_in:
            raise ShapeError(
                f"workload {workload.name!r} emits {workload.channels} "
                f"channels but the served network expects {n_in}")
    session_ids = {
        load.tenant: [fleet.open_session(load.tenant, now=0.0)
                      for _ in range(load.sessions)]
        for load in tenants
    }
    gaps = -np.log(np.clip(rng.random(requests), 1e-12, None)) / rate_rps
    arrivals = np.cumsum(gaps)
    shares = np.asarray([load.share for load in tenants], dtype=np.float64)
    edges = np.cumsum(shares / shares.sum())
    owners = np.searchsorted(edges, rng.random(requests), side="right")
    owners = np.minimum(owners, len(tenants) - 1)
    if workload is None:
        chunks = [
            (rng.random((chunk_steps, n_in))
             < spike_density).astype(np.float64)
            for _ in range(requests)
        ]
    else:
        chunks = [workload.sample(chunk_steps, rng)
                  for _ in range(requests)]

    class _Books:
        __slots__ = ("outstanding", "latencies", "retried", "rejected",
                     "expired", "failed", "steps", "cursor")

        def __init__(self):
            self.outstanding: list = []
            self.latencies: list[float] = []
            self.retried: list[float] = []
            self.rejected = 0
            self.expired = 0
            self.failed = 0
            self.steps = 0
            self.cursor = 0

    books = {load.tenant: _Books() for load in tenants}
    ticks = 0
    now = 0.0
    index = 0
    plan = _faults.active_plan()
    injected_before = sum(plan.injected.values()) if plan else 0
    quota_before = {name: tenant["rejected_quota"]
                    for name, tenant in fleet.stats["per_tenant"].items()}
    canary_before = {name: tenant["completed_canary"]
                     for name, tenant in fleet.stats["per_tenant"].items()}
    canary_active = fleet.canary_generation is not None
    # Window the per-replica queue-wait histograms (and a fleet-level
    # tick-compute histogram) to this run, as open_loop does for one
    # server's.
    queue_window = fleet._queue_wait_window()
    tick_compute = fleet.metrics.histogram(
        "serve.tick_compute_ms",
        help="measured wall-clock compute per completed tick (ms)")
    tick_compute_start = tick_compute.count

    def settle(after: float, completed: int) -> None:
        for book in books.values():
            still = []
            for ticket in book.outstanding:
                if not ticket.done:
                    still.append(ticket)
                elif ticket.ok:
                    if completed:
                        ticket.completed_at = after
                    book.latencies.append(ticket.latency)
                    if ticket.retried:
                        book.retried.append(ticket.latency)
                    book.steps += ticket.outputs.shape[0]
                elif ticket.expired:
                    book.expired += 1
                else:
                    book.failed += 1
            book.outstanding[:] = still

    def run_tick(at: float) -> float:
        nonlocal ticks
        start = timer()
        completed = fleet.poll(now=at)
        elapsed = timer() - start
        after = at + elapsed
        if completed:
            ticks += 1
            tick_compute.observe(elapsed * 1e3)
        settle(after, completed)
        return after

    def admit(position: int) -> None:
        arrival = float(arrivals[position])
        load = tenants[int(owners[position])]
        book = books[load.tenant]
        ids = session_ids[load.tenant]
        slot = book.cursor % len(ids)
        book.cursor += 1
        try:
            book.outstanding.append(
                fleet.submit(ids[slot], chunks[position], now=arrival))
        except CapacityError:
            book.rejected += 1
        except StateError:
            # The session's replica died (or the stream was reaped): a
            # real client reconnects, landing on a live replica — the
            # fleet's re-route path.
            try:
                ids[slot] = fleet.open_session(load.tenant, now=arrival)
            except StateError:
                # No live replica at all: the connect itself is refused.
                book.rejected += 1
                return
            try:
                book.outstanding.append(
                    fleet.submit(ids[slot], chunks[position], now=arrival))
            except CapacityError:
                book.rejected += 1

    def draining() -> bool:
        return any(book.outstanding for book in books.values())

    while index < requests or draining():
        while index < requests and arrivals[index] <= now:
            admit(index)
            index += 1
        if fleet.ready(now=now):
            now = run_tick(now)
            continue
        next_arrival = arrivals[index] if index < requests else math.inf
        deadline = fleet.next_deadline()
        deadline = math.inf if deadline is None else deadline
        event = min(next_arrival, deadline)
        if math.isinf(event):
            if draining():
                now = run_tick(now)
                if draining():
                    break
                continue
            break
        now = max(now, event)

    duration = max(now, float(arrivals[-1]) if requests else 0.0)
    divergence = fleet.mean_divergence() if fleet.shadow else None
    injected = (sum(plan.injected.values()) - injected_before if plan
                else 0)
    fleet.check_invariants()
    if export_dir is not None:
        export_dir = Path(export_dir)
        export_dir.mkdir(parents=True, exist_ok=True)
        (export_dir / "fleet.prom").write_text(
            fleet.metrics.render_prometheus(), encoding="utf-8")
        if fleet.telemetry is not None:
            fleet.telemetry.tracer.write_jsonl(
                export_dir / "fleet.trace.jsonl")

    queue_samples = [sample for histogram, start in queue_window
                     for sample in histogram.samples[start:]]
    queue_wait_p95 = (float(np.percentile(np.asarray(queue_samples), 95))
                      if queue_samples else None)
    tick_compute_p95 = tick_compute.percentile(95, start=tick_compute_start)
    share_total = float(shares.sum())
    per_tenant = {}
    for load in tenants:
        book = books[load.tenant]
        per_tenant[load.tenant] = ServingReport.from_run(
            rate_rps * load.share / share_total, duration,
            book.latencies, book.rejected, ticks, book.steps,
            expired=book.expired, failed=book.failed,
            retried_latencies_s=book.retried)
    aggregate = ServingReport.from_run(
        rate_rps, duration,
        [lat for book in books.values() for lat in book.latencies],
        sum(book.rejected for book in books.values()), ticks,
        sum(book.steps for book in books.values()),
        divergence=divergence,
        expired=sum(book.expired for book in books.values()),
        failed=sum(book.failed for book in books.values()),
        retried_latencies_s=[lat for book in books.values()
                             for lat in book.retried],
        faults_injected=injected,
        queue_wait_p95_ms=queue_wait_p95,
        tick_compute_p95_ms=tick_compute_p95)
    after_tenants = fleet.stats["per_tenant"]
    quota_rejected = {
        name: after_tenants[name]["rejected_quota"]
        - quota_before.get(name, 0)
        for name in after_tenants
    }
    canary_completed = sum(
        after_tenants[name]["completed_canary"]
        - canary_before.get(name, 0)
        for name in after_tenants)
    canary_share = None
    if canary_active and aggregate.completed:
        canary_share = round(canary_completed / aggregate.completed, 6)
    return FleetReport(
        aggregate=aggregate,
        tenants=per_tenant,
        replicas=fleet.replicas,
        live_replicas=fleet.live_replicas,
        replicas_down=int(fleet.stats["replicas_down"]),
        misroutes=int(fleet.stats["misroutes"]),
        canary_weight=float(fleet.canary_weight),
        canary_share=canary_share,
        quota_rejected=quota_rejected,
    )
