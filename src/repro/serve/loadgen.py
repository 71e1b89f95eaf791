"""Synthetic open-loop load generation and serving metrics.

:func:`open_loop` drives a :class:`~repro.serve.server.ModelServer` or a
:class:`~repro.serve.fleet.Fleet` the way independent clients would:
request arrival times are drawn from a Poisson process at a configured
offered rate and do **not** wait for earlier responses (open loop — the
honest way to measure a server, cf. closed-loop generators that
self-throttle and hide queueing).

Time is hybrid: arrivals advance a virtual clock along the precomputed
schedule, while each tick advances it by the tick's *measured* wall-clock
compute.  Latency therefore contains everything a real client would see —
queueing delay, the coalescing wait, and compute — while the schedule
stays exactly reproducible for a given seed.  On an otherwise idle
machine the numbers match a realtime run; the virtual clock just removes
sleep time and scheduler jitter from the measurement.

A fleet's load is a mix of named tenants (:class:`TenantLoad` shares)
splitting the one arrival process; a bare server is one implicit
tenant.  Both run the same event loop, so a 1-replica, 1-tenant fleet
and a bare server with the same settings report the same numbers.  A
server run returns a :class:`ServingReport` (``throughput_rps``,
p50/p95/p99 latency: the serving rows of ``run_table.csv``); a fleet
run returns a :class:`FleetReport`, that report fleet-wide plus one per
tenant (the per-tenant SLO rows of the ``fleet`` scenario kind).
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from ..common import faults as _faults
from ..common.errors import CapacityError, ShapeError, StateError
from ..common.rng import RandomState, as_random_state
from .fleet import Fleet
from .workloads import SyntheticWorkload, make_workload

__all__ = ["FleetReport", "ServingReport", "TenantLoad", "open_loop"]


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
    #: clock, ms) — from the ``serve.queue_wait_ms`` histograms, windowed
    #: to this run.  ``None`` when nothing was batched.
    queue_wait_p95_ms: float | None = None
    #: p95 of measured per-tick compute (the load generator's ``timer``,
    #: ms).  ``None`` when no tick completed anything.
    tick_compute_p95_ms: float | None = None

    @classmethod
    def from_run(cls, offered_rps: float, duration_s: float,
                 latencies_s: list[float], rejected: int,
                 ticks: int, steps: int,
                 divergence: float | None = None,
                 expired: int = 0, failed: int = 0,
                 retried_latencies_s: list[float] | None = None,
                 faults_injected: int = 0,
                 queue_wait_p95_ms: float | None = None,
                 tick_compute_p95_ms: float | None = None
                 ) -> "ServingReport":
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


class _Books:
    """One tenant's client streams and its share of the run's outcomes."""

    #: What a run books per tenant; summed, the fleet-wide books.
    OUTCOMES = ("latencies", "retried", "rejected", "expired", "failed",
                "steps")
    __slots__ = ("session_ids", "cursor", "outstanding") + OUTCOMES

    def __init__(self, session_ids: list):
        self.session_ids = session_ids
        self.cursor = 0
        self.outstanding: list = []
        self.latencies: list[float] = []
        self.retried: list[float] = []
        self.rejected = self.expired = self.failed = self.steps = 0

    def report(self, offered_rps: float, duration: float, ticks: int,
               **extra) -> ServingReport:
        return ServingReport.from_run(
            offered_rps, duration, self.latencies, self.rejected, ticks,
            self.steps, expired=self.expired, failed=self.failed,
            retried_latencies_s=self.retried, **extra)


def open_loop(target, *, tenants=None, sessions: int = 16,
              requests: int = 200, chunk_steps: int = 10,
              rate_rps: float = 200.0,
              rng: RandomState | int | None = 0, workload=None,
              timer=time.perf_counter) -> ServingReport | FleetReport:
    """Drive ``target`` with a Poisson open-loop arrival process.

    Returns a :class:`ServingReport` for a server target and a
    :class:`FleetReport` for a fleet target.

    Parameters
    ----------
    target:
        A :class:`~repro.serve.server.ModelServer` or a
        :class:`~repro.serve.fleet.Fleet` (fresh stats are not required;
        the report counts only this run's tickets).
    tenants:
        Fleet targets only: the :class:`TenantLoad` mix.  Each arrival
        gets a tenant from a seeded draw weighted by the shares (made
        only when there is more than one tenant); tenant quotas are
        installed before any traffic.  Default, and always for a bare
        server: one tenant ``"t0"`` with ``sessions`` streams.
    sessions:
        Concurrent client streams of the implicit tenant.  Arrivals are
        round-robined over a tenant's streams, so every stream receives
        an in-order subsequence of chunks.
    requests, chunk_steps, rate_rps:
        ``requests`` chunks of ``chunk_steps`` time steps (pregenerated
        outside the timed loop) arrive at ``rate_rps`` chunks/second.
    workload:
        A :class:`~repro.serve.workloads.Workload` or its name (``"dvs"``,
        ``"speech+synthetic"``, ...) of the served network's input width.
        ``None`` and ``"synthetic"`` are Bernoulli spikes at that width
        (:class:`~repro.serve.workloads.SyntheticWorkload`).
    timer:
        Clock measuring per-tick compute (seconds, monotonic); the
        harness's reproducibility tests inject a deterministic fake.
        Each completed tick is also observed into the target's
        ``serve.tick_compute_ms`` histogram; the run's p95 is reported.

    A stream whose session is gone reconnects and resubmits once (a
    fleet lands it on a live replica).  At drain the target's
    accounting tripwire (``check_invariants``) runs.
    """
    if sessions < 1 or chunk_steps < 1:
        raise ValueError(f"sessions and chunk_steps must be >= 1, got "
                         f"{sessions} and {chunk_steps}")
    if requests < 0:
        raise ValueError(f"requests must be >= 0, got {requests}")
    if not (math.isfinite(rate_rps) and rate_rps > 0):
        raise ValueError(f"rate_rps must be finite and > 0, got {rate_rps}")
    fleet = isinstance(target, Fleet)
    if tenants is None:
        tenants = (TenantLoad("t0", sessions=sessions),)
    elif not fleet:
        raise ValueError("tenants= needs a Fleet target")
    tenants = tuple(tenants)
    names = [load.tenant for load in tenants]
    if not names or len(set(names)) != len(names):
        raise ValueError(f"open_loop needs >= 1 TenantLoad, with distinct "
                         f"ids; got {names}")
    n_in = target.network.sizes[0]
    if workload is None or workload == "synthetic":
        workload = SyntheticWorkload(n_in)
    workload = make_workload(workload)
    if workload.channels != n_in:
        raise ShapeError(
            f"workload {workload.name!r} emits {workload.channels} "
            f"channels but the served network expects {n_in}")
    rng = as_random_state(rng)

    def connect(load: TenantLoad, now: float) -> str:
        tenant = (load.tenant,) if fleet else ()
        return target.open_session(*tenant, now=now)

    before = {}
    if fleet:
        for load in tenants:
            if load.quota is not None:
                target.set_quota(load.tenant, load.quota)
        before = target.stats["per_tenant"]
    canary_active = fleet and target.canary_generation is not None
    books = [_Books([connect(load, 0.0) for _ in range(load.sessions)])
             for load in tenants]
    gaps = -np.log(np.clip(rng.random(requests), 1e-12, None)) / rate_rps
    arrivals = np.cumsum(gaps)
    shares = np.asarray([load.share for load in tenants], dtype=np.float64)
    owners = np.zeros(requests, dtype=np.intp)
    if len(tenants) > 1:
        edges = np.cumsum(shares / shares.sum())
        owners = np.minimum(
            np.searchsorted(edges, rng.random(requests), side="right"),
            len(tenants) - 1)
    chunks = [workload.sample(chunk_steps, rng) for _ in range(requests)]

    ticks, now, index = 0, 0.0, 0
    plan = _faults.active_plan()
    injected_before = sum(plan.injected.values()) if plan else 0
    # Window the shared histograms to this run: the instruments outlive
    # a single open_loop call (one server may be driven by several), so
    # percentiles read only the samples added from here on.
    queue_window = target._queue_wait_window()
    tick_compute = target.metrics.histogram(
        "serve.tick_compute_ms",
        help="measured wall-clock compute per completed tick (ms)")
    tick_compute_start = tick_compute.count

    def settle(after: float, completed: int) -> None:
        """Resolve finished tickets against the post-compute time."""
        for book in books:
            still = []
            for ticket in book.outstanding:
                if not ticket.done:
                    still.append(ticket)
                elif ticket.ok:
                    if completed:
                        # Re-stamp completion at the post-compute virtual
                        # time (the server stamped the pre-compute one).
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
        """Run one due tick; advance the virtual clock by measured cost."""
        nonlocal ticks
        start = timer()
        completed = target.poll(now=at)
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
        arrival = float(arrivals[position])
        load, book = tenants[owners[position]], books[owners[position]]
        slot = book.cursor % load.sessions
        book.cursor += 1
        try:
            book.outstanding.append(target.submit(
                book.session_ids[slot], chunks[position], now=arrival))
        except CapacityError:
            book.rejected += 1
        except StateError:
            # The stream was reaped while idle, or its replica died: a
            # real client reconnects and resubmits.
            try:
                book.session_ids[slot] = connect(load, arrival)
            except StateError:
                # No live replica at all: the connect itself is refused.
                book.rejected += 1
                return
            try:
                book.outstanding.append(target.submit(
                    book.session_ids[slot], chunks[position], now=arrival))
            except CapacityError:
                book.rejected += 1

    def draining() -> bool:
        return any(book.outstanding for book in books)

    while index < requests or draining():
        # Admit everything that has arrived by ``now`` — arrivals land in
        # the queue while the target computes, stamped with their *true*
        # arrival time, and are rejected at that moment if the queue is
        # full.  Only then may the next tick run.
        while index < requests and arrivals[index] <= now:
            admit(index)
            index += 1
        if target.ready(now=now):
            now = run_tick(now)
            continue
        next_arrival = arrivals[index] if index < requests else math.inf
        deadline = target.next_deadline()
        deadline = math.inf if deadline is None else deadline
        event = min(next_arrival, deadline)
        if math.isinf(event):
            # Nothing schedulable — but queued-only requests may still
            # hold tickets that a TTL poll would expire; resolve them
            # instead of spinning forever.
            if draining():
                now = run_tick(now)
                if draining():
                    break  # genuinely unresolvable (no TTL configured)
                continue
            break
        now = max(now, event)

    duration = max(now, float(arrivals[-1]) if requests else 0.0)
    divergence = target.mean_divergence() if target.shadow else None
    injected = (sum(plan.injected.values()) - injected_before if plan
                else 0)
    # Drain-time accounting tripwire: every submission this run made (and
    # any the target saw before) must be booked exactly once.
    target.check_invariants()
    queue_samples = [sample for histogram, start in queue_window
                     for sample in histogram.samples[start:]]
    whole = _Books([])  # tenant-major, as each tenant booked them
    for book in books:
        for key in _Books.OUTCOMES:
            setattr(whole, key, getattr(whole, key) + getattr(book, key))
    aggregate = whole.report(
        rate_rps, duration, ticks, divergence=divergence,
        faults_injected=injected,
        queue_wait_p95_ms=(float(np.percentile(queue_samples, 95))
                           if queue_samples else None),
        tick_compute_p95_ms=tick_compute.percentile(
            95, start=tick_compute_start))
    if not fleet:
        return aggregate

    stats = target.stats
    after = stats["per_tenant"]
    unseen = {"rejected_quota": 0, "completed_canary": 0}

    def delta(name: str, key: str) -> int:
        return after[name][key] - before.get(name, unseen)[key]

    canary_share = None
    if canary_active and aggregate.completed:
        canary_share = round(sum(delta(name, "completed_canary")
                                 for name in after)
                             / aggregate.completed, 6)
    return FleetReport(
        aggregate=aggregate,
        tenants={load.tenant: book.report(
                     rate_rps * load.share / float(shares.sum()),
                     duration, ticks)
                 for load, book in zip(tenants, books)},
        replicas=target.replicas,
        live_replicas=target.live_replicas,
        replicas_down=int(stats["replicas_down"]),
        misroutes=int(stats["misroutes"]),
        canary_weight=float(target.canary_weight),
        canary_share=canary_share,
        quota_rejected={name: delta(name, "rejected_quota")
                        for name in after},
    )
