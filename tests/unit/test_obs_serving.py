"""Telemetry through the serving stack: lifecycle events, stats views,
invariants, deterministic harness traces.

The contracts pinned here (see ``docs/observability.md``):

* **Ticket lifecycle** — every served chunk leaves a ``ticket.submitted``
  -> ``ticket.batched`` -> terminal (``completed``/``expired``/
  ``failed``) event chain in the installed tracer, and the ``serve.tick``
  span carries the gather/compute/scatter phase breakdown as attrs.
* **Compat views** — ``ModelServer.stats`` / ``WorkerPool.stats`` keep
  their pre-registry dict shapes while the numbers live in registry
  instruments.
* **Accounting invariant** — ``check_invariants`` balances submissions
  against terminal states + in-flight tickets, and raises on drift.
* **Deterministic traces** — the harness run twice with the same fake
  timer and seeds exports byte-identical trace JSONL.
* **Fault tagging** — every injected fault is exactly one
  ``fault.injected`` event.
"""

import numpy as np
import pytest

from repro import obs
from repro.common import faults
from repro.common.errors import StateError
from repro.core import SpikingNetwork
from repro.experiments.harness import run_scenarios
from repro.experiments.scenario import LoadSpec, Scenario
from repro.serve import ModelServer
from repro.serve.loadgen import open_loop

SIZES = (24, 20, 12)


class FakeClock:
    """Deterministic monotonic clock: every call advances 1 ms."""

    def __init__(self, dt=1e-3):
        self.now = 0.0
        self.dt = dt

    def __call__(self):
        self.now += self.dt
        return self.now


def make_net(seed=1):
    net = SpikingNetwork(SIZES, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_chunk(steps=6, seed=0, density=0.15):
    rng = np.random.default_rng(seed)
    return (rng.random((steps, SIZES[0])) < density).astype(np.float64)


def serve_some(telemetry, requests=3, **server_kwargs):
    """Open sessions, submit ``requests`` chunks, run the due ticks."""
    server = ModelServer(make_net(), max_batch=4, max_wait_ms=0.0,
                         telemetry=telemetry, **server_kwargs)
    sids = [server.open_session(now=0.0) for _ in range(requests)]
    tickets = [server.submit(sid, make_chunk(seed=i), now=float(i))
               for i, sid in enumerate(sids)]
    server.poll(now=10.0)
    return server, tickets


class TestServerLifecycleEvents:
    def test_ticket_chain_and_tick_span(self):
        telemetry = obs.Telemetry(clock=FakeClock())
        server, tickets = serve_some(telemetry, requests=3)
        assert all(t.ok for t in tickets)
        records = telemetry.tracer.records
        by_name = {}
        for record in records:
            by_name.setdefault(record["name"], []).append(record)
        for name in ("ticket.submitted", "ticket.batched",
                     "ticket.completed"):
            assert len(by_name[name]) == 3, name
        completed = by_name["ticket.completed"][0]
        assert completed["attrs"]["request"] == 0
        assert completed["attrs"]["session"] == "s000001"
        assert completed["attrs"]["degraded"] is False
        (tick,) = by_name["serve.tick"]
        assert tick["type"] == "span" and tick["attrs"]["batch"] == 3
        # Phase breakdown rides on the tick span, not on child spans —
        # three clock reads instead of three span objects per tick.
        for phase in ("gather_ms", "compute_ms", "scatter_ms"):
            assert tick["attrs"][phase] >= 0.0
        # Lifecycle events inside the tick parent to it.
        assert by_name["ticket.batched"][0]["parent"] is None
        assert completed["parent"] == tick["span"]

    def test_no_telemetry_means_no_hooks(self):
        server, tickets = serve_some(None)
        assert all(t.ok for t in tickets)
        assert server.telemetry is None
        assert server._span("x") is obs.NULL_SPAN
        assert server._event("x") is None

    def test_stats_compat_view(self):
        server, _ = serve_some(obs.Telemetry(clock=FakeClock()))
        stats = server.stats
        assert stats["submitted"] == stats["completed"] == 3
        assert stats["ticks"] == 1 and stats["max_tick_batch"] == 3
        for key in ("rejected", "expired", "failed", "retried",
                    "degraded_chunks", "weight_fallbacks"):
            assert stats[key] == 0
        assert all(isinstance(stats[k], int) for k in stats
                   if k != "divergence_sum")
        # The numbers are registry instruments, not a parallel dict.
        assert server.metrics.value("serve.completed") == 3

    def test_check_invariants_balances_and_trips(self):
        server, _ = serve_some(obs.Telemetry(clock=FakeClock()))
        books = server.check_invariants()
        assert books["submitted"] == 3 and books["in_flight"] == 0
        server._counters["submitted"].inc()  # simulate a lost ticket
        with pytest.raises(StateError, match="accounting drift"):
            server.check_invariants()

    def test_queue_wait_histogram_is_virtual_time(self):
        telemetry = obs.Telemetry(clock=FakeClock())
        server, _ = serve_some(telemetry)
        waits = telemetry.metrics.histogram("serve.queue_wait_ms").samples
        # Submitted at t=0,1,2 (virtual), all batched at now=10.0.
        assert sorted(waits) == [pytest.approx((10.0 - t) * 1e3)
                                 for t in (2.0, 1.0, 0.0)]


class TestLoadgenReport:
    def test_report_carries_profiling_percentiles(self):
        telemetry = obs.Telemetry(clock=FakeClock())
        with obs.active(telemetry):
            server = ModelServer(make_net(), max_batch=4, max_wait_ms=2.0)
            report = open_loop(server, sessions=3, requests=12,
                               chunk_steps=4, rate_rps=500.0, rng=0)
        assert report.completed == 12
        assert report.queue_wait_p95_ms is not None
        assert report.queue_wait_p95_ms >= 0.0
        assert report.tick_compute_p95_ms is not None
        assert report.tick_compute_p95_ms > 0.0

    def test_fault_injections_become_tagged_events(self):
        telemetry = obs.Telemetry(clock=FakeClock())
        plan = faults.FaultPlan(
            (faults.FaultRule("serve.request.raise", probability=0.25),),
            seed=3)
        with obs.active(telemetry), faults.active(plan) as active_plan:
            server = ModelServer(make_net(), max_batch=4, max_wait_ms=2.0)
            open_loop(server, sessions=3, requests=16, chunk_steps=4,
                      rate_rps=500.0, rng=0)
            injected = sum(active_plan.injected.values())
        events = [r for r in telemetry.tracer.records
                  if r["name"] == "fault.injected"]
        assert injected > 0
        assert len(events) == injected
        assert all(e["attrs"]["site"] == "serve.request.raise"
                   for e in events)
        failed = [r for r in telemetry.tracer.records
                  if r["name"] == "ticket.failed"]
        assert len(failed) == injected
        server.check_invariants()


class TestHarnessTraceDeterminism:
    @staticmethod
    def scenario(seed=0):
        return [Scenario(name="t-serving", kind="serving",
                         loads=(LoadSpec("smoke", 400.0, 10),),
                         sizes=SIZES, sessions=3, chunk_steps=4,
                         repetitions=1, seed=seed)]

    def test_same_seed_same_timer_byte_identical_trace(self, tmp_path):
        exports = []
        for run in ("a", "b"):
            out = tmp_path / run
            run_scenarios(self.scenario(), timer=FakeClock(),
                          trace_dir=out)
            (trace,) = sorted(out.glob("*.trace.jsonl"))
            (prom,) = sorted(out.glob("*.prom"))
            exports.append((trace.read_bytes(), prom.read_bytes()))
        assert exports[0] == exports[1]
        records = obs.parse_jsonl(exports[0][0].decode("utf-8"))
        assert records, "trace export is empty"
        assert obs.parse_prometheus(exports[0][1].decode("utf-8"))


class TestPoolStats:
    def test_pool_dispatch_counters_and_span(self):
        from repro.runtime.pool import WorkerPool

        telemetry = obs.Telemetry()
        net = SpikingNetwork((16, 12, 8), rng=0)
        x = (np.random.default_rng(0).random((4, 5, 16)) < 0.2) \
            .astype(np.float64)
        with obs.active(telemetry):
            pool = WorkerPool(net, workers=1)
            try:
                pool.run_sharded(x, batch_size=2)
                stats = pool.stats
            finally:
                pool.close()
        assert stats["dispatches"] >= 1
        assert stats["timeouts"] == 0 and stats["restarts"] == 0
        assert stats["respawns"] == {}
        spans = [r for r in telemetry.tracer.records
                 if r["name"] == "pool.dispatch"]
        assert spans and spans[0]["attrs"]["commands"] >= 1
