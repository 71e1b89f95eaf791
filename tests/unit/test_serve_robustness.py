"""Degradation-ladder tests for the serving layer (docs/robustness.md).

Each rung is pinned under the seeded fault plane
(:mod:`repro.common.faults`): request-TTL shedding, idle-session
reaping, per-request error isolation, whole-tick retry, the
hardware→ideal weight fallback, and the shadow circuit breaker.  The
load-bearing invariant throughout: a failed or shed chunk never
advances its session's stream state, and every recovered chunk's
outputs are bitwise-identical to a fault-free server's.
"""

import numpy as np
import pytest

from repro.common import faults
from repro.common.errors import StateError
from repro.common.faults import FaultPlan, FaultRule
from repro.core import SpikingNetwork
from repro.serve import ModelServer

SIZES = (24, 20, 12)


def make_net(seed=1):
    net = SpikingNetwork(SIZES, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_chunk(steps=6, seed=0, density=0.15):
    rng = np.random.default_rng(seed)
    return (rng.random((steps, SIZES[0])) < density).astype(np.float64)


def make_mapped(net, variation=0.2, seed=3):
    from repro.hardware import HardwareMappedNetwork, RRAMDeviceConfig

    device = RRAMDeviceConfig(levels=16, variation=variation)
    return HardwareMappedNetwork(net, device, rng=seed)


def make_server(net=None, **kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_ms", 1.0)
    kwargs.setdefault("queue_limit", 16)
    return ModelServer(net if net is not None else make_net(), **kwargs)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


class TestRequestTtl:
    def test_expired_request_is_shed_not_served(self):
        server = make_server(max_wait_ms=10_000.0, request_ttl_ms=50.0)
        sid = server.open_session(now=0.0)
        ticket = server.submit(sid, make_chunk(), now=0.0)
        assert ticket.deadline == pytest.approx(0.05)
        assert server.poll(now=0.2) == 0
        assert ticket.done and ticket.expired and not ticket.ok
        assert server.stats["expired"] == 1
        assert server.stats["completed"] == 0

    def test_shedding_leaves_session_state_untouched(self):
        chunk = make_chunk()
        server = make_server(max_wait_ms=10_000.0, request_ttl_ms=50.0)
        sid = server.open_session(now=0.0)
        server.submit(sid, chunk, now=0.0)
        server.poll(now=0.2)   # sheds the queued chunk unserved
        outputs = server.infer(sid, chunk, now=0.2)
        clean = make_server()
        expected = clean.infer(clean.open_session(now=0.0), chunk, now=0.0)
        assert np.array_equal(outputs, expected)

    def test_ttl_validation(self):
        with pytest.raises(ValueError, match="request_ttl_ms"):
            make_server(request_ttl_ms=0.0)
        with pytest.raises(ValueError, match="session_ttl_s"):
            make_server(session_ttl_s=-1.0)


class TestSessionReaping:
    def test_poll_reaps_idle_sessions(self):
        server = make_server(session_ttl_s=10.0)
        sid = server.open_session(now=0.0)
        server.poll(now=5.0)
        assert server.sessions == 1   # not idle long enough yet
        server.poll(now=20.0)
        assert server.sessions == 0
        assert server.stats["reaped_sessions"] == 1
        with pytest.raises(StateError, match="unknown or closed"):
            server.submit(sid, make_chunk(), now=20.0)

    def test_submit_to_expired_session_raises_lazily(self):
        server = make_server(session_ttl_s=10.0)
        sid = server.open_session(now=0.0)
        with pytest.raises(StateError, match="expired after 10s idle"):
            server.submit(sid, make_chunk(), now=25.0)
        assert server.stats["reaped_sessions"] == 1
        assert server.sessions == 0

    def test_session_with_queued_work_is_not_reaped(self):
        server = make_server(max_wait_ms=10_000.0, session_ttl_s=10.0)
        sid = server.open_session(now=0.0)
        server.submit(sid, make_chunk(), now=0.0)
        server.poll(now=20.0)
        assert server.sessions == 1
        assert server.stats["reaped_sessions"] == 0


class TestRequestIsolation:
    def test_poisoned_request_fails_alone_and_neighbours_complete(self):
        chunks = [make_chunk(seed=i) for i in range(3)]
        server = make_server(max_batch=3)
        sids = [server.open_session(now=0.0) for _ in range(3)]
        tickets = [server.submit(sid, chunk, now=0.0)
                   for sid, chunk in zip(sids, chunks)]
        # The second per-request draw fires: exactly request 1 poisoned.
        plan = FaultPlan((FaultRule("serve.request.raise", nth=(2,)),),
                         seed=0)
        with faults.active(plan):
            server.flush(now=0.0)

        assert tickets[0].ok and tickets[0].retried
        assert tickets[2].ok and tickets[2].retried
        assert tickets[1].done and not tickets[1].ok
        assert "serve.request.raise" in tickets[1].error
        assert server.stats["failed"] == 1
        assert server.stats["retried"] == 2

        # The survivors are bitwise what a fault-free solo serve produces.
        for i in (0, 2):
            clean = make_server()
            expected = clean.infer(clean.open_session(now=0.0), chunks[i],
                                   now=0.0)
            assert np.array_equal(tickets[i].outputs, expected)

    def test_poisoned_session_resumes_from_where_it_stood(self):
        chunk = make_chunk(seed=1)
        server = make_server()
        sid = server.open_session(now=0.0)
        ticket = server.submit(sid, chunk, now=0.0)
        plan = FaultPlan((FaultRule("serve.request.raise", nth=(1,)),),
                         seed=0)
        with faults.active(plan):
            server.flush(now=0.0)
        assert not ticket.ok and server.stats["failed"] == 1

        # The failed chunk never advanced the stream: resubmitting it
        # serves the session's true next chunk, bitwise.
        outputs = server.infer(sid, chunk, now=0.0)
        clean = make_server()
        expected = clean.infer(clean.open_session(now=0.0), chunk, now=0.0)
        assert np.array_equal(outputs, expected)


class TestTickRetry:
    def test_failed_tick_retries_every_chunk_bitwise(self):
        chunks = [make_chunk(seed=i) for i in range(2)]
        server = make_server(max_batch=2)
        sids = [server.open_session(now=0.0) for _ in range(2)]
        tickets = [server.submit(sid, chunk, now=0.0)
                   for sid, chunk in zip(sids, chunks)]
        plan = FaultPlan((FaultRule("serve.tick.raise", nth=(1,)),), seed=0)
        with faults.active(plan):
            server.flush(now=0.0)

        assert all(t.ok and t.retried for t in tickets)
        assert server.stats["retried"] == 2
        assert server.stats["failed"] == 0
        for ticket, chunk in zip(tickets, chunks):
            clean = make_server()
            expected = clean.infer(clean.open_session(now=0.0), chunk,
                                   now=0.0)
            assert np.array_equal(ticket.outputs, expected)


class TestWeightFallback:
    def test_stale_hardware_weights_degrade_to_ideal(self):
        net = make_net()
        chunk = make_chunk()
        server = make_server(net, hardware=make_mapped(net))
        sid = server.open_session(now=0.0)
        plan = FaultPlan((FaultRule("hw.weights.stale", nth=(1,)),), seed=0)
        with faults.active(plan):
            ticket = server.submit(sid, chunk, now=0.0)
            server.flush(now=0.0)
            assert ticket.ok and ticket.degraded
            assert server.stats["weight_fallbacks"] == 1
            assert server.stats["degraded_chunks"] == 1
            # Degraded chunks are served through the ideal weights.
            ideal = make_server(make_net())
            expected = ideal.infer(ideal.open_session(now=0.0), chunk,
                                   now=0.0)
            assert np.array_equal(ticket.outputs, expected)
            # The next tick's weight read succeeds: back to hardware.
            second = server.submit(sid, make_chunk(seed=9), now=0.0)
            server.flush(now=0.0)
        assert second.ok and not second.degraded
        assert server.stats["weight_fallbacks"] == 1


class TestShadowBreaker:
    def test_breaker_trips_after_threshold_and_primary_survives(self):
        net = make_net()
        server = make_server(net, hardware=make_mapped(net), shadow=True)
        assert server.shadow_threshold == 3
        sid = server.open_session(now=0.0)
        chunks = [make_chunk(seed=i) for i in range(4)]
        plan = FaultPlan((FaultRule("serve.shadow.raise", nth=(1, 2, 3)),),
                         seed=0)
        tickets = []
        with faults.active(plan):
            for chunk in chunks:
                ticket = server.submit(sid, chunk, now=0.0)
                server.flush(now=0.0)
                tickets.append(ticket)

        assert all(t.ok for t in tickets)
        assert server.stats["shadow_failures"] == 3
        assert server.shadow_disabled
        # Tripped before any shadow pass ran — and the 4th tick, whose
        # fault schedule is exhausted, must not re-enable the canary.
        assert server.stats["shadow_chunks"] == 0
        assert all(t.divergence is None for t in tickets)

        # The primary stream is untouched by the canary dying: the full
        # 4-chunk session equals an ideal server's, bitwise.
        clean = make_server(make_net())
        csid = clean.open_session(now=0.0)
        for ticket, chunk in zip(tickets, chunks):
            expected = clean.infer(csid, chunk, now=0.0)
            assert np.array_equal(ticket.outputs, expected)

    def test_shadow_survives_below_threshold(self):
        net = make_net()
        server = make_server(net, hardware=make_mapped(net), shadow=True,
                             shadow_threshold=2)
        sid = server.open_session(now=0.0)
        plan = FaultPlan((FaultRule("serve.shadow.raise", nth=(1,)),), seed=0)
        with faults.active(plan):
            first = server.submit(sid, make_chunk(seed=0), now=0.0)
            server.flush(now=0.0)
            second = server.submit(sid, make_chunk(seed=1), now=0.0)
            server.flush(now=0.0)
        assert first.ok and first.divergence is None
        assert second.ok and second.divergence is not None
        assert server.stats["shadow_failures"] == 1
        assert not server.shadow_disabled
        assert server.stats["shadow_chunks"] == 1


class TestFleetReplicaKill:
    """The fleet rung of the degradation ladder (docs/fleet.md): losing
    a replica mid-load degrades availability bounded, never silently —
    its sessions fail with a reconnect hint, re-routed sessions land on
    survivors, and the fleet-wide books stay conserved."""

    def _fleet(self, **kwargs):
        from repro.serve import Fleet

        kwargs.setdefault("max_batch", 8)
        kwargs.setdefault("max_wait_ms", 0.5)
        kwargs.setdefault("queue_limit", 64)
        return Fleet(make_net(), replicas=2, seed=9, **kwargs)

    def test_kill_mid_load_holds_the_availability_floor(self):
        from repro.serve.loadgen import TenantLoad, open_loop_fleet

        plan = FaultPlan(
            (FaultRule("fleet.replica.down", probability=1.0,
                       where={"replica": 0}, times=1),),
            seed=7)
        fleet = self._fleet()
        try:
            with faults.active(plan):
                # open_loop_fleet reconnects StateError'd sessions via
                # the router and runs fleet.check_invariants() at
                # drain: a lost ticket raises out of this call.
                report = open_loop_fleet(
                    fleet, tenants=(TenantLoad("t0", sessions=6),),
                    requests=200, rate_rps=500.0, chunk_steps=6, rng=9)
            stats = fleet.stats
        finally:
            fleet.close()
        assert report.replicas_down == 1
        assert report.live_replicas == 1
        assert stats["lost_sessions"] >= 1          # re-routed sessions
        aggregate = report.aggregate
        assert aggregate.availability >= 0.95
        assert aggregate.completed > 0              # survivor kept serving
        resolved = (aggregate.completed + aggregate.rejected
                    + aggregate.requests_failed
                    + aggregate.requests_expired)
        assert resolved == aggregate.submitted      # no lost tickets

    def test_whole_fleet_down_fails_cleanly(self):
        plan = FaultPlan(
            (FaultRule("fleet.replica.down", probability=1.0),),
            seed=7)
        fleet = self._fleet()
        try:
            sid = fleet.open_session("t0", now=0.0)
            fleet.submit(sid, make_chunk(), now=0.0)
            with faults.active(plan):
                fleet.poll(now=0.1)    # housekeeping kills both replicas
            assert fleet.live_replicas == 0
            with pytest.raises(StateError, match="no live replica"):
                fleet.open_session("t0", now=0.2)
            fleet.check_invariants()   # books survive total loss
        finally:
            fleet.close()
