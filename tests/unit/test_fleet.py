"""Fleet tests: routing transparency, admission control, canary rollout.

The fleet promises pinned here (``repro/serve/fleet.py``,
``docs/fleet.md``):

* **Transparency** — a 1-replica fleet is bitwise-identical to a bare
  :class:`~repro.serve.ModelServer` at either precision, and
  on an N-replica fleet every session's outputs are bitwise-identical
  to streaming alone: the router may coalesce sessions however it
  likes, but never perturbs a computed spike.
* **Isolation** — admission control is per-tenant: a hot tenant burning
  through its token bucket or in-flight bound is rejected without the
  cold tenant seeing a single rejection, and each tenant's books
  conserve (offered == admitted + rejected + voided).
* **Rollout** — a canary generation takes its weighted share of new
  sessions, is judged on its rolling divergence / error window, and
  both promotion and rollback drain the losing generation
  generation-fenced (no session migrates mid-stream).
* **Degradation** — a dead replica fails its sessions cleanly
  (:class:`~repro.common.errors.StateError` on submit, reconnect lands
  on a survivor), and the fleet-wide accounting tripwire holds through
  kills, misroutes, and rollouts.
"""

import numpy as np
import pytest

from repro.common import faults
from repro.common.errors import CapacityError, StateError
from repro.core import SpikingNetwork
from repro.serve import Fleet, ModelRegistry, ModelServer, TenantQuota

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


def make_fleet(net=None, **kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_ms", 0.0)
    kwargs.setdefault("queue_limit", 32)
    return Fleet(net if net is not None else make_net(), **kwargs)


def solo_outputs(chunks, engine="fused", precision="float64"):
    """The reference: one session streamed alone on a bare server."""
    server = ModelServer(make_net(), engine=engine, precision=precision,
                         max_batch=4, max_wait_ms=0.0)
    try:
        sid = server.open_session(now=0.0)
        outputs = []
        for i, chunk in enumerate(chunks):
            ticket = server.submit(sid, chunk, now=float(i))
            server.flush(now=float(i))
            outputs.append(ticket.outputs.copy())
        return outputs
    finally:
        server.close()


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


class TestSingleReplicaEquivalence:
    @pytest.mark.parametrize("engine", ["fused"])
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_one_replica_fleet_is_bitwise_a_bare_server(
            self, engine, precision):
        chunks = [make_chunk(seed=i) for i in range(4)]
        expected = solo_outputs(chunks, engine=engine, precision=precision)
        fleet = make_fleet(replicas=1, precision=precision)
        try:
            sid = fleet.open_session("t0", now=0.0)
            for i, chunk in enumerate(chunks):
                ticket = fleet.submit(sid, chunk, now=float(i))
                fleet.flush(now=float(i))
                assert ticket.ok
                np.testing.assert_array_equal(ticket.outputs, expected[i])
            fleet.check_invariants()
        finally:
            fleet.close()


class TestRoutedSessionTransparency:
    def test_every_session_matches_its_solo_stream(self):
        # Nine sessions interleaved over three replicas; each session's
        # chunk sequence is seeded by its index, so each has its own
        # solo-stream reference.
        chunkseqs = [[make_chunk(seed=10 * s + i) for i in range(3)]
                     for s in range(9)]
        fleet = make_fleet(replicas=3, max_batch=8)
        try:
            sids = [fleet.open_session(f"tenant{s % 2}", now=0.0)
                    for s in range(9)]
            tickets = [[] for _ in sids]
            now = 0.0
            for i in range(3):           # round-robin the interleaving
                for s, sid in enumerate(sids):
                    tickets[s].append(
                        fleet.submit(sid, chunkseqs[s][i], now=now))
                    now += 0.001
                fleet.flush(now=now)
            fleet.check_invariants()
            for s in range(9):
                expected = solo_outputs(chunkseqs[s])
                for i in range(3):
                    assert tickets[s][i].ok
                    np.testing.assert_array_equal(
                        tickets[s][i].outputs, expected[i])
        finally:
            fleet.close()

    def test_sessions_spread_least_loaded(self):
        fleet = make_fleet(replicas=3)
        try:
            sids = [fleet.open_session("t0", now=0.0) for _ in range(6)]
            assert sorted(fleet.route(sid) for sid in sids) \
                == [0, 0, 1, 1, 2, 2]
        finally:
            fleet.close()


class TestTenantAdmission:
    def test_rate_quota_rejects_hot_and_spares_cold(self):
        fleet = make_fleet(replicas=2)
        fleet.set_quota("hot", TenantQuota(rate_rps=10.0, burst=2))
        try:
            hot = fleet.open_session("hot", now=0.0)
            cold = fleet.open_session("cold", now=0.0)
            fleet.submit(hot, make_chunk(seed=0), now=0.0)
            fleet.submit(hot, make_chunk(seed=1), now=0.0)
            with pytest.raises(CapacityError, match="token-bucket"):
                fleet.submit(hot, make_chunk(seed=2), now=0.0)
            # The cold tenant is untouched by the hot tenant's bucket.
            fleet.submit(cold, make_chunk(seed=3), now=0.0)
            fleet.flush(now=0.0)
            books = fleet.stats["per_tenant"]
            assert books["hot"]["rejected_quota"] == 1
            assert books["cold"]["rejected_quota"] == 0
            assert books["cold"]["rejected_queue"] == 0
            fleet.check_invariants()
        finally:
            fleet.close()

    def test_token_bucket_refills_over_time(self):
        fleet = make_fleet(replicas=1)
        fleet.set_quota("t", TenantQuota(rate_rps=10.0, burst=1))
        try:
            sid = fleet.open_session("t", now=0.0)
            fleet.submit(sid, make_chunk(seed=0), now=0.0)
            with pytest.raises(CapacityError):
                fleet.submit(sid, make_chunk(seed=1), now=0.01)
            fleet.flush(now=0.01)
            # 0.1 s at 10 rps refills exactly the one token.
            ticket = fleet.submit(sid, make_chunk(seed=1), now=0.11)
            fleet.flush(now=0.11)
            assert ticket.ok
        finally:
            fleet.close()

    def test_in_flight_bound_rejects_until_served(self):
        fleet = make_fleet(replicas=1, max_wait_ms=10_000.0)
        fleet.set_quota("t", TenantQuota(max_pending=2))
        try:
            sid = fleet.open_session("t", now=0.0)
            fleet.submit(sid, make_chunk(seed=0), now=0.0)
            fleet.submit(sid, make_chunk(seed=1), now=0.0)
            with pytest.raises(CapacityError, match="in-flight"):
                fleet.submit(sid, make_chunk(seed=2), now=0.0)
            fleet.flush(now=0.0)   # serves the pending chunks
            ticket = fleet.submit(sid, make_chunk(seed=2), now=0.0)
            fleet.flush(now=0.0)
            assert ticket.ok
        finally:
            fleet.close()

    def test_books_conserve_per_tenant(self):
        fleet = make_fleet(replicas=2)
        fleet.set_quota("hot", TenantQuota(rate_rps=50.0, burst=3))
        try:
            hot = fleet.open_session("hot", now=0.0)
            cold = fleet.open_session("cold", now=0.0)
            for i in range(8):
                for sid in (hot, cold):
                    try:
                        fleet.submit(sid, make_chunk(seed=i), now=0.0)
                    except CapacityError:
                        pass
            fleet.flush(now=0.0)
            for name, books in fleet.stats["per_tenant"].items():
                assert books["offered"] == (
                    books["admitted"] + books["rejected_quota"]
                    + books["rejected_queue"] + books["voided"]), name
            fleet.check_invariants()
        finally:
            fleet.close()


class TestCanaryRollout:
    def _fill_window(self, fleet, sessions, chunks_each=2, now=0.0):
        for burst in range(chunks_each):
            for j, sid in enumerate(sessions):
                fleet.submit(sid, make_chunk(seed=100 * burst + j),
                             now=now)
                now += 0.001
            fleet.flush(now=now)
        return now

    def test_weighted_split_and_promotion_from_registry(self, tmp_path):
        registry = ModelRegistry(tmp_path)
        registry.save("snn", make_net(seed=1), meta={"rev": 1})
        fleet = Fleet.from_registry(registry, "snn", replicas=2,
                                    max_wait_ms=0.0, seed=11)
        try:
            v2 = registry.save("snn", make_net(seed=2), meta={"rev": 2})
            gen = fleet.deploy_canary(registry=registry, version=v2,
                                      weight=0.5)
            assert fleet.canary_generation == gen
            sessions = [fleet.open_session("t0", now=0.0)
                        for _ in range(40)]
            status = fleet.canary_status()
            assert status["label"] == v2
            share = status["sessions"] / len(sessions)
            assert abs(share - 0.5) <= 0.2    # seeded draw, pinned
            now = self._fill_window(fleet, sessions)
            assert fleet.canary_status()["observed"] >= 32
            assert fleet.evaluate_canary() == "promote"
            old = fleet.primary_generation
            assert fleet.promote_canary() == gen
            assert fleet.primary_generation == gen
            assert fleet.canary_generation is None
            assert fleet.canary_weight == 0.0
            # New sessions all land on the promoted generation.
            generation_of = {r["replica"]: r["generation"]
                             for r in fleet.stats["per_replica"]}
            fresh = fleet.open_session("t0", now=now)
            assert generation_of[fleet.route(fresh)] == gen
            # The losing generation drains once its sessions close.
            assert not fleet.drained(old)
            for sid in sessions:
                if generation_of[fleet.route(sid)] == old:
                    fleet.close_session(sid)
            fleet.poll(now=now + 1.0)
            assert fleet.drained(old)
            fleet.check_invariants()
        finally:
            fleet.close()

    def test_divergent_shadow_canary_rolls_back_fenced(self):
        # The divergence-signal deployment: the canary serves the same
        # weights through a noisy hardware realization in shadow mode,
        # so every canary chunk reports an ideal-vs-hardware divergence
        # into the rolling window; a realization this bad must cross
        # the rollback threshold.
        net = make_net()
        fleet = make_fleet(net=net, replicas=2, shadow_threshold=10_000)
        try:
            gen = fleet.deploy_canary(
                hardware=make_mapped(net, variation=2.5, seed=3),
                shadow=True, weight=0.5)
            sessions = [fleet.open_session("t0", now=0.0)
                        for _ in range(40)]
            self._fill_window(fleet, sessions)
            status = fleet.canary_status()
            assert status["observed"] >= 32
            assert status["mean_divergence"] > 0.05
            assert fleet.evaluate_canary() == "rollback"
            assert fleet.rollback_canary() == gen
            assert fleet.canary_generation is None
            generation_of = {r["replica"]: r["generation"]
                             for r in fleet.stats["per_replica"]}
            survivors = [sid for sid in sessions
                         if generation_of[fleet.route(sid)] == gen]
            assert survivors    # weight 0.5 put sessions on the canary
            # Generation-fenced drain: an in-flight canary session
            # keeps streaming on its replica until it closes...
            ticket = fleet.submit(survivors[0], make_chunk(seed=7),
                                  now=1.0)
            fleet.flush(now=1.0)
            assert ticket.ok
            # ...but no *new* session lands on the cancelled generation.
            fresh = fleet.open_session("t0", now=1.0)
            assert generation_of[fleet.route(fresh)] != gen
            for sid in survivors:
                fleet.close_session(sid)
            fleet.poll(now=2.0)
            assert fleet.drained(gen)
            fleet.check_invariants()
        finally:
            fleet.close()

    def test_evaluate_holds_below_min_chunks(self):
        fleet = make_fleet(replicas=1)
        try:
            fleet.deploy_canary(weight=0.5)
            assert fleet.evaluate_canary() == "hold"
        finally:
            fleet.close()

    def test_second_canary_needs_a_decision_first(self):
        fleet = make_fleet(replicas=1)
        try:
            fleet.deploy_canary(weight=0.5)
            with pytest.raises(StateError, match="already in flight"):
                fleet.deploy_canary(weight=0.5)
        finally:
            fleet.close()


class TestReplicaDown:
    def _kill_rule(self, replica=0):
        return faults.FaultPlan(
            (faults.FaultRule("fleet.replica.down", probability=1.0,
                              where={"replica": replica}, times=1),),
            seed=7)

    def test_dead_replica_fails_sessions_and_reconnect_reroutes(self):
        fleet = make_fleet(replicas=2)
        try:
            sids = [fleet.open_session("t0", now=0.0) for _ in range(4)]
            on_r0 = [sid for sid in sids if fleet.route(sid) == 0]
            with faults.active(self._kill_rule(replica=0)):
                fleet.poll(now=0.1)    # housekeeping consults the site
            assert fleet.live_replicas == 1
            with pytest.raises(StateError, match="reconnect"):
                fleet.submit(on_r0[0], make_chunk(), now=0.2)
            assert fleet.stats["lost_sessions"] == 1
            # Reconnect lands on the survivor and serves.
            sid = fleet.open_session("t0", now=0.2)
            assert fleet.route(sid) == 1
            ticket = fleet.submit(sid, make_chunk(), now=0.2)
            fleet.flush(now=0.2)
            assert ticket.ok
            fleet.check_invariants()
        finally:
            fleet.close()

    def test_kill_fails_pending_chunks_cleanly(self):
        fleet = make_fleet(replicas=2, max_wait_ms=10_000.0)
        try:
            sids = [fleet.open_session("t0", now=0.0) for _ in range(2)]
            tickets = [fleet.submit(sid, make_chunk(seed=i), now=0.0)
                       for i, sid in enumerate(sids)]
            victim = [t for t, sid in zip(tickets, sids)
                      if fleet.route(sid) == 0]
            with faults.active(self._kill_rule(replica=0)):
                fleet.poll(now=0.1)
            fleet.flush(now=0.1)
            for ticket in victim:
                assert ticket.done and not ticket.ok
                assert "down" in ticket.error
            # Conservation holds through the kill.
            fleet.check_invariants()
            books = fleet.stats["per_tenant"]["t0"]
            assert books["failed"] == len(victim)
        finally:
            fleet.close()


class TestMisrouteGuard:
    def test_misroute_is_detected_corrected_and_bitwise(self):
        chunks = [make_chunk(seed=i) for i in range(3)]
        expected = solo_outputs(chunks)
        plan = faults.FaultPlan(
            (faults.FaultRule("fleet.route.misroute", nth=(2,)),),
            seed=7)
        fleet = make_fleet(replicas=2)
        try:
            sid = fleet.open_session("t0", now=0.0)
            with faults.active(plan):
                for i, chunk in enumerate(chunks):
                    ticket = fleet.submit(sid, chunk, now=float(i))
                    fleet.flush(now=float(i))
                    assert ticket.ok
                    np.testing.assert_array_equal(
                        ticket.outputs, expected[i])
            assert fleet.stats["misroutes"] == 1
            fleet.check_invariants()
        finally:
            fleet.close()


class TestFleetAccounting:
    def test_stats_aggregate_replica_books(self):
        fleet = make_fleet(replicas=2)
        try:
            sids = [fleet.open_session("t0", now=0.0) for _ in range(4)]
            for i, sid in enumerate(sids):
                fleet.submit(sid, make_chunk(seed=i), now=0.0)
            fleet.flush(now=0.0)
            stats = fleet.stats
            assert stats["submitted"] == 4
            assert stats["completed"] == 4
            assert stats["replicas"] == 2
            assert stats["live_replicas"] == 2
            per_replica = {r["replica"]: r for r in stats["per_replica"]}
            assert len(per_replica) == 2
            assert sum(r["sessions"] for r in per_replica.values()) == 4
        finally:
            fleet.close()

    def test_check_invariants_catches_cooked_books(self):
        fleet = make_fleet(replicas=1)
        try:
            sid = fleet.open_session("t0", now=0.0)
            fleet.submit(sid, make_chunk(), now=0.0)
            fleet.flush(now=0.0)
            fleet.check_invariants()
            fleet._tenants["t0"].count("admitted")   # cook the books
            with pytest.raises(StateError):
                fleet.check_invariants()
        finally:
            fleet.close()

    def test_close_is_idempotent_and_repr_renders(self):
        fleet = make_fleet(replicas=2)
        assert "2 replicas" in repr(fleet)
        fleet.close()
        fleet.close()
