"""Property tests for the fleet's routing, admission, and rollout laws.

The fleet promises (``docs/fleet.md``):

* **Sticky routing** — a session's replica is fixed at
  :meth:`~repro.serve.Fleet.open_session` and is a pure function of
  the session id thereafter: no interleaving of other sessions'
  traffic, polls, or flushes ever moves it.
* **Quota conservation** — per tenant, every offered chunk lands in
  exactly one book: ``offered == admitted + rejected_quota +
  rejected_queue + voided``, whatever the submission order, quota
  shape, or tick schedule — and the fleet-wide tripwire
  (:meth:`~repro.serve.Fleet.check_invariants`) agrees.
* **Weighted canary draw** — at a fixed fleet seed the share of new
  sessions routed to a weight-``w`` canary generation stays within a
  fixed tolerance of ``w`` (the draw is a seeded Bernoulli stream, so
  for a pinned seed this is deterministic, not flaky).
* **Fleet-of-1 == server** — driven through
  :func:`~repro.serve.loadgen.open_loop` with the same arguments and a
  fake tick clock, a 1-replica fleet with one tenant and a bare
  :class:`~repro.serve.ModelServer` with the same settings report the
  same numbers, field by field.
"""

import importlib.util
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CapacityError
from repro.core import SpikingNetwork
from repro.serve import Fleet, ModelServer, TenantQuota
from repro.serve.loadgen import TenantLoad, open_loop

_spec = importlib.util.spec_from_file_location(
    "harness_tests",
    pathlib.Path(__file__).resolve().parents[1] / "unit" / "test_harness.py")
_harness_tests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_harness_tests)
FakeTimer = _harness_tests.FakeTimer

SIZES = (16, 12, 8)

#: |canary session share - weight| ceiling for CANARY_SESSIONS seeded
#: draws (~4 sigma of the Bernoulli share at w = 0.5, n = 100).
CANARY_TOLERANCE = 0.2
CANARY_SESSIONS = 100


def make_net(seed=1):
    net = SpikingNetwork(SIZES, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_fleet(**kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_ms", 0.0)
    kwargs.setdefault("queue_limit", 8)
    kwargs.setdefault("seed", 0)
    return Fleet(make_net(), **kwargs)


def make_chunk(seed=0, steps=4, density=0.2):
    rng = np.random.default_rng(seed)
    return (rng.random((steps, SIZES[0])) < density).astype(np.float64)


# One interleaved step: (session index, op) where op submits a chunk,
# polls, or flushes the whole fleet.
ops_st = st.lists(
    st.tuples(st.integers(0, 7), st.sampled_from(["submit", "poll",
                                                  "flush"])),
    min_size=1, max_size=40)


class TestStickyRouting:
    @settings(max_examples=40, deadline=None)
    @given(ops=ops_st, replicas=st.integers(1, 3))
    def test_route_never_moves_under_interleaving(self, ops, replicas):
        fleet = make_fleet(replicas=replicas)
        try:
            sids = [fleet.open_session(f"t{i % 2}", now=0.0)
                    for i in range(8)]
            pinned = {sid: fleet.route(sid) for sid in sids}
            now = 0.0
            for index, op in ops:
                now += 0.001
                sid = sids[index]
                if op == "submit":
                    try:
                        fleet.submit(sid, make_chunk(seed=index), now=now)
                    except CapacityError:
                        pass   # bounded queue; admission is not routing
                elif op == "poll":
                    fleet.poll(now=now)
                else:
                    fleet.flush(now=now)
                assert {s: fleet.route(s) for s in sids} == pinned
            fleet.flush(now=now + 1.0)
            assert {s: fleet.route(s) for s in sids} == pinned
        finally:
            fleet.close()


quota_st = st.one_of(
    st.none(),
    st.builds(TenantQuota,
              rate_rps=st.one_of(st.none(),
                                 st.floats(1.0, 50.0)),
              burst=st.integers(1, 4),
              max_pending=st.one_of(st.none(), st.integers(1, 3))))


class TestQuotaConservation:
    @settings(max_examples=40, deadline=None)
    @given(quotas=st.tuples(quota_st, quota_st),
           submits=st.lists(st.tuples(st.integers(0, 1),
                                      st.floats(0.0, 1.0)),
                            min_size=1, max_size=40),
           flush_every=st.integers(1, 8))
    def test_offered_splits_exactly_into_the_books(
            self, quotas, submits, flush_every):
        fleet = make_fleet(replicas=2)
        try:
            for name, quota in zip(("a", "b"), quotas):
                if quota is not None:
                    fleet.set_quota(name, quota)
            sessions = {name: fleet.open_session(name, now=0.0)
                        for name in ("a", "b")}
            offered = {"a": 0, "b": 0}
            admitted = {"a": 0, "b": 0}
            rejected = {"a": 0, "b": 0}
            # Monotone virtual clock: hypothesis picks the gaps.
            now = 0.0
            for count, (tenant_ix, gap) in enumerate(submits):
                name = "ab"[tenant_ix]
                now += gap
                offered[name] += 1
                try:
                    fleet.submit(sessions[name], make_chunk(seed=count),
                                 now=now)
                    admitted[name] += 1
                except CapacityError:
                    rejected[name] += 1
                if count % flush_every == 0:
                    fleet.poll(now=now)
            fleet.flush(now=now + 1.0)
            books = fleet.stats["per_tenant"]
            for name in ("a", "b"):
                assert books[name]["offered"] == offered[name]
                assert books[name]["admitted"] == admitted[name]
                assert (books[name]["rejected_quota"]
                        + books[name]["rejected_queue"]
                        + books[name]["voided"]) == rejected[name]
                assert books[name]["offered"] == (
                    books[name]["admitted"]
                    + books[name]["rejected_quota"]
                    + books[name]["rejected_queue"]
                    + books[name]["voided"])
            fleet.check_invariants()
        finally:
            fleet.close()


class TestCanaryWeight:
    @settings(max_examples=20, deadline=None)
    @given(weight=st.floats(0.1, 0.9), seed=st.integers(0, 5))
    def test_session_share_tracks_weight_at_fixed_seed(self, weight,
                                                       seed):
        fleet = make_fleet(replicas=2, seed=seed)
        try:
            fleet.deploy_canary(weight=weight, replicas=1)
            for _ in range(CANARY_SESSIONS):
                fleet.open_session("t0", now=0.0)
            share = (fleet.canary_status()["sessions"]
                     / CANARY_SESSIONS)
            assert abs(share - weight) <= CANARY_TOLERANCE
        finally:
            fleet.close()

    def test_weight_zero_is_never_drawn_weight_one_always(self):
        with make_fleet(replicas=2, seed=3) as fleet:
            with pytest.raises(ValueError, match="weight"):
                fleet.deploy_canary(weight=0.0)
            fleet.deploy_canary(weight=1.0, replicas=1)
            for _ in range(20):
                fleet.open_session("t0", now=0.0)
            assert fleet.canary_status()["sessions"] == 20


class TestFleetOfOneIsAServer:
    @staticmethod
    def shadow_settings(net, shadow):
        """A shadow-mode hardware realization, or none.  The shadow
        divergence is the one report field that reads chunk contents, so
        it catches a target that was fed a different chunk stream."""
        if not shadow:
            return {}
        from repro.hardware import HardwareMappedNetwork, RRAMDeviceConfig

        device = RRAMDeviceConfig(levels=16, variation=0.2)
        return dict(hardware=HardwareMappedNetwork(net, device, rng=3),
                    shadow=True)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31 - 1), sessions=st.integers(1, 6),
           requests=st.integers(0, 40), rate=st.floats(50.0, 20000.0),
           max_batch=st.integers(1, 6), queue_limit=st.integers(1, 12),
           shadow=st.booleans())
    def test_reports_are_field_equal(self, seed, sessions, requests, rate,
                                     max_batch, queue_limit, shadow):
        config = dict(max_batch=max_batch, max_wait_ms=1.0,
                      queue_limit=queue_limit)
        load = dict(sessions=sessions, requests=requests, chunk_steps=4,
                    rate_rps=rate, rng=seed)
        net = make_net()
        with ModelServer(net, **config,
                         **self.shadow_settings(net, shadow)) as server:
            served = open_loop(server, timer=FakeTimer(), **load)
        net = make_net()
        with Fleet(net, replicas=1, **config,
                   **self.shadow_settings(net, shadow)) as fleet:
            fleet_report = open_loop(
                fleet, tenants=(TenantLoad("t0", sessions=sessions),),
                timer=FakeTimer(), **load)
        assert fleet_report.aggregate == served
