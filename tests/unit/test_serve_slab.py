"""The server's resident stream-state slab: one row per session.

A :class:`~repro.serve.server.ModelServer` keeps every session's stream
state as one row of a resident :class:`~repro.core.engine.StreamState`
(a second one in shadow mode).  A session takes a zeroed row when it
opens; once it is closed or reaped and its last queued chunk has
settled — completed, failed or expired — the next session to open
reclaims the row, and only when every row is still held does the slab
double.  Pinned here: the row lifecycle on every settle path, that a
closed session's queued chunk is still served bitwise, the slab's size
and the process's memory under long session churn, that closing the
server shrinks the slab back to one row and drops its programmed weight
copies, and that serving ticks leave the engine's one-shot input memo
alone.
"""

import threading
import tracemalloc

import numpy as np
import pytest

from repro.common import faults
from repro.common.errors import StateError
from repro.common.faults import FaultPlan, FaultRule
from repro.core import SpikingNetwork, engine
from repro.serve import Fleet, ModelServer

SIZES = (24, 20, 12)


def make_net(seed=1):
    net = SpikingNetwork(SIZES, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_chunk(steps=6, seed=0, density=0.15):
    rng = np.random.default_rng(seed)
    return (rng.random((steps, SIZES[0])) < density).astype(np.float64)


def make_server(net=None, **kwargs):
    kwargs.setdefault("max_batch", 4)
    kwargs.setdefault("max_wait_ms", 1.0)
    kwargs.setdefault("queue_limit", 16)
    return ModelServer(net if net is not None else make_net(), **kwargs)


def free_rows(server) -> set:
    """Rows a new session can take without the slab growing: the free
    ones and those of dropped sessions with nothing queued."""
    pending = server.batcher.session_pending
    return set(server._free_rows) | {
        session.row for session in server._closing
        if not pending(session.session_id)}


def _record_errors(fn, errors):
    """Run ``fn``, keeping what it raises for the caller's thread."""
    try:
        fn()
    except BaseException as exc:
        errors.append(exc)


def held_rows(server) -> int:
    return server._slab.batch - len(free_rows(server))


@pytest.fixture(autouse=True)
def no_leaked_plan():
    faults.deactivate()
    yield
    faults.deactivate()


class TestRowLifecycle:
    def test_open_takes_a_zeroed_row(self):
        server = make_server()
        sid = server.open_session(now=0.0)
        server.infer(sid, make_chunk(), now=0.0)
        row = server.session(sid).row
        assert server.session(sid).steps == 6
        server.close_session(sid)
        reused = server.session(server.open_session(now=0.0))
        assert reused.row == row and reused.steps == 0
        assert all(not array[row].any() for layer in server._slab.layers
                   for array in layer.values())

    def test_closed_session_keeps_its_row_until_its_chunk_settles(self):
        net = make_net()
        head, tail = make_chunk(seed=1), make_chunk(seed=2)
        server = make_server(net, max_wait_ms=10_000.0)
        sid = server.open_session(now=0.0)
        first = server.infer(sid, head, now=0.0)
        ticket = server.submit(sid, tail, now=0.0)
        session = server.session(sid)
        row = session.row
        server.close_session(sid)
        assert row not in free_rows(server)
        other = server.session(server.open_session(now=0.0))
        assert other.row != row
        server.flush(now=0.0)
        assert ticket.ok and row in free_rows(server)
        expected, _ = net.run(np.concatenate([head, tail])[None])
        assert np.array_equal(np.concatenate([first, ticket.outputs]),
                              expected[0])
        assert server.session(server.open_session(now=0.0)).row == row
        assert session.row is None and server._slab.batch == 2

    def test_reaping_frees_the_row(self):
        server = make_server(session_ttl_s=10.0)
        polled, submitted = (server.open_session(now=0.0) for _ in range(2))
        rows = {server.session(sid).row for sid in (polled, submitted)}
        with pytest.raises(StateError, match="expired"):
            server.submit(submitted, make_chunk(), now=20.0)   # lazy reap
        server.poll(now=20.0)
        assert server.sessions == 0 and held_rows(server) == 0
        assert rows <= free_rows(server)

    def test_fail_pending_frees_a_closed_sessions_row(self):
        server = make_server(max_wait_ms=10_000.0)
        sid = server.open_session(now=0.0)
        row = server.session(sid).row
        tickets = [server.submit(sid, make_chunk(seed=i), now=0.0)
                   for i in range(2)]
        server.close_session(sid)
        assert row not in free_rows(server)
        assert server.fail_pending("replica down", now=0.0) == 2
        assert all(t.done and not t.ok for t in tickets)
        assert row in free_rows(server) and held_rows(server) == 0

    def test_expired_chunk_frees_a_closed_sessions_row(self):
        server = make_server(max_wait_ms=10_000.0, request_ttl_ms=50.0)
        sid = server.open_session(now=0.0)
        row = server.session(sid).row
        ticket = server.submit(sid, make_chunk(), now=0.0)
        server.close_session(sid)
        server.poll(now=0.2)
        assert ticket.expired and row in free_rows(server)

    def test_poisoned_isolated_chunk_frees_its_row(self):
        server = make_server(max_batch=2)
        sids = [server.open_session(now=0.0) for _ in range(2)]
        rows = [server.session(sid).row for sid in sids]
        tickets = [server.submit(sid, make_chunk(seed=i), now=0.0)
                   for i, sid in enumerate(sids)]
        server.close_session(sids[1])
        plan = FaultPlan((FaultRule("serve.request.raise", nth=(2,)),),
                         seed=0)
        with faults.active(plan):
            server.flush(now=0.0)
        assert tickets[0].ok and not tickets[1].ok
        assert rows[1] in free_rows(server)
        assert rows[0] not in free_rows(server)   # still open

    def test_shadow_slab_follows_the_rows(self):
        from repro.hardware import HardwareMappedNetwork, RRAMDeviceConfig

        net = make_net()
        hardware = HardwareMappedNetwork(
            net, RRAMDeviceConfig(levels=16, variation=0.2), rng=3)
        server = make_server(net, hardware=hardware, shadow=True)
        sids = [server.open_session(now=0.0) for _ in range(3)]
        for sid in sids:
            server.infer(sid, make_chunk(seed=int(sid[1:])), now=0.0)
        assert server._shadow_slab.batch == server._slab.batch == 4
        assert server._shadow_slab.steps[:3].tolist() == [6, 6, 6]

    def test_a_lost_row_trips_the_invariants(self):
        server = make_server()
        for _ in range(3):
            server.open_session(now=0.0)
        server.check_invariants()
        server._free_rows.pop()
        with pytest.raises(StateError, match="slab row drift"):
            server.check_invariants()


class TestSlabBounds:
    def test_churn_keeps_the_slab_at_its_peak_and_memory_flat(self):
        """10^4 sessions open, submit and close on a fake clock while a
        seeded number of them stays open; the slab ends at the power of
        two at or above the peak number of row-holding sessions, and the
        second half of the run peaks no higher than the first."""
        # On a thread of its own: the ticks borrow the thread's arena, and
        # the test process's main thread carries every earlier test's
        # idle buffers, whose books may grow once mid-run.
        def churn():
            rng = np.random.default_rng(0)
            server = make_server(max_batch=8, max_wait_ms=2.5, queue_limit=64)
            chunk = make_chunk(steps=2)
            live, peak, now = [], 0, 0.0
            peaks = []
            tracemalloc.start()
            try:
                for _ in range(2):
                    # The queue-wait histogram keeps every sample (a separate,
                    # known growth): each half starts it empty, so both carry
                    # the same share of it.
                    server._queue_wait._samples.clear()
                    tracemalloc.reset_peak()
                    for _ in range(5_000):
                        now += 1e-3
                        sid = server.open_session(now=now)
                        peak = max(peak, held_rows(server))
                        server.submit(sid, chunk, now=now)
                        live.append(sid)
                        while len(live) > rng.integers(1, 12):
                            server.close_session(live.pop(0))
                        server.poll(now=now)
                    peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            for sid in live:
                server.close_session(sid)
            server.flush(now=now)
            assert held_rows(server) == 0
            assert server._slab.batch == 1 << (peak - 1).bit_length()
            assert server.check_invariants()["completed"] == 10_000
            assert peaks[1] <= peaks[0] + (64 << 10), peaks

        errors = []
        thread = threading.Thread(
            target=lambda: _record_errors(churn, errors))
        thread.start()
        thread.join(timeout=300)
        assert not thread.is_alive()
        if errors:
            raise errors[0]

    def test_close_shrinks_the_slabs_and_fails_queued_chunks(self):
        from repro.hardware import HardwareMappedNetwork, RRAMDeviceConfig

        net = make_net()
        hardware = HardwareMappedNetwork(
            net, RRAMDeviceConfig(levels=16, variation=0.2), rng=3)
        server = make_server(net, hardware=hardware, shadow=True,
                             max_wait_ms=10_000.0, queue_limit=64)
        sids = [server.open_session(now=0.0) for _ in range(40)]
        ticket = server.submit(sids[0], make_chunk(), now=0.0)
        session = server.session(sids[0])
        assert server._slab.batch == server._shadow_slab.batch == 64
        server.close()
        assert server._slab.batch == server._shadow_slab.batch == 1
        assert ticket.done and not ticket.ok and session.row is None
        assert server.sessions == 0 and held_rows(server) == 0
        assert server.check_invariants()["failed"] == 1
        assert not server._programmed   # the weight copies are dropped
        server.close()   # idempotent
        for layer in net.layers:
            layer.weight *= 0.5
        sid = server.open_session(now=0.0)
        expected, _ = net.run(make_chunk()[None])
        assert np.array_equal(server.infer(sid, make_chunk(), now=0.0),
                              expected[0])   # programmed again from net

    def test_a_retired_replica_holds_no_peak_slab(self):
        fleet = Fleet(make_net(), replicas=1, max_batch=4, max_wait_ms=0.0)
        try:
            sids = [fleet.open_session("t0", now=0.0) for _ in range(20)]
            for index, sid in enumerate(sids):
                fleet.submit(sid, make_chunk(seed=index), now=0.0)
            fleet.flush(now=0.0)
            (old,) = fleet._replicas
            assert old.server._slab.batch == 32
            for sid in sids:
                fleet.close_session(sid)
            fleet.deploy_canary(weight=0.5)
            fleet.promote_canary()
            assert old.retired and old.server._slab.batch == 1
            assert not old.server._programmed   # no weight copy held
            fleet.check_invariants()
        finally:
            fleet.close()


def test_served_ticks_leave_the_input_memo_alone(monkeypatch):
    monkeypatch.setattr(engine, "_input_memo", ())
    net = make_net()
    one_shot = (np.random.default_rng(5).random((4, 10, SIZES[0]))
                < 0.2).astype(np.float64)
    net.run(one_shot)
    memo = engine._input_memo
    (slot,) = memo
    server = make_server(net)
    sids = [server.open_session(now=0.0) for _ in range(3)]
    for tick in range(100):
        for index, sid in enumerate(sids):
            server.submit(sid, make_chunk(seed=3 * tick + index), now=0.0)
        server.flush(now=0.0)
    assert server.stats["ticks"] == 100
    assert engine._input_memo is memo
    net.run(one_shot)
    assert engine._input_memo == (slot,)   # a hit: the entry itself
