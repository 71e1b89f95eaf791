"""Tests for the serving layer: scheduler properties, server ticks,
registry round-trips, load generation.

The scheduler guarantees pinned here (see ``repro/serve/batcher.py``):
FIFO fairness (the oldest queued chunk is always in the next tick — no
starvation), at most ``max_batch`` chunks and at most one chunk per
session per tick, bounded queue with explicit rejection.  The server
guarantee: a session's outputs are bitwise-identical to streaming alone,
no matter how its chunks were coalesced with other sessions.
"""

import numpy as np
import pytest

from repro.common.errors import CapacityError, SerializationError, StateError
from repro.core import SpikingNetwork
from repro.core.trainer import run_in_batches
from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    ModelServer,
    StreamRequest,
    Ticket,
)
from repro.serve.loadgen import open_loop

SIZES = (24, 20, 12)


def make_net(seed=1):
    net = SpikingNetwork(SIZES, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_chunk(steps=6, seed=0, density=0.15):
    rng = np.random.default_rng(seed)
    return (rng.random((steps, SIZES[0])) < density).astype(np.float64)


class _FakeSession:
    def __init__(self, session_id):
        self.session_id = session_id


def _request(seq, session, arrival, steps=3):
    ticket = Ticket(session.session_id, arrival)
    return StreamRequest(seq, session, np.zeros((steps, 4)), ticket)


class TestMicroBatcher:
    def test_fifo_and_one_per_session(self):
        batcher = MicroBatcher(max_batch=3, max_wait_ms=10, queue_limit=10)
        a, b = _FakeSession("a"), _FakeSession("b")
        for seq, session in enumerate([a, a, b, a, b]):
            batcher.submit(_request(seq, session, float(seq)))
        tick = batcher.collect()
        assert [r.seq for r in tick] == [0, 2]  # a's second chunk skipped
        tick = batcher.collect()
        assert [r.seq for r in tick] == [1, 4]  # skipped kept its place
        assert [r.seq for r in batcher.collect()] == [3]
        assert batcher.pending == 0

    def test_ready_full_batch_or_deadline(self):
        batcher = MicroBatcher(max_batch=2, max_wait_ms=5, queue_limit=10)
        a, b = _FakeSession("a"), _FakeSession("b")
        batcher.submit(_request(0, a, 1.0))
        assert not batcher.ready(1.004)
        assert batcher.ready(1.005)         # max_wait elapsed
        batcher.submit(_request(1, a, 1.001))
        assert not batcher.ready(1.002)     # same session: not a full batch
        batcher.submit(_request(2, b, 1.002))
        assert batcher.ready(1.002)         # two distinct sessions == max_batch
        assert batcher.next_deadline() == pytest.approx(1.005)

    def test_queue_limit_rejects(self):
        batcher = MicroBatcher(max_batch=2, max_wait_ms=5, queue_limit=2)
        a = _FakeSession("a")
        batcher.submit(_request(0, a, 0.0))
        batcher.submit(_request(1, a, 0.0))
        with pytest.raises(CapacityError):
            batcher.submit(_request(2, a, 0.0))
        assert batcher.pending == 2

    def test_never_starves_and_never_exceeds_max_batch(self):
        """Property fuzz: random sessions and tick interleaving.  Every
        tick is FIFO over eligible chunks, the globally oldest chunk is
        always served in the very next tick, per-session order is
        preserved, and no tick exceeds max_batch."""
        rng = np.random.default_rng(0)
        for trial in range(20):
            max_batch = int(rng.integers(1, 5))
            batcher = MicroBatcher(max_batch=max_batch, max_wait_ms=0,
                                   queue_limit=10_000)
            sessions = [_FakeSession(f"s{i}")
                        for i in range(int(rng.integers(1, 6)))]
            seq = 0
            served: list[int] = []
            session_of = {}
            pending_total = 0
            for _ in range(int(rng.integers(5, 30))):
                for _ in range(int(rng.integers(0, 6))):
                    session = sessions[int(rng.integers(len(sessions)))]
                    batcher.submit(_request(seq, session, float(seq)))
                    session_of[seq] = session.session_id
                    seq += 1
                    pending_total += 1
                if rng.random() < 0.7 and pending_total:
                    oldest = batcher._queue[0].seq
                    tick = batcher.collect()
                    assert 1 <= len(tick) <= max_batch
                    assert tick[0].seq == oldest          # no starvation
                    ids = [r.session.session_id for r in tick]
                    assert len(set(ids)) == len(ids)      # one per session
                    served.extend(r.seq for r in tick)
                    pending_total -= len(tick)
            while pending_total:
                tick = batcher.collect()
                assert 1 <= len(tick) <= max_batch
                served.extend(r.seq for r in tick)
                pending_total -= len(tick)
            assert sorted(served) == list(range(seq))     # everything served
            for sid in {s.session_id for s in sessions}:  # per-session FIFO
                mine = [q for q in served if session_of[q] == sid]
                assert mine == sorted(mine)


class TestModelServer:
    def test_coalesced_sessions_match_solo_streams(self):
        net = make_net()
        server = ModelServer(net, max_batch=4, max_wait_ms=1.0)
        data = [make_chunk(steps=18, seed=i) for i in range(5)]
        sids = [server.open_session() for _ in range(5)]
        got = {sid: [] for sid in sids}
        bounds = [0, 4, 11, 18]
        for a, b in zip(bounds[:-1], bounds[1:]):
            tickets = [server.submit(sid, chunk[a:b])
                       for sid, chunk in zip(sids, data)]
            server.flush()
            for sid, ticket in zip(sids, tickets):
                assert ticket.done
                got[sid].append(ticket.outputs)
        for sid, chunk in zip(sids, data):
            solo, _ = net.run_stream(chunk[None])
            assert np.array_equal(solo[0], np.concatenate(got[sid], axis=0))
        assert server.stats["completed"] == 15
        assert server.stats["max_tick_batch"] <= 4

    def test_heterogeneous_chunk_lengths_in_one_tick(self):
        net = make_net()
        server = ModelServer(net, max_batch=8, max_wait_ms=1e6)
        lengths = [1, 9, 4, 13]
        data = [make_chunk(steps=length, seed=10 + i)
                for i, length in enumerate(lengths)]
        sids = [server.open_session() for _ in range(len(lengths))]
        tickets = [server.submit(sid, chunk)
                   for sid, chunk in zip(sids, data)]
        assert server.flush() == len(lengths)
        assert server.stats["ticks"] == 1    # all coalesced into one tick
        for sid, chunk, ticket in zip(sids, data, tickets):
            solo, _ = net.run_stream(chunk[None])
            assert ticket.outputs.shape == (chunk.shape[0], SIZES[-1])
            assert np.array_equal(solo[0], ticket.outputs)
            assert server.session(sid).steps == chunk.shape[0]

    def test_infer_and_session_bookkeeping(self):
        server = ModelServer(make_net(), max_batch=2, max_wait_ms=0.0)
        sid = server.open_session()
        out = server.infer(sid, make_chunk(steps=5))
        assert out.shape == (5, SIZES[-1])
        session = server.session(sid)
        assert session.steps == 5 and session.chunks == 1
        server.close_session(sid)
        with pytest.raises(StateError):
            server.session(sid)
        with pytest.raises(StateError):
            server.submit(sid, make_chunk())

    def test_submit_validation_and_backpressure(self):
        server = ModelServer(make_net(), max_batch=2, max_wait_ms=1e6,
                             queue_limit=2)
        sid = server.open_session()
        from repro.common.errors import ShapeError

        with pytest.raises(ShapeError):
            server.submit(sid, np.zeros((4, SIZES[0] + 1)))
        with pytest.raises(ShapeError):
            server.submit(sid, np.zeros((0, SIZES[0])))
        server.submit(sid, make_chunk())
        server.submit(sid, make_chunk())
        with pytest.raises(CapacityError):
            server.submit(sid, make_chunk())
        assert server.stats["rejected"] == 1
        assert server.pending == 2

    def test_max_wait_controls_readiness(self):
        server = ModelServer(make_net(), max_batch=4, max_wait_ms=50.0)
        sid = server.open_session(now=0.0)
        server.submit(sid, make_chunk(), now=0.0)
        assert server.poll(now=0.01) == 0      # not due yet
        assert server.poll(now=0.051) == 1     # max_wait elapsed
        assert server.stats["ticks"] == 1

    def test_run_batch_matches_run_in_batches(self):
        net = make_net()
        server = ModelServer(net)
        rng = np.random.default_rng(5)
        inputs = (rng.random((10, 7, SIZES[0])) < 0.15).astype(np.float64)
        expect = run_in_batches(net, inputs, 4)
        assert np.array_equal(expect, server.run_batch(inputs, 4))

    def test_run_batch_pool_sharded(self):
        net = make_net()
        server = ModelServer(net)
        rng = np.random.default_rng(6)
        inputs = (rng.random((8, 6, SIZES[0])) < 0.15).astype(np.float64)
        expect = server.run_batch(inputs, 4)
        got = server.run_batch(inputs, 4, workers=1)
        assert np.array_equal(expect, got)

    def test_step_engine_server(self):
        """Sessions stream on the fused engine only: a step-engine server
        is refused with a pointer to the one-shot reference, and a fused
        session reproduces that reference's spikes."""
        net = make_net()
        reference = r'network\.run\(x, engine="step"\)'
        with pytest.raises(ValueError, match=reference):
            ModelServer(net, engine="step")
        server = ModelServer(net)
        sid = server.open_session()
        chunk = make_chunk(steps=8, seed=3)
        out = server.infer(sid, chunk)
        solo, _ = net.run(chunk[None], engine="step")
        assert np.array_equal(solo[0], out)


class TestHardwareServing:
    """The hardware-in-the-loop serving path: ticks through the mapped
    realization, shadow divergence, and the Fig. 8 sweep as a serving
    workload."""

    @staticmethod
    def make_mapped(net, variation=0.2, seed=3):
        from repro.hardware import HardwareMappedNetwork, RRAMDeviceConfig

        device = RRAMDeviceConfig(levels=16, variation=variation)
        return HardwareMappedNetwork(net, device, rng=seed)

    def test_hardware_ticks_match_solo_hardware_streams(self):
        net = make_net()
        mapped = self.make_mapped(net)
        server = ModelServer(net, hardware=mapped, max_batch=4,
                             max_wait_ms=1.0)
        data = [make_chunk(steps=14, seed=i) for i in range(4)]
        sids = [server.open_session() for _ in range(4)]
        got = {sid: [] for sid in sids}
        for a, b in zip([0, 5, 14][:-1], [5, 14]):
            tickets = [server.submit(sid, chunk[a:b])
                       for sid, chunk in zip(sids, data)]
            server.flush()
            for sid, ticket in zip(sids, tickets):
                got[sid].append(ticket.outputs)
        for sid, chunk in zip(sids, data):
            solo, _ = mapped.run_stream(chunk[None])
            assert np.array_equal(solo[0],
                                  np.concatenate(got[sid], axis=0))

    def test_shadow_serves_ideal_and_reports_divergence(self):
        net = make_net()
        mapped = self.make_mapped(net, variation=0.4)
        server = ModelServer(net, hardware=mapped, shadow=True,
                             max_batch=4, max_wait_ms=1.0)
        sid = server.open_session()
        chunk = make_chunk(steps=16, seed=9)
        ticket = server.submit(sid, chunk)
        server.flush()
        ideal, _ = net.run_stream(chunk[None])
        hardware, _ = mapped.run_stream(chunk[None])
        assert np.array_equal(ideal[0], ticket.outputs)  # primary = ideal
        expected = float(np.mean(ideal[0] != hardware[0]))
        assert ticket.divergence == pytest.approx(expected)
        assert server.mean_divergence() == pytest.approx(expected)
        assert server.stats["shadow_chunks"] == 1
        assert server.session(sid).divergence_sum == pytest.approx(expected)

    def test_shadow_stream_carries_across_chunks(self):
        """The shadow state is a real stream: chunked shadow outputs must
        equal the solo hardware stream, chunk after chunk."""
        net = make_net()
        mapped = self.make_mapped(net, variation=0.4)
        server = ModelServer(net, hardware=mapped, max_batch=2,
                             max_wait_ms=1.0, shadow=True)
        sid = server.open_session()
        chunk = make_chunk(steps=12, seed=4)
        divs = []
        for a, b in [(0, 5), (5, 12)]:
            ticket = server.submit(sid, chunk[a:b])
            server.flush()
            divs.append(ticket.divergence)
        ideal, _ = net.run_stream(chunk[None])
        hardware, _ = mapped.run_stream(chunk[None])
        assert divs[0] == pytest.approx(
            float(np.mean(ideal[0, :5] != hardware[0, :5])))
        assert divs[1] == pytest.approx(
            float(np.mean(ideal[0, 5:] != hardware[0, 5:])))

    def test_mode_validation(self):
        net = make_net()
        with pytest.raises(ValueError):
            ModelServer(net, shadow=True)                 # no hardware
        mapped = self.make_mapped(net)
        other = make_net(seed=9)
        with pytest.raises(ValueError):
            ModelServer(other, hardware=mapped)           # foreign mapping
        assert "hardware" in repr(ModelServer(net, hardware=mapped))

    def test_run_batch_serves_the_hardware_realization(self):
        net = make_net()
        mapped = self.make_mapped(net)
        server = ModelServer(net, hardware=mapped)
        rng = np.random.default_rng(8)
        inputs = (rng.random((6, 5, SIZES[0])) < 0.15).astype(np.float64)
        expect = run_in_batches(mapped.hardware_network, inputs, 4)
        assert np.array_equal(expect, server.run_batch(inputs, 4))

    def test_evaluate_variation_matches_direct_sweep(self):
        from repro.hardware import accuracy_under_variation

        net = make_net()
        mapped = self.make_mapped(net)
        server = ModelServer(net, hardware=mapped)
        rng = np.random.default_rng(7)
        inputs = (rng.random((10, 5, SIZES[0])) < 0.15).astype(np.float64)
        labels = np.arange(10) % SIZES[-1]
        rows = server.evaluate_variation(inputs, labels, bits=4,
                                         variations=[0.0, 0.3], n_seeds=2,
                                         rng=11)
        assert [r["variation"] for r in rows] == [0.0, 0.3]
        for row in rows:
            mean, std = accuracy_under_variation(
                net, inputs, labels, bits=4, variation=row["variation"],
                n_seeds=2, rng=11, precision=server.dtype,
                device=mapped.device)
            assert row["mean_accuracy"] == mean
            assert row["std_accuracy"] == std

    def test_evaluate_variation_pooled_matches_serial(self):
        net = make_net()
        server = ModelServer(net)
        rng = np.random.default_rng(12)
        inputs = (rng.random((8, 5, SIZES[0])) < 0.15).astype(np.float64)
        labels = np.arange(8) % SIZES[-1]
        serial = server.evaluate_variation(inputs, labels, bits=4,
                                           variations=[0.2], n_seeds=2)
        pooled = server.evaluate_variation(inputs, labels, bits=4,
                                           variations=[0.2], n_seeds=2,
                                           workers=1)
        assert serial == pooled

    def test_loadgen_reports_shadow_divergence(self):
        net = make_net()
        server = ModelServer(net, hardware=self.make_mapped(net),
                             shadow=True, max_batch=4, max_wait_ms=1.0)
        report = open_loop(server, sessions=4, requests=20, chunk_steps=4,
                           rate_rps=2000.0, rng=0)
        assert report.divergence is not None
        assert 0.0 <= report.divergence <= 1.0
        plain = ModelServer(make_net(), max_batch=4, max_wait_ms=1.0)
        assert open_loop(plain, sessions=2, requests=10, chunk_steps=4,
                         rate_rps=2000.0, rng=0).divergence is None


class TestModelRegistry:
    def test_save_load_list_roundtrip(self, tmp_path):
        registry = ModelRegistry(str(tmp_path / "registry"))
        assert registry.models() == []
        assert registry.latest("demo") is None
        net = make_net()
        v1 = registry.save("demo", net, meta={"note": "first"})
        v2 = registry.save("demo", net)
        assert (v1, v2) == ("v0001", "v0002")
        assert registry.versions("demo") == ["v0001", "v0002"]
        assert registry.latest("demo") == "v0002"
        loaded, meta = registry.load("demo", "v0001")
        assert meta["note"] == "first"
        assert loaded.sizes == net.sizes
        assert loaded.neuron_kind == net.neuron_kind
        for a, b in zip(loaded.weights, net.weights):
            assert np.array_equal(a, b)
        entries = registry.list("demo")
        assert [e["version"] for e in entries] == ["v0001", "v0002"]
        assert entries[0]["network"]["sizes"] == list(SIZES)

    def test_invalid_names_and_missing_models(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        with pytest.raises(SerializationError):
            registry.save("../escape", make_net())
        with pytest.raises(SerializationError):
            registry.path("ok", "1")
        with pytest.raises(SerializationError):
            registry.load("absent")

    def test_from_registry_boots_a_server(self, tmp_path):
        registry = ModelRegistry(str(tmp_path))
        net = make_net()
        registry.save("m", net, meta={"k": 1})
        server = ModelServer.from_registry(registry, "m", max_batch=2)
        assert (server.model_name, server.model_version) == ("m", "v0001")
        assert server.model_meta["k"] == 1
        sid = server.open_session()
        chunk = make_chunk(steps=4)
        solo, _ = net.run_stream(chunk[None])
        assert np.array_equal(solo[0], server.infer(sid, chunk))

    def test_hardware_profile_roundtrip(self, tmp_path):
        from repro.hardware import HardwareProfile

        registry = ModelRegistry(str(tmp_path))
        assert registry.profiles("m") == []
        assert registry.latest_profile("m") is None
        profile = HardwareProfile.create(bits=4, variation=0.2, seed=3)
        p1 = registry.save_profile("m", profile, meta={"note": "fig8"})
        p2 = registry.save_profile("m", HardwareProfile.create(bits=5))
        assert (p1, p2) == ("hw0001", "hw0002")
        assert registry.profiles("m") == ["hw0001", "hw0002"]
        assert registry.latest_profile("m") == "hw0002"
        loaded, meta = registry.load_profile("m", "hw0001")
        assert loaded == profile
        assert meta["note"] == "fig8"
        latest, _ = registry.load_profile("m")
        assert latest.bits == 5
        entries = registry.list_profiles("m")
        assert [e["profile"] for e in entries] == ["hw0001", "hw0002"]
        assert entries[0]["config"]["quantization"]["bits"] == 4
        with pytest.raises(SerializationError):
            registry.profile_path("m", "v0001")
        with pytest.raises(SerializationError):
            registry.load_profile("absent")

    def test_profiles_do_not_leak_into_checkpoint_listing(self, tmp_path):
        from repro.hardware import HardwareProfile

        registry = ModelRegistry(str(tmp_path))
        registry.save("m", make_net())
        registry.save_profile("m", HardwareProfile.create(bits=4))
        assert registry.versions("m") == ["v0001"]
        assert [e["version"] for e in registry.list("m")] == ["v0001"]

    def test_from_registry_with_hardware_profile(self, tmp_path):
        from repro.hardware import HardwareProfile

        registry = ModelRegistry(str(tmp_path))
        net = make_net()
        registry.save("m", net)
        profile = HardwareProfile.create(bits=4, variation=0.3, seed=5)
        registry.save_profile("m", profile)
        server = ModelServer.from_registry(registry, "m",
                                           hardware_profile=True,
                                           max_batch=2)
        assert server.model_profile == "hw0001"
        assert server.hardware is not None
        sid = server.open_session()
        chunk = make_chunk(steps=6, seed=2)
        # the served realization == building the profile by hand on the
        # loaded checkpoint (weights equal the original network's)
        reference = profile.build(server.network)
        solo, _ = reference.run_stream(chunk[None])
        assert np.array_equal(solo[0], server.infer(sid, chunk))


class TestLoadgen:
    def test_open_loop_accounting(self):
        server = ModelServer(make_net(), max_batch=4, max_wait_ms=1.0,
                             queue_limit=16)
        report = open_loop(server, sessions=4, requests=40, chunk_steps=4,
                           rate_rps=2000.0, rng=0)
        assert report.completed + report.rejected == 40
        assert report.completed == server.stats["completed"]
        assert report.throughput_rps > 0
        lat = report.latency_ms
        assert 0 <= lat["p50"] <= lat["p95"] <= lat["p99"] <= lat["max"]
        payload = report.to_dict()
        assert set(payload["latency_ms"]) == {"p50", "p95", "p99", "mean",
                                              "max"}
        assert isinstance(report.render(), str)

    def test_render_survives_total_rejection(self):
        """from_run deliberately emits None latencies when nothing
        completed; render() must stay printable on that report."""
        from repro.serve.loadgen import ServingReport

        report = ServingReport.from_run(100.0, 1.0, [], rejected=5,
                                        ticks=0, steps=0)
        assert report.latency_ms["p50"] is None
        assert "n/a" in report.render()

    def test_overload_rejects_but_serves_at_capacity(self):
        server = ModelServer(make_net(), max_batch=2, max_wait_ms=0.1,
                             queue_limit=4)
        report = open_loop(server, sessions=8, requests=120, chunk_steps=2,
                           rate_rps=1e6, rng=1)
        assert report.rejected > 0                 # backpressure engaged
        assert report.completed + report.rejected == 120
        assert server.pending == 0                 # queue fully drained
