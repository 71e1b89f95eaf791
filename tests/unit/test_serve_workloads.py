"""Serving-path coverage for every real workload.

The server has only ever streamed synthetic SHD-shaped chunks; these
tests push one *speech*, one *DVS*, and one *glyph* sample each through
:class:`~repro.serve.server.ModelServer` end-to-end and pin the core
serving guarantee on those paths too: the streamed outputs (chunked
through sessions and coalesced ticks) are bitwise-identical to the
offline ``network.run`` of the same sample — mirroring the synthetic-SHD
check in ``tests/unit/test_serve.py``.

Plus the workload layer itself: deterministic pools, mix composition,
registry errors, and ``open_loop``'s workload plumbing (including the
channel-width guard against serving a 2312-channel DVS stream into a
700-input network).
"""

import itertools

import numpy as np
import pytest

from repro.common.errors import ExperimentError, ShapeError
from repro.common.rng import RandomState
from repro.core import SpikingNetwork
from repro.serve import ModelServer
from repro.serve.loadgen import open_loop
from repro.serve.workloads import (
    DVSWorkload,
    GlyphWorkload,
    SpeechWorkload,
    SyntheticWorkload,
    WorkloadMix,
    make_workload,
)

#: Small pools keep the sensor simulations fast; steps stay real-sized.
POOL = dict(pool_size=2, pool_steps=40)


def make_net(n_in, seed=1):
    net = SpikingNetwork((n_in, 16, 8), rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def workload_cases():
    return [
        SpeechWorkload(seed=3, **POOL),
        DVSWorkload(seed=3, **POOL),
        GlyphWorkload(seed=3, pool_size=2),
    ]


class TestWorkloads:
    @pytest.mark.parametrize("name,channels", [
        ("synthetic", 700), ("speech", 700), ("dvs", 2312), ("glyph", 784),
    ])
    def test_registry_and_native_widths(self, name, channels):
        workload = make_workload(name, seed=0)
        assert workload.channels == channels
        assert workload.name == name

    def test_unknown_and_malformed_names_rejected(self):
        with pytest.raises(ExperimentError, match="unknown workload"):
            make_workload("audio")
        with pytest.raises(ExperimentError, match="malformed|unknown"):
            make_workload("speech+")
        with pytest.raises(ExperimentError, match="fixed native width"):
            make_workload("dvs", channels=700)

    @pytest.mark.parametrize("workload", workload_cases(),
                             ids=lambda w: w.name)
    def test_samples_are_spiking_and_shaped(self, workload):
        chunk = workload.sample(12, rng=RandomState(0))
        assert chunk.shape == (12, workload.channels)
        assert chunk.dtype == np.float64
        # Integral non-negative spike counts; DVS events may exceed 1 per
        # step (multiple threshold crossings), matching repro.data.nmnist.
        assert np.array_equal(chunk, np.round(chunk))
        assert chunk.min() >= 0
        assert chunk.sum() > 0, f"{workload.name} sample carries no spikes"

    @pytest.mark.parametrize("workload_cls", [SpeechWorkload, DVSWorkload],
                             ids=["speech", "dvs"])
    def test_pool_deterministic_per_seed(self, workload_cls):
        a = workload_cls(seed=7, **POOL)
        b = workload_cls(seed=7, **POOL)
        assert all(np.array_equal(x, y) for x, y in zip(a.pool, b.pool))
        # and the draw depends only on the caller's rng
        assert np.array_equal(a.sample(9, rng=RandomState(5)),
                              b.sample(9, rng=RandomState(5)))

    def test_long_chunks_tile_the_pool(self):
        workload = DVSWorkload(seed=1, **POOL)
        steps = POOL["pool_steps"] * 2 + 5
        chunk = workload.sample(steps, rng=RandomState(2))
        assert chunk.shape == (steps, workload.channels)

    def test_mix_requires_matching_widths(self):
        with pytest.raises(ExperimentError, match="channel width"):
            WorkloadMix([SyntheticWorkload(channels=700),
                         SyntheticWorkload(channels=784)])

    def test_mix_adapts_synthetic_to_fixed_component(self):
        mix = make_workload("glyph+synthetic", seed=0)
        assert mix.channels == 784
        chunk = mix.sample(8, rng=RandomState(3))
        assert chunk.shape == (8, 784)

    def test_density_reaches_synthetic_components(self):
        assert make_workload("synthetic", density=0.2).density == 0.2
        assert make_workload("synthetic").density == 0.03
        mix = make_workload("speech+synthetic", seed=0, density=0.2)
        densities = [w.density for w in mix.workloads
                     if isinstance(w, SyntheticWorkload)]
        assert densities == [0.2]

    def test_mix_draws_every_component(self):
        mix = WorkloadMix([SyntheticWorkload(channels=32, density=0.9),
                           SyntheticWorkload(channels=32, density=0.01)])
        rng = RandomState(0)
        densities = [float(mix.sample(20, rng).mean()) for _ in range(40)]
        assert any(d > 0.5 for d in densities), "dense component never drawn"
        assert any(d < 0.2 for d in densities), "sparse component never drawn"


class TestServingPaths:
    """Streamed == offline for each real workload — the tentpole checks."""

    @pytest.mark.parametrize("workload", workload_cases(),
                             ids=lambda w: w.name)
    def test_streamed_equals_offline(self, workload):
        sample = workload.sample(12, rng=RandomState(11))
        net = make_net(workload.channels)
        server = ModelServer(net, max_batch=4, max_wait_ms=1.0)
        sid = server.open_session(now=0.0)
        streamed = []
        for chunk in (sample[:4], sample[4:9], sample[9:]):
            ticket = server.submit(sid, chunk, now=0.0)
            server.flush(now=0.0)
            streamed.append(ticket.outputs)
        offline = net.run(sample[None])[0][0]
        assert np.array_equal(np.concatenate(streamed), offline)
        server.close()

    def test_coalesced_mixed_workloads_match_solo(self):
        """Chunks of different workloads coalesced into one tick equal
        each stream running alone — batching transparency holds for
        mixed real traffic, not just homogeneous synthetic chunks."""
        speech = SpeechWorkload(seed=3, **POOL)
        synthetic = SyntheticWorkload(channels=speech.channels)
        a = speech.sample(6, rng=RandomState(1))
        b = synthetic.sample(6, rng=RandomState(2))
        net = make_net(speech.channels)
        server = ModelServer(net, max_batch=4, max_wait_ms=1.0)
        sa, sb = server.open_session(now=0.0), server.open_session(now=0.0)
        ta = server.submit(sa, a, now=0.0)
        tb = server.submit(sb, b, now=0.0)
        server.flush(now=0.0)
        solo, _ = net.run_stream(a[None])
        assert np.array_equal(ta.outputs, solo[0])
        solo_b, _ = net.run_stream(b[None])
        assert np.array_equal(tb.outputs, solo_b[0])
        server.close()


class TestOpenLoopWorkloads:
    @pytest.mark.parametrize("name", ["glyph", "glyph+synthetic"])
    def test_open_loop_with_real_workload(self, name):
        workload = make_workload(name, seed=0)
        net = make_net(workload.channels)
        with ModelServer(net, max_batch=4, max_wait_ms=1.0) as server:
            report = open_loop(server, sessions=4, requests=20,
                               chunk_steps=5, rate_rps=400.0, rng=3,
                               workload=workload)
        assert report.completed + report.rejected == 20
        assert report.throughput_rps > 0

    def test_channel_mismatch_rejected(self):
        net = make_net(24)
        with ModelServer(net) as server:
            with pytest.raises(ShapeError, match="2312.*24|channels"):
                open_loop(server, requests=4, workload="dvs")

    def test_workload_none_keeps_legacy_chunks(self):
        """Omitted, ``None``, ``"synthetic"`` and ``SyntheticWorkload``
        at the served width are one payload: same rng calls, same
        report, field by field (the tick clock is a fake, so timing
        fields match too)."""
        reports = []
        for spec in ("omitted", None, "synthetic", SyntheticWorkload(24)):
            workload = {} if spec == "omitted" else {"workload": spec}
            with ModelServer(make_net(24), max_batch=4,
                             max_wait_ms=1.0) as server:
                reports.append(open_loop(
                    server, sessions=4, requests=16, chunk_steps=5,
                    rate_rps=300.0, rng=9,
                    timer=itertools.count(0.0, 1e-3).__next__, **workload))
        assert reports[0].completed > 0
        assert all(report == reports[0] for report in reports[1:])
