"""``serve``: streaming inference through ``ModelServer`` on wall-clock time.

The server and its traffic are the repository's own serving benchmark
point (``serving_scenarios`` / ``SERVING_LOADS`` in
``repro.experiments.harness``, the rows of ``BENCH_serving.json``): the
standard 700-128-128-20 network on the fused float64 engine,
``max_batch`` 16, ``max_wait_ms`` 5, ``queue_limit`` 128, 32 client
sessions sending 10-step synthetic Bernoulli chunks.  Each client stream
is one 100-step sample sent as ten chunks on its own session, after
which the client opens a new stream.  The run alternates two kinds of
block, each drained before the next:

* open loop -- chunks arrive on a seeded Poisson schedule at the
  ``light`` load (300 chunks/s, the latency floor: independent users
  that never saturate the server), round-robin over the clients; a
  chunk's latency runs from when it was due to be sent to when the poll
  that completed it returned, so a stall also delays the chunks queued
  behind it;
* closed loop -- every client keeps one chunk in flight (callers that wait
  for each reply); completed chunks per second is the server's capacity.
  At most 32 chunks are queued, so the queue limit never refuses one.

The harness's ``heavy`` load (4000 chunks/s) is not used: on a 2-vCPU
Xeon VM the closed-loop capacity ranged from about 3,200 to 7,500
chunks/s as the host's load changed, so at 4000 chunks/s a slow period
fills the queue and the server refuses chunks.

Checks: no chunk is refused or fails, the server's ticket books balance,
and every sampled stream's chunked outputs equal a one-shot
``SpikingNetwork.run`` of the whole sample bit for bit.
"""

from __future__ import annotations

import numpy as np

from timing import clock

#: Distinct 100-step samples the streams draw from, rendered at set-up so
#: the client loop costs next to nothing.
SAMPLE_POOL = 32
VERIFY_EVERY = 32
BURST_S = 0.5


class _Stream:
    __slots__ = ("session", "sample", "sent", "outputs", "intact")

    def __init__(self, session, sample, verify: bool):
        self.session = session
        self.sample = sample
        self.sent = 0
        self.outputs = [None] * len(sample) if verify else None
        self.intact = True


class Serve:
    def __init__(self, seed: int):
        from repro.common.benchcfg import BENCH_STEPS, bench_network
        from repro.common.rng import RandomState
        from repro.experiments.harness import SERVING_LOADS, serving_scenarios
        from repro.serve import ModelServer
        from repro.serve.workloads import make_workload

        scenario = serving_scenarios()[0]
        self.clients = scenario.sessions
        self.chunk_steps = scenario.chunk_steps
        self.stream_chunks = BENCH_STEPS // self.chunk_steps
        self.rate_per_s = SERVING_LOADS[0].rate_rps
        root = RandomState(seed)
        self.rng = root.child("traffic")
        self.arrivals = root.child("arrivals")
        self.network = bench_network(scenario.sizes)
        workload = make_workload("synthetic", channels=scenario.sizes[0],
                                 density=scenario.spike_density)
        samples = root.child("samples")
        self.pool = [
            np.stack(np.split(workload.sample(BENCH_STEPS, samples),
                              self.stream_chunks))
            for _ in range(SAMPLE_POOL)]
        self.spike_sample = np.stack([np.concatenate(s)
                                      for s in self.pool[:8]])
        self.server = ModelServer(
            self.network, engine=scenario.engines[0],
            precision=scenario.precisions[0], max_batch=scenario.max_batch,
            max_wait_ms=scenario.max_wait_ms,
            queue_limit=scenario.queue_limit, clock=clock)
        # Warm-up: one full tick sizes the server's workspace arenas.
        sessions = [self.server.open_session()
                    for _ in range(scenario.max_batch)]
        for session, sample in zip(sessions, self.pool):
            self.server.submit(session, sample[0])
        self.server.flush()
        for session in sessions:
            self.server.close_session(session)

    def close(self) -> None:
        self.server.close()

    # -- client streams -----------------------------------------------------
    def _bind(self, trace) -> None:
        self._open = trace.wrap(self.server.open_session)
        self._submit = trace.wrap(self.server.submit)
        # A poll that runs no tick is the client idling, not server work.
        self._poll = trace.wrap(self.server.poll, busy=bool)
        self._close = trace.wrap(self.server.close_session)
        self.slots = [None] * self.clients
        self.streams = 0
        self.verified = []
        self.attempted = 0
        self.failed = 0

    def _send(self, slot: int):
        """Submit ``slot``'s next chunk; returns the in-flight record or
        ``None`` when the server refused it."""
        from repro.common.errors import CapacityError

        stream = self.slots[slot]
        if stream is None or stream.sent == self.stream_chunks:
            verify = self.streams % VERIFY_EVERY == 0
            sample = self.pool[int(self.rng.integers(SAMPLE_POOL))]
            stream = _Stream(self._open(), sample, verify)
            self.slots[slot] = stream
            self.streams += 1
            if verify:
                self.verified.append(stream)
        index = stream.sent
        self.attempted += 1
        stream.sent += 1
        try:
            ticket = self._submit(stream.session, stream.sample[index])
        except CapacityError:
            self.failed += 1
            stream.intact = False
            ticket = None
        if stream.sent == self.stream_chunks:
            self._close(stream.session)
        return None if ticket is None else (ticket, stream, index)

    def _settle(self, record) -> bool:
        """Book a finished chunk; ``False`` while it is still queued."""
        ticket, stream, index = record
        if not ticket.done:
            return False
        if not ticket.ok:
            self.failed += 1
            stream.intact = False
        elif stream.outputs is not None:
            stream.outputs[index] = ticket.outputs
        return True

    # -- blocks ------------------------------------------------------------
    def _open_loop(self, block) -> None:
        """``BURST_S`` of Poisson arrivals at the light load, drained."""
        count = int(self.rate_per_s * BURST_S * 1.5) + 64
        gaps = -np.log(1.0 - self.arrivals.random(count)) / self.rate_per_s
        offsets = np.cumsum(gaps)
        start = clock()
        due = (start + offsets[offsets < BURST_S]).tolist()
        outstanding = []
        sent = 0
        while sent < len(due) or outstanding:
            now = clock()
            while sent < len(due) and due[sent] <= now:
                record = self._send(sent % self.clients)
                if record is not None:
                    outstanding.append((record, due[sent]))
                sent += 1
            if self._poll():
                after = clock()
                still = []
                for record, when in outstanding:
                    if self._settle(record):
                        block.latencies.append(after - when)
                        block.ops += 1
                    else:
                        still.append((record, when))
                outstanding = still

    def _closed_loop(self, block) -> None:
        """``BURST_S`` with every client keeping one chunk in flight."""
        end = clock() + BURST_S
        idle = list(range(self.clients))
        outstanding = []
        while clock() < end or outstanding:
            if clock() < end:
                refused = []
                for slot in idle:
                    record = self._send(slot)
                    if record is None:
                        refused.append(slot)
                    else:
                        outstanding.append((record, slot))
                idle = refused
            if self._poll():
                still = []
                for record, slot in outstanding:
                    if self._settle(record):
                        idle.append(slot)
                        block.items += 1
                        block.ops += 1
                    else:
                        still.append((record, slot))
                outstanding = still

    def measure(self, meter, trace) -> tuple[int, int]:
        """Alternating open- and closed-loop blocks, so both meet the same
        machine; returns (chunks sent, failed)."""
        self._bind(trace)
        while meter.running():
            block = meter.start(rated=False)
            self._open_loop(block)
            meter.stop(block)
            block = meter.start(rated=True)
            self._closed_loop(block)
            meter.stop(block)
        return self.attempted, self.failed

    def check(self) -> tuple[dict, int]:
        books = self.server.check_invariants()
        mismatched = self._verify()
        return {
            "books_balance": books["in_flight"] == 0,
            "streams_verified": len(self.verified) - mismatched > 0,
            "streams_match_one_shot": mismatched == 0,
        }, mismatched * self.stream_chunks

    def _verify(self) -> int:
        """Compare sampled streams with one batched one-shot run (large
        enough for the engine's sparse product, which the bitwise
        contract rests on); returns the number that differ."""
        streams = [s for s in self.verified
                   if s.intact and s.sent == self.stream_chunks]
        self.verified = streams
        if not streams:
            return 0
        expected, _ = self.network.run(np.stack([np.concatenate(s.sample)
                                                 for s in streams]))
        return sum(not np.array_equal(np.concatenate(s.outputs, axis=0), want)
                   for s, want in zip(streams, expected))
