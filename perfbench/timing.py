"""Clocks, the block meter and the per-layer trace shared by the workloads.

The machine this benchmark targets is a small virtual machine whose
cores slow down by a third or more, for seconds to minutes at a time,
while other tenants run.  A workload therefore measures in short blocks,
and :class:`Meter` runs a fixed probe kernel between blocks; figures come
from the blocks whose neighbouring probes ran near the fastest probes of
the whole run (all worker processes together).  The probe is independent
of the workload's own randomness, so selecting on it does not favour
cheap operations.  On a 2-vCPU Xeon VM whose host was busy, this
selection narrowed the seed-to-seed spread (quartile distance over
median, five seeds) of ``train`` from 0.15 / 0.14 to 0.12 / 0.12
(p50 latency / items per second) and of ``serve`` from 0.11 / 0.26 to
0.09 / 0.18, against plain figures over all blocks of the same runs.

The trace records busy time around the calls the benchmark itself makes,
so it needs no instrumentation inside the program:

* ``engine`` -- the forward engine, ``SpikingNetwork.run`` and
  ``SpikingNetwork.run_stream`` (outermost call only), wherever the
  program calls them from;
* ``program`` -- every call a workload makes into the program
  (``Trainer.train_batch``, ``ModelServer.submit`` / ``poll``,
  ``seed_accuracy`` ...), engine time included.

Per operation, ``engine_ms + stack_ms + client_ms`` is the wall time:
``stack_ms`` is program time outside the engine and ``client_ms`` is the
benchmark's own client loop, idle waits for an arrival schedule included.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

clock = time.perf_counter

#: A block counts as undisturbed when both neighbouring probes ran within
#: this factor of the run's fast probes (their 10th percentile: the very
#: fastest probe is itself an outlier).
QUIET_FACTOR = 1.10
#: Never keep fewer than this share of the blocks (the quietest ones).
MIN_KEPT_SHARE = 0.2
_PROBE_DATA = np.random.default_rng(0)
_PROBE_MATRIX = _PROBE_DATA.random((128, 128))
_PROBE_VECTOR = _PROBE_DATA.random(50_000)
_PROBE_BUFFER = _PROBE_DATA.random(1_000_000)


def quantile(values, q: float) -> float:
    """The ``q`` quantile (0 < q < 1) of ``values``, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values) -> float:
    return statistics.median(values)


def probe() -> float:
    """Seconds a fixed kernel takes right now (the best of three).

    The kernel mixes what the workloads spend their time on -- a dense
    product, transcendental functions, a pass over 8 MB of memory and
    interpreted Python -- and calls nothing of the program, so it reads
    the machine's speed, not the code's.
    """
    best = float("inf")
    for _ in range(3):
        start = clock()
        _PROBE_MATRIX @ _PROBE_MATRIX
        np.exp(_PROBE_VECTOR)
        _PROBE_BUFFER.sum()
        total = 0
        for value in range(3000):
            total += value
        best = min(best, clock() - start)
    return best


class Block:
    """One measured block: operations, their latencies, completed items
    and the layer trace's counters at its start and end."""

    __slots__ = ("start", "end", "ops", "latencies", "items", "rated",
                 "layers")

    def __init__(self, rated: bool, layers):
        self.layers = [layers]
        self.start = clock()
        self.end = self.start
        self.ops = 0
        self.latencies = []
        self.items = 0
        self.rated = rated


class Meter:
    """Runs a workload in probe-separated blocks for ``seconds``."""

    def __init__(self, seconds: float, trace: "LayerTrace"):
        self.trace = trace
        self.blocks = []
        self.probes = [probe()]
        self.deadline = clock() + seconds

    def running(self) -> bool:
        """Whether to start another block (there is always a first)."""
        return not self.blocks or clock() < self.deadline

    def start(self, rated: bool = True) -> Block:
        """Open a block; ``rated`` blocks count towards ``items_per_s``."""
        block = Block(rated, self.trace.counters())
        self.blocks.append(block)
        return block

    def stop(self, block: Block) -> None:
        block.end = clock()
        block.layers.append(self.trace.counters())
        self.probes.append(probe())

    def records(self) -> list:
        """The blocks as plain records, each with its neighbouring probes."""
        return [{
            "probes": [self.probes[i], self.probes[i + 1]],
            "seconds": block.end - block.start,
            "ops": block.ops,
            "latencies": block.latencies,
            "items": block.items,
            "rated": block.rated,
            "layers": [end - start for start, end in zip(*block.layers)],
        } for i, block in enumerate(self.blocks)]


def quiet(records, wanted) -> list:
    """The ``wanted`` records measured while the machine ran at full speed,
    judged against the fast probes of all ``records`` (at least the least
    disturbed ``MIN_KEPT_SHARE`` of them)."""
    fastest = quantile([p for record in records for p in record["probes"]],
                       0.1)
    levels = [(max(record["probes"]) / fastest, record)
              for record in records if wanted(record)]
    keep = max(1, round(MIN_KEPT_SHARE * len(levels)))
    limit = max(QUIET_FACTOR, sorted(level for level, _ in levels)[keep - 1])
    return [record for level, record in levels if level <= limit]


def figures(workers) -> dict:
    """p50 / p90 latency and items per second of each worker's quiet
    blocks, medians over the workers (``workers`` holds one record list
    per worker process).  A disturbance that outlasts a few blocks falls
    on one worker and so leaves the median alone."""
    records = [record for blocks in workers for record in blocks]
    timed = _ids(quiet(records, lambda record: record["latencies"]))
    rated = _ids(quiet(records, lambda record: record["rated"]))
    p50, p90, rate = [], [], []
    for blocks in workers:
        latencies = [t for record in blocks if id(record) in timed
                     for t in record["latencies"]]
        if latencies:
            p50.append(median(latencies) * 1e3)
            p90.append(quantile(latencies, 0.9) * 1e3)
        kept = [record for record in blocks if id(record) in rated]
        if kept:
            rate.append(sum(record["items"] for record in kept)
                        / sum(record["seconds"] for record in kept))
    return {
        "op_p50_ms": (median(p50), "ms"),
        "op_p90_ms": (median(p90), "ms"),
        "items_per_s": (median(rate), "1/s"),
    }


def _ids(records) -> set:
    return {id(record) for record in records}


def layer_figures(records) -> dict:
    """Per-operation layer breakdown over the quiet blocks."""
    kept = quiet(records, lambda record: record["ops"])
    ops = sum(record["ops"] for record in kept)
    wall = sum(record["seconds"] for record in kept)
    engine, program, calls, rows = (
        sum(record["layers"][i] for record in kept) for i in range(4))
    engine_ms = engine / ops * 1e3
    stack_ms = (program - engine) / ops * 1e3
    return {
        "engine_ms": (engine_ms, "ms"),
        "stack_ms": (stack_ms, "ms"),
        "client_ms": (wall / ops * 1e3 - engine_ms - stack_ms, "ms"),
        "rows_per_engine_call": (rows / max(calls, 1), "count"),
    }


class LayerTrace:
    """Running busy-time counters per layer (no-op when disabled); the
    meter reads them at block boundaries."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.engine_s = 0.0
        self.engine_calls = 0
        self.engine_rows = 0
        self.program_s = 0.0
        self._depth = 0
        self._restore = []

    # -- installation -------------------------------------------------------
    def install(self) -> None:
        """Wrap the forward engine entry points (trace runs only)."""
        if not self.enabled:
            return
        from repro.core.network import SpikingNetwork

        for name in ("run", "run_stream"):
            original = SpikingNetwork.__dict__[name]
            setattr(SpikingNetwork, name, self._engine_wrapper(original))
            self._restore.append((SpikingNetwork, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _engine_wrapper(self, original):
        trace = self

        @functools.wraps(original)
        def timed(network, inputs, *args, **kwargs):
            if trace._depth:
                return original(network, inputs, *args, **kwargs)
            trace._depth += 1
            start = clock()
            try:
                return original(network, inputs, *args, **kwargs)
            finally:
                trace.engine_s += clock() - start
                trace._depth -= 1
                trace.engine_calls += 1
                trace.engine_rows += len(inputs)

        return timed

    def wrap(self, fn, busy=None):
        """``fn`` timed as program time; ``fn`` itself when disabled.

        ``busy(result)`` false leaves that call's time to the client.
        """
        if not self.enabled:
            return fn
        trace = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            if busy is None or busy(result):
                trace.program_s += clock() - start
            return result

        return timed

    def counters(self) -> tuple:
        return (self.engine_s, self.program_s, self.engine_calls,
                self.engine_rows)


def network_events(network, probe) -> dict:
    """Spike events entering each neural layer, per sample of ``probe``.

    A simulated statistic: it depends only on the weights and the inputs,
    so a change that only speeds up the simulator must leave it unchanged.
    """
    _, record = network.run(probe, record=True)
    batch = probe.shape[0]
    metrics = {}
    synaptic_ops = 0.0
    for index, layer in enumerate(network.layers):
        events = float(record.layer_input(index).sum()) / batch
        metrics[f"layer{index}_in_events"] = (events, "count")
        synaptic_ops += events * layer.n_out
    metrics["synaptic_ops"] = (synaptic_ops, "count")
    return metrics
