#!/usr/bin/env python
"""Observability gates: trace schema, exporter parsing, overhead budget.

``make obs-smoke`` (and the CI ``gates`` job) proves the telemetry
plane (:mod:`repro.obs`, docs/observability.md) holds its contract:

1. **Artifact gate** — the smoke preset run with telemetry on exports
   one ``.trace.jsonl`` + one ``.prom`` per run into ``--trace-dir``;
   every trace must pass the JSONL schema validator, every snapshot the
   Prometheus text parser, and every serving row must fill the
   ``queue_wait_p95_ms`` / ``tick_compute_p95_ms`` table columns.
2. **Chaos trace gate** — the chaos preset's traces must be
   self-explaining: exactly one ``fault.injected`` event per fault the
   run table counted, and every ticket lifecycle reconstructed by
   ``tools/trace_view.py`` must reach a terminal state.
3. **Pool trace gate** — a seeded worker crash must surface as a
   ``pool.respawn`` event carrying the worker id and new generation,
   with the pool's registry counting the dispatch and the respawn.
4. **Overhead gate** — telemetry-on wall time over the smoke preset
   must stay within ``OVERHEAD_BUDGET`` of telemetry-off.  The estimate
   is the median-on / median-off ratio of ``--repeats`` interleaved
   off/on pairs, with ``tools/ab.py``'s seeded paired-bootstrap 95%
   interval; the gate fails only when the interval's lower end is above
   the budget, so a machine's noise cannot fail it but a real overhead
   past the budget does.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from ab import quantile, ratio_interval  # noqa: E402  (tools/ab.py)
from repro import obs  # noqa: E402
from repro.common import faults  # noqa: E402
from repro.common.benchcfg import bench_inputs, bench_network  # noqa: E402

#: Telemetry-on / telemetry-off wall-time ratio ceiling (the pinned
#: acceptance number: <= 5% measured overhead).
OVERHEAD_BUDGET = 1.05


def artifact_gate(trace_dir: str) -> list[str]:
    """Smoke preset with telemetry on: every export must validate."""
    from repro.experiments.harness import run_scenarios, smoke_scenarios

    table = run_scenarios(smoke_scenarios(), trace_dir=trace_dir)
    errors = []
    traces = sorted(Path(trace_dir).glob("*.trace.jsonl"))
    proms = sorted(Path(trace_dir).glob("*.prom"))
    if len(traces) != len(table):
        errors.append(f"expected one trace per run ({len(table)}), "
                      f"found {len(traces)} in {trace_dir}")
    if len(proms) != len(table):
        errors.append(f"expected one .prom per run ({len(table)}), "
                      f"found {len(proms)} in {trace_dir}")
    for path in traces:
        try:
            records = obs.parse_jsonl(path.read_text(encoding="utf-8"))
        except ValueError as error:
            errors.append(f"{path.name}: invalid trace — {error}")
            continue
        if not records:
            errors.append(f"{path.name}: trace is empty")
    for path in proms:
        try:
            samples = obs.parse_prometheus(
                path.read_text(encoding="utf-8"))
        except ValueError as error:
            errors.append(f"{path.name}: invalid snapshot — {error}")
            continue
        if not samples:
            errors.append(f"{path.name}: snapshot is empty")
    for row in table.by_kind("serving"):
        for column in ("queue_wait_p95_ms", "tick_compute_p95_ms"):
            if row[column] is None:
                errors.append(f"{row['run_id']}: {column} is empty")
    print(f"artifact gate: {len(traces)} traces + {len(proms)} snapshots "
          f"validated {'ok' if not errors else 'FAIL'}")
    return errors


def chaos_trace_gate(trace_dir: str) -> list[str]:
    """Chaos traces: one event per injected fault, no lost lifecycles."""
    sys.path.insert(0, os.path.dirname(__file__))
    from trace_view import _TERMINAL, load_trace, ticket_lifecycles

    from repro.experiments.harness import chaos_scenarios, run_scenarios

    table = run_scenarios(chaos_scenarios(), trace_dir=trace_dir)
    errors = []
    for row in table.by_kind("chaos"):
        slug = row["run_id"].replace("/", "__")
        path = Path(trace_dir) / f"{slug}.trace.jsonl"
        if not path.exists():
            errors.append(f"{row['run_id']}: no trace exported")
            continue
        records = load_trace(path)
        fired = sum(1 for r in records
                    if r["type"] == "event" and r["name"] == "fault.injected")
        injected = row["faults_injected"] or 0
        if fired != injected:
            errors.append(
                f"{row['run_id']}: trace has {fired} fault.injected "
                f"events but the run table counted {injected}")
        lifecycles = ticket_lifecycles(records)
        if len(lifecycles) != row["requests"]:
            errors.append(
                f"{row['run_id']}: trace reconstructs {len(lifecycles)} "
                f"ticket lifecycles, expected {row['requests']}")
        unresolved = [
            request for request, events in lifecycles.items()
            if not any(e["name"] in _TERMINAL for e in events)
        ]
        if unresolved:
            errors.append(
                f"{row['run_id']}: {len(unresolved)} tickets never "
                f"reached a terminal state (e.g. #{unresolved[0]})")
    print(f"chaos trace gate: {len(table)} runs "
          f"{'ok' if not errors else 'FAIL'}")
    return errors


def pool_trace_gate() -> list[str]:
    """A seeded crash must emit a pool.respawn event + registry counts."""
    from repro.runtime.pool import WorkerPool

    net = bench_network(sizes=(64, 32, 10), seed=0)
    x = bench_inputs(8, n_in=64)
    plan = faults.FaultPlan(
        (faults.FaultRule("pool.worker.crash", nth=(1,),
                          where={"worker": 0, "generation": 0}),),
        seed=7)
    telemetry = obs.Telemetry()
    with obs.active(telemetry), faults.active(plan):
        pool = WorkerPool(net, workers=2)
        try:
            pool.run_sharded(x, batch_size=4)
            stats = pool.stats
        finally:
            pool.close()
    errors = []
    respawns = [r for r in telemetry.tracer.records
                if r["type"] == "event" and r["name"] == "pool.respawn"]
    if not respawns:
        errors.append("no pool.respawn event after an injected crash")
    for event in respawns:
        if "worker" not in event["attrs"] \
                or "generation" not in event["attrs"]:
            errors.append(f"pool.respawn event missing worker/generation "
                          f"attrs: {event['attrs']}")
    if stats["restarts"] < 1 or stats["respawns"].get(0, 0) < 1:
        errors.append(f"pool registry missed the respawn: {stats}")
    if stats["dispatches"] < 1:
        errors.append(f"pool registry missed the dispatch: {stats}")
    print(f"pool trace gate: {len(respawns)} respawn event(s), "
          f"stats={stats} {'ok' if not errors else 'FAIL'}")
    return errors


def _measure_overhead(repeats: int) -> tuple[list[float], list[float]]:
    """``repeats`` interleaved wall-time pairs: (off samples, on samples).

    Pair ``i`` runs both modes back to back, the order alternating from
    pair to pair, so slow machine drift charges both modes alike;
    collection is forced before (and disabled during) each sample so
    telemetry's allocations don't charge a GC cycle to the telemetry-on
    runs.
    """
    import gc

    from repro.experiments.harness import run_scenarios, smoke_scenarios

    def run_once(trace_dir) -> float:
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            run_scenarios(smoke_scenarios(), trace_dir=trace_dir)
            return time.perf_counter() - start
        finally:
            gc.enable()

    run_once(None)  # warm caches (imports, workload synthesis)
    off_s, on_s = [], []
    # The throwaway traces go to tmpfs when one exists: the gate
    # measures telemetry cost, not disk write latency.
    shm = "/dev/shm"
    tmp_base = shm if os.path.isdir(shm) and os.access(shm, os.W_OK) \
        else None
    with tempfile.TemporaryDirectory(dir=tmp_base) as tmp:
        for index in range(repeats):
            on_dir = os.path.join(tmp, str(index))
            if index % 2:
                on_s.append(run_once(on_dir))
                off_s.append(run_once(None))
            else:
                off_s.append(run_once(None))
                on_s.append(run_once(on_dir))
    return off_s, on_s


def overhead_gate(repeats: int) -> list[str]:
    """Telemetry-on / telemetry-off wall-time ratio on the smoke preset."""
    off_s, on_s = _measure_overhead(repeats)
    off, on = quantile(off_s, 0.5), quantile(on_s, 0.5)
    low, high = ratio_interval(off_s, on_s)
    print(f"overhead gate: median off={off:.4f}s on={on:.4f}s "
          f"ratio={on / off:.4f}, 95% CI [{low:.4f}, {high:.4f}] "
          f"(budget {OVERHEAD_BUDGET}, {repeats} pairs)")
    if low > OVERHEAD_BUDGET:
        return [f"telemetry overhead ratio {on / off:.4f} exceeds "
                f"{OVERHEAD_BUDGET}: its 95% interval [{low:.4f}, "
                f"{high:.4f}] lies above the budget"]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-dir", default="traces",
                        help="directory for the exported smoke/chaos "
                             "telemetry artifacts (CI uploads it)")
    parser.add_argument("--repeats", type=int, default=41,
                        help="interleaved off/on pairs behind the "
                             "overhead estimate")
    args = parser.parse_args(argv)
    smoke_dir = os.path.join(args.trace_dir, "smoke")
    chaos_dir = os.path.join(args.trace_dir, "chaos")
    errors = artifact_gate(smoke_dir)
    errors += chaos_trace_gate(chaos_dir)
    errors += pool_trace_gate()
    errors += overhead_gate(args.repeats)
    if errors:
        print(f"\nobs-smoke: {len(errors)} gate failure(s)")
        for error in errors:
            print(f"  FAIL {error}")
        return 1
    print("\nobs-smoke: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
