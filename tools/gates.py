#!/usr/bin/env python
"""Every smoke gate in one run: telemetry, chaos, worker pool and fleet.

``make gates`` (and the CI ``gates`` job) runs each gate below in one
process.  Each preset and fault schedule runs once, and every gate that
checks it reads that one run's run table, traces and counters:

- the smoke preset, untraced (the overhead gate's warm-up run, kept as
  ``run_table_smoke.csv``) and traced (``traces/smoke/``);
- the chaos preset, traced (``run_table_chaos.csv``, ``traces/chaos/``);
- one clean reference pool and one pool under :data:`CRASH_HANG_RULES`
  with a telemetry bundle active;
- the fleet preset, traced (``run_table_fleet.csv``, ``traces/fleet/``),
  plus the isolation, canary and replica-kill fleets.

The gates (docs/robustness.md, docs/observability.md, docs/fleet.md):

- ``telemetry-overhead``: telemetry-on / telemetry-off wall time over the
  smoke preset stays within :data:`OVERHEAD_BUDGET`.  The estimate is the
  median ratio of :data:`OVERHEAD_PAIRS` interleaved off/on pairs with
  ``tools/ab.py``'s seeded paired-bootstrap 95% interval; the gate fails
  only when the interval's lower end is above the budget.
- ``smoke-artifacts``: one schema-valid ``.trace.jsonl`` and one
  parseable ``.prom`` per smoke run, and every serving row fills the
  ``queue_wait_p95_ms`` / ``tick_compute_p95_ms`` columns.
- ``chaos-availability``: every chaos row has availability >=
  :data:`AVAILABILITY_FLOOR`, loses no tickets, and fails no more
  requests than faults were injected.
- ``chaos-traces``: one ``fault.injected`` event per counted fault, and
  one terminal ticket lifecycle per request.
- ``pool-heal``: the faulted pool heals (>= 2 restarts, >= 1 retry) and
  returns ``run_sharded`` / ``grad_shards`` results bitwise equal to the
  clean pool's.
- ``pool-telemetry``: every ``pool.respawn`` event carries ``worker`` and
  ``generation``, and the pool registry counts the dispatches and the
  respawn of worker 0.
- ``fleet-replica-kill``: a 2-replica fleet loses replica 0 mid-load;
  availability holds the floor, no ticket is lost, and
  ``Fleet.check_invariants`` passes at drain.
- ``fleet-isolation``: a hot tenant past its quota takes every quota
  rejection; the cold tenant takes none.
- ``fleet-canary``: a weight-0.5 canary gets its session share within
  :data:`CANARY_TOLERANCE`, is judged on >= 32 observations, promotes,
  and the old generation drains.
- ``fleet-table``: the fleet preset emits the aggregate row (availability
  floor, measured canary share) and the hot and cold tenant rows, the
  cold one rejection-free.

A gate returns its error strings.  :func:`run_gates` times each gate,
counts an exception as that gate's failure and goes on, so every gate
reports even when an earlier one fails; the exit status is 1 if any
gate failed.

Usage: ``python tools/gates.py [--out DIR]`` (default ``.``).
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import NamedTuple

TOOLS = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(TOOLS, "..", "src"), TOOLS]

import numpy as np  # noqa: E402

from ab import quantile, ratio_interval  # noqa: E402  (tools/ab.py)
from repro import obs  # noqa: E402
from repro.common import faults  # noqa: E402
from repro.common.benchcfg import bench_inputs, bench_network  # noqa: E402
from repro.core import SpikingNetwork  # noqa: E402

AVAILABILITY_FLOOR = 0.95

#: Telemetry-on / telemetry-off wall-time ratio ceiling (the pinned
#: acceptance number: <= 5% measured overhead).
OVERHEAD_BUDGET = 1.05

#: Interleaved off/on pairs behind the overhead estimate.
OVERHEAD_PAIRS = 41

#: |measured canary session share - deployed weight| ceiling at the
#: pinned seed (40 sessions drawn from the fleet's seeded stream).
CANARY_TOLERANCE = 0.2

#: Worker 0 dies on its first command, worker 1 stops answering on its
#: second; the ``generation: 0`` scope keeps the respawned workers
#: healthy so the pool's bounded heal converges.
CRASH_HANG_RULES = (
    faults.FaultRule("pool.worker.crash", nth=(1,),
                     where={"worker": 0, "generation": 0}),
    faults.FaultRule("pool.worker.hang", nth=(2,),
                     where={"worker": 1, "generation": 0}, payload=60.0),
)

#: Seconds a dispatch may wait on a silent worker before the pool
#: declares it hung — the wall-clock cost of the hang half of the pool
#: run.
HANG_TIMEOUT_S = 5.0

FLEET_SIZES = (24, 20, 12)


def _status(errors) -> str:
    return "ok" if not errors else "FAIL"


def _once(run):
    """``run`` executed on the first call only: later calls return its
    result or raise its error again, so a run that several gates read
    happens once."""
    memo = []

    def shared():
        if not memo:
            try:
                memo.append((run(), None))
            except Exception as error:   # re-raised to every reader
                memo.append((None, error))
        result, error = memo[0]
        if error is not None:
            raise error
        return result

    return shared


# -- smoke preset: telemetry overhead and artifacts ---------------------------

def _measure_overhead(out: Path) -> tuple[list[float], list[float]]:
    """:data:`OVERHEAD_PAIRS` interleaved wall-time pairs: (off samples,
    on samples).

    Pair ``i`` runs both modes back to back, the order alternating from
    pair to pair, so slow machine drift charges both modes alike;
    collection is forced before (and disabled during) each sample so
    telemetry's allocations don't charge a GC cycle to the telemetry-on
    runs.
    """
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

    # Warm caches (imports, workload synthesis) with an untimed
    # telemetry-off run, kept as the smoke run table.
    table = run_scenarios(smoke_scenarios())
    table.write_csv(out / "run_table_smoke.csv")
    print(f"wrote {out / 'run_table_smoke.csv'} ({len(table)} rows)")
    off_s, on_s = [], []
    # The throwaway traces go to tmpfs when one exists: the gate
    # measures telemetry cost, not disk write latency.
    shm = "/dev/shm"
    tmp_base = shm if os.path.isdir(shm) and os.access(shm, os.W_OK) \
        else None
    with tempfile.TemporaryDirectory(dir=tmp_base) as tmp:
        for index in range(OVERHEAD_PAIRS):
            on_dir = os.path.join(tmp, str(index))
            if index % 2:
                on_s.append(run_once(on_dir))
                off_s.append(run_once(None))
            else:
                off_s.append(run_once(None))
                on_s.append(run_once(on_dir))
    return off_s, on_s


def overhead_gate(out: Path) -> list[str]:
    """Telemetry-on / telemetry-off wall-time ratio on the smoke preset."""
    off_s, on_s = _measure_overhead(out)
    off, on = quantile(off_s, 0.5), quantile(on_s, 0.5)
    low, high = ratio_interval(off_s, on_s)
    print(f"overhead: median off={off:.4f}s on={on:.4f}s "
          f"ratio={on / off:.4f}, 95% CI [{low:.4f}, {high:.4f}] "
          f"(budget {OVERHEAD_BUDGET}, {OVERHEAD_PAIRS} pairs)")
    if low > OVERHEAD_BUDGET:
        return [f"telemetry overhead ratio {on / off:.4f} exceeds "
                f"{OVERHEAD_BUDGET}: its 95% interval [{low:.4f}, "
                f"{high:.4f}] lies above the budget"]
    return []


def artifact_gate(out: Path) -> list[str]:
    """Smoke preset with telemetry on: every export must validate."""
    from repro.experiments.harness import run_scenarios, smoke_scenarios

    trace_dir = out / "traces" / "smoke"
    table = run_scenarios(smoke_scenarios(), trace_dir=trace_dir)
    errors = []
    traces = sorted(trace_dir.glob("*.trace.jsonl"))
    proms = sorted(trace_dir.glob("*.prom"))
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
    print(f"artifacts: {len(traces)} traces + {len(proms)} snapshots "
          f"validated {_status(errors)}")
    return errors


# -- chaos preset: availability, accounting and traces ------------------------

def chaos_run(out: Path):
    """The chaos preset, traced once: ``(table, trace_dir)``."""
    from repro.experiments.harness import chaos_scenarios, run_scenarios

    trace_dir = out / "traces" / "chaos"
    table = run_scenarios(chaos_scenarios(), log=print, trace_dir=trace_dir)
    table.write_csv(out / "run_table_chaos.csv")
    print(f"wrote {out / 'run_table_chaos.csv'} ({len(table)} rows)")
    return table, trace_dir


def chaos_availability_gate(table) -> list[str]:
    """Availability / accounting floors over the chaos preset."""
    rows = table.by_kind("chaos")
    errors = []
    if not rows:
        errors.append("chaos preset produced no chaos rows")
    for row in rows:
        run_id = row["run_id"]
        completed = row["completed"] or 0
        failed = row["requests_failed"] or 0
        expired = row["requests_expired"] or 0
        rejected = row["rejected"] or 0
        injected = row["faults_injected"] or 0
        resolved = completed + failed + expired + rejected
        if resolved != row["requests"]:
            errors.append(
                f"{run_id}: lost tickets — completed {completed} + failed "
                f"{failed} + expired {expired} + rejected {rejected} != "
                f"requests {row['requests']}")
        if row["availability"] is None \
                or row["availability"] < AVAILABILITY_FLOOR:
            errors.append(f"{run_id}: availability "
                          f"{row['availability']} < {AVAILABILITY_FLOOR}")
        if failed > injected:
            errors.append(
                f"{run_id}: {failed} failed requests but only {injected} "
                f"injected faults — some errors were not injected "
                "(unrecovered server fault)")
    print("availability: " + ", ".join(
        f"{row['availability']}" for row in rows) + f" {_status(errors)}")
    return errors


def chaos_trace_gate(table, trace_dir: Path) -> list[str]:
    """Chaos traces: one event per injected fault, no lost lifecycles."""
    from trace_view import _TERMINAL, load_trace, ticket_lifecycles

    errors = []
    for row in table.by_kind("chaos"):
        slug = row["run_id"].replace("/", "__")
        path = trace_dir / f"{slug}.trace.jsonl"
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
    print(f"chaos traces: {len(table)} runs {_status(errors)}")
    return errors


# -- worker pool: bitwise healing and its telemetry ---------------------------

class PoolRun(NamedTuple):
    """A clean reference pool's results beside a faulted pool's."""
    ref_outputs: np.ndarray
    ref_shards: list
    outputs: np.ndarray
    shards: list
    stats: dict
    respawns: list


def pool_run() -> PoolRun:
    """One clean pool, then one pool under :data:`CRASH_HANG_RULES` with a
    telemetry bundle active, over the same ``run_sharded`` and
    ``grad_shards`` calls."""
    from repro.core import CrossEntropyRateLoss
    from repro.runtime.parallel import shard_slices
    from repro.runtime.pool import WorkerPool

    net = bench_network(sizes=(64, 32, 10), seed=0)
    x = bench_inputs(16, n_in=64)
    labels = np.arange(16) % 10
    loss = CrossEntropyRateLoss()
    slices = shard_slices(16, 2)

    clean = WorkerPool(net, workers=2, loss=loss)
    try:
        ref_outputs = clean.run_sharded(x, batch_size=4).copy()
        ref_shards = clean.grad_shards(x, labels, slices)
    finally:
        clean.close()

    plan = faults.FaultPlan(CRASH_HANG_RULES, seed=7)
    telemetry = obs.Telemetry()
    with obs.active(telemetry), faults.active(plan):
        pool = WorkerPool(net, workers=2, loss=loss)
        try:
            outputs = pool.run_sharded(x, batch_size=4,
                                       timeout=HANG_TIMEOUT_S).copy()
            shards = pool.grad_shards(x, labels, slices,
                                      timeout=HANG_TIMEOUT_S)
            stats = pool.stats
        finally:
            pool.close()
    respawns = [r for r in telemetry.tracer.records
                if r["type"] == "event" and r["name"] == "pool.respawn"]
    return PoolRun(ref_outputs, ref_shards, outputs, shards, stats,
                   respawns)


def pool_heal_gate(run: PoolRun) -> list[str]:
    """Bitwise self-healing of run_sharded and grad_shards."""
    errors = []
    if not np.array_equal(run.outputs, run.ref_outputs):
        errors.append("run_sharded outputs diverged from the fault-free "
                      "pool after healing")
    if len(run.shards) != len(run.ref_shards):
        errors.append(f"grad_shards returned {len(run.shards)} shards, "
                      f"expected {len(run.ref_shards)}")
    else:
        for i, ((lv, n, grads), (rlv, rn, rgrads)) in enumerate(
                zip(run.shards, run.ref_shards)):
            if lv != rlv or n != rn or len(grads) != len(rgrads) \
                    or any(not np.array_equal(g, r)
                           for g, r in zip(grads, rgrads)):
                errors.append(f"grad shard {i} diverged from the "
                              "fault-free pool after healing")
    restarts = run.stats["restarts"]
    retries = run.stats["retries"]
    if restarts < 2:
        errors.append(f"expected the crash and the hang to each force a "
                      f"respawn (>= 2 restarts), got {restarts}")
    if retries < 1:
        errors.append(f"expected at least one retried in-flight shard, "
                      f"got {retries}")
    print(f"pool heal: restarts={restarts} retries={retries} "
          f"bitwise={_status(errors)}")
    return errors


def pool_trace_gate(run: PoolRun) -> list[str]:
    """The crash must emit pool.respawn events + registry counts."""
    errors = []
    if not run.respawns:
        errors.append("no pool.respawn event after an injected crash")
    for event in run.respawns:
        if "worker" not in event["attrs"] \
                or "generation" not in event["attrs"]:
            errors.append(f"pool.respawn event missing worker/generation "
                          f"attrs: {event['attrs']}")
    stats = run.stats
    if stats["restarts"] < 1 or stats["respawns"].get(0, 0) < 1:
        errors.append(f"pool registry missed the respawn: {stats}")
    if stats["dispatches"] < 1:
        errors.append(f"pool registry missed the dispatch: {stats}")
    print(f"pool telemetry: respawn events "
          f"{[event['attrs'] for event in run.respawns]}, "
          f"stats={stats} {_status(errors)}")
    return errors


# -- fleet: replica kill, isolation, canary, preset rows ----------------------

def make_net(seed: int = 1) -> SpikingNetwork:
    net = SpikingNetwork(FLEET_SIZES, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_chunk(steps: int = 6, seed: int = 0,
               density: float = 0.15) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((steps, FLEET_SIZES[0])) < density).astype(np.float64)


def replica_kill_gate() -> list[str]:
    """Replica kill mid-load: re-route or fail cleanly, floor holds."""
    from repro.serve import Fleet
    from repro.serve.loadgen import open_loop

    #: Replica 0 dies on its first housekeeping visit once traffic is
    #: flowing; ``times=1`` keeps the survivor alive so re-routed
    #: sessions land somewhere.
    plan = faults.FaultPlan(
        (faults.FaultRule("fleet.replica.down", probability=1.0,
                          where={"replica": 0}, times=1),),
        seed=7)
    fleet = Fleet(make_net(), replicas=2, max_batch=8,
                  max_wait_ms=0.5, queue_limit=64, seed=9)
    try:
        with faults.active(plan):
            # open_loop reconnects StateError'd sessions through the
            # router and runs fleet.check_invariants() at drain — an
            # accounting hole in the degraded fleet raises here.
            report = open_loop(fleet, sessions=6, requests=300,
                               rate_rps=600.0, chunk_steps=6, rng=9)
        stats = fleet.stats
    finally:
        fleet.close()

    errors = []
    aggregate = report.aggregate
    if report.replicas_down != 1:
        errors.append(f"expected exactly one replica kill, counted "
                      f"{report.replicas_down}")
    if report.live_replicas != 1:
        errors.append(f"expected one surviving replica, fleet reports "
                      f"{report.live_replicas} live")
    if aggregate.availability is None \
            or aggregate.availability < AVAILABILITY_FLOOR:
        errors.append(f"fleet availability {aggregate.availability} "
                      f"< {AVAILABILITY_FLOOR} after a replica kill")
    if aggregate.completed == 0:
        errors.append("no requests completed on the surviving replica")
    resolved = (aggregate.completed + aggregate.rejected
                + aggregate.requests_failed + aggregate.requests_expired)
    if resolved != aggregate.submitted:
        errors.append(
            f"lost tickets after the kill — completed "
            f"{aggregate.completed} + rejected {aggregate.rejected} + "
            f"failed {aggregate.requests_failed} + expired "
            f"{aggregate.requests_expired} != submitted "
            f"{aggregate.submitted}")
    print(f"replica kill: replicas_down={report.replicas_down} "
          f"lost_sessions={stats['lost_sessions']} "
          f"availability={aggregate.availability:.4f} {_status(errors)}")
    return errors


def isolation_gate() -> list[str]:
    """Hot tenant over quota; cold tenant must see zero rejections."""
    from repro.serve import Fleet, TenantQuota
    from repro.serve.loadgen import TenantLoad, open_loop

    fleet = Fleet(make_net(), replicas=2, max_batch=8,
                  max_wait_ms=0.5, queue_limit=64, seed=5)
    try:
        report = open_loop(
            fleet,
            tenants=(
                TenantLoad("hot", share=3.0, sessions=6,
                           quota=TenantQuota(rate_rps=150.0, burst=8,
                                             max_pending=16)),
                TenantLoad("cold", share=1.0, sessions=4),
            ),
            requests=400, rate_rps=800.0, chunk_steps=6, rng=5)
    finally:
        fleet.close()

    errors = []
    hot_quota = report.quota_rejected.get("hot", 0)
    cold_quota = report.quota_rejected.get("cold", 0)
    cold = report.tenants["cold"]
    if hot_quota == 0:
        errors.append("hot tenant was never quota-limited — the gate "
                      "did not exercise admission control")
    if cold_quota != 0:
        errors.append(f"cold tenant took {cold_quota} quota rejections "
                      "under hot-tenant overload")
    if cold.rejected != 0:
        errors.append(f"cold tenant took {cold.rejected} rejections "
                      "under hot-tenant overload")
    print(f"isolation: hot quota_rejected={hot_quota} "
          f"cold rejected={cold.rejected} {_status(errors)}")
    return errors


def canary_gate() -> list[str]:
    """Weighted split within tolerance; promote + drain end-to-end."""
    from repro.serve import Fleet

    errors = []
    fleet = Fleet(make_net(), replicas=2, max_batch=8,
                  max_wait_ms=0.0, seed=11)
    try:
        old_primary = fleet.primary_generation
        fleet.deploy_canary(weight=0.5, replicas=1, label="canary")
        canary_gen = fleet.canary_generation
        generation_of = {r["replica"]: r["generation"]
                         for r in fleet.stats["per_replica"]}
        sessions = [fleet.open_session("t0", now=0.0) for _ in range(40)]
        on_canary = sum(
            1 for sid in sessions
            if generation_of[fleet.route(sid)] == canary_gen)
        share = on_canary / len(sessions)
        if abs(share - 0.5) > CANARY_TOLERANCE:
            errors.append(f"canary session share {share:.2f} is outside "
                          f"weight 0.5 +/- {CANARY_TOLERANCE}")

        now = 0.0
        for burst in range(2):   # fill the rolling canary window
            for j, sid in enumerate(sessions):
                fleet.submit(sid, make_chunk(seed=100 * burst + j),
                             now=now)
                now += 0.001
            fleet.flush(now=now)
        status = fleet.canary_status()
        if status["observed"] < 32:
            errors.append(f"canary window holds {status['observed']} "
                          "observations — too few to judge")
        verdict = fleet.evaluate_canary()
        if verdict != "promote":
            errors.append(f"clean canary evaluated to {verdict!r}, "
                          "expected 'promote'")
        fleet.promote_canary()
        if fleet.primary_generation != canary_gen \
                or fleet.canary_generation is not None:
            errors.append("promote_canary did not switch the primary "
                          "generation")
        for sid in sessions:
            fleet.close_session(sid)
        fleet.poll(now=now + 1.0)   # housekeeping retires drained gens
        if not fleet.drained(old_primary):
            errors.append(f"generation {old_primary} never drained "
                          "after promotion")
        fleet.check_invariants()
        print(f"canary: share={share:.2f} observed={status['observed']} "
              f"verdict={verdict} {_status(errors)}")
    finally:
        fleet.close()
    return errors


def fleet_table_gate(out: Path) -> list[str]:
    """The fleet preset: aggregate + per-tenant SLO rows, floors hold."""
    from repro.experiments.harness import fleet_scenarios, run_scenarios

    table = run_scenarios(fleet_scenarios(), log=print,
                          trace_dir=out / "traces" / "fleet")
    table.write_csv(out / "run_table_fleet.csv")
    print(f"wrote {out / 'run_table_fleet.csv'} ({len(table)} rows)")

    rows = table.by_kind("fleet")
    aggregates = [row for row in rows if row["tenant"] is None]
    tenants = {row["tenant"]: row for row in rows
               if row["tenant"] is not None}
    errors = []
    if not aggregates:
        errors.append("fleet preset produced no aggregate fleet row")
    if set(tenants) != {"hot", "cold"}:
        errors.append(f"expected per-tenant rows for hot+cold, got "
                      f"{sorted(tenants)}")
    for row in aggregates:
        if row["availability"] is None \
                or row["availability"] < AVAILABILITY_FLOOR:
            errors.append(f"{row['run_id']}: availability "
                          f"{row['availability']} < {AVAILABILITY_FLOOR}")
        if row["canary_weight"] and row["canary_share"] is None:
            errors.append(f"{row['run_id']}: canary deployed but no "
                          "measured canary_share")
    cold = tenants.get("cold")
    if cold is not None and (cold["quota_rejected"] or 0) != 0:
        errors.append(f"cold tenant row reports "
                      f"{cold['quota_rejected']} quota rejections")
    print(f"fleet table: {len(aggregates)} aggregate + {len(tenants)} "
          f"tenant rows {_status(errors)}")
    return errors


# -- the runner ---------------------------------------------------------------

def gates(out: Path) -> list:
    """Every gate as ``(name, gate)``; the gates that read one run share
    it."""
    chaos = _once(lambda: chaos_run(out))
    pool = _once(pool_run)
    return [
        ("telemetry-overhead", lambda: overhead_gate(out)),
        ("smoke-artifacts", lambda: artifact_gate(out)),
        ("chaos-availability", lambda: chaos_availability_gate(chaos()[0])),
        ("chaos-traces", lambda: chaos_trace_gate(*chaos())),
        ("pool-heal", lambda: pool_heal_gate(pool())),
        ("pool-telemetry", lambda: pool_trace_gate(pool())),
        ("fleet-replica-kill", replica_kill_gate),
        ("fleet-isolation", isolation_gate),
        ("fleet-canary", canary_gate),
        ("fleet-table", lambda: fleet_table_gate(out)),
    ]


def run_gates(named_gates, log=print) -> int:
    """Run every ``(name, gate)`` in order and report each; 1 if any
    failed.  A gate's exception is its failure, not the run's end."""
    failed = []
    for name, gate in named_gates:
        start = time.perf_counter()
        trace = None
        try:
            errors = list(gate())
        except Exception as error:
            errors = [f"raised {type(error).__name__}: {error}"]
            trace = traceback.format_exc()
        log(f"[{_status(errors)}] {name} ({time.perf_counter() - start:.1f}s)")
        for error in errors:
            log(f"  FAIL {error}")
        if trace is not None:
            log(trace.rstrip())
        if errors:
            failed.append(name)
    if failed:
        log(f"gates: {len(failed)} of {len(named_gates)} failed: "
            + ", ".join(failed))
        return 1
    log(f"gates: all {len(named_gates)} passed")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=".", type=Path,
                        help="directory for the run tables and traces "
                             "(CI uploads it)")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    return run_gates(gates(args.out))


if __name__ == "__main__":
    raise SystemExit(main())
