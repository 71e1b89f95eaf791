#!/usr/bin/env python
"""Chaos gates: pool self-healing bitwise recovery + serving availability.

``make chaos-smoke`` (and the ``chaos-smoke`` CI job) runs two seeded,
deterministic gates over the fault-injection plane
(:mod:`repro.common.faults`, docs/robustness.md):

1. **Pool recovery gate** — a 2-worker pool under a seeded crash+hang
   schedule (worker 0 crashes on its first dispatch, worker 1 hangs on
   its second) must heal — respawn the workers, retry the in-flight
   shards — and return ``run_sharded`` / ``grad_shards`` results
   bitwise-identical to a fault-free pool.
2. **Serving availability gate** — the ``chaos`` scenario preset
   (:func:`repro.experiments.harness.chaos_scenarios`) must complete
   with ``availability >= 0.95`` on every row, lose no tickets
   (completed + failed + expired + rejected == requests), and report
   zero *unrecovered* errors: every failed request must trace back to
   an injected fault (``requests_failed <= faults_injected``).
3. **Fleet replica-kill gate** — a 2-replica
   :class:`~repro.serve.Fleet` loses replica 0 mid-load
   (``fleet.replica.down``); its sessions must re-route to the
   survivor or fail cleanly, fleet-wide availability must hold the
   same ``>= 0.95`` floor, and the fleet's own accounting tripwire
   (:meth:`~repro.serve.Fleet.check_invariants`, run at drain by the
   load generator) must pass over the degraded fleet.

The chaos run table is written to ``--table`` (default
``run_table.csv``) so CI can upload it as the regression artifact.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.common import faults  # noqa: E402
from repro.common.benchcfg import bench_inputs, bench_network  # noqa: E402

AVAILABILITY_FLOOR = 0.95

#: Worker 0 dies on its first command, worker 1 stops answering on its
#: second; the ``generation: 0`` scope keeps the respawned workers
#: healthy so the supervisor's bounded retry converges.
CRASH_HANG_RULES = (
    faults.FaultRule("pool.worker.crash", nth=(1,),
                     where={"worker": 0, "generation": 0}),
    faults.FaultRule("pool.worker.hang", nth=(2,),
                     where={"worker": 1, "generation": 0}, payload=60.0),
)

#: Seconds a dispatch may wait on a silent worker before the supervisor
#: declares it hung — the wall-clock cost of the hang half of the gate.
HANG_TIMEOUT_S = 5.0


def pool_gate() -> list[str]:
    """Bitwise self-healing of run_sharded and grad_shards."""
    from repro.core import CrossEntropyRateLoss
    from repro.runtime.parallel import shard_slices
    from repro.runtime.pool import WorkerPool

    net = bench_network(sizes=(64, 32, 10), seed=0)
    x = bench_inputs(16, n_in=64)
    labels = np.arange(16) % 10
    loss = CrossEntropyRateLoss()
    slices = shard_slices(16, 2)

    def snapshot(shards):
        # Gradient arrays are views into the pool's shared-memory arena;
        # copy them out so they survive pool.close().
        return [(lv, n, [g.copy() for g in grads])
                for lv, n, grads in shards]

    clean = WorkerPool(net, workers=2, loss=loss)
    try:
        ref_outputs = clean.run_sharded(x, batch_size=4).copy()
        ref_shards = snapshot(clean.grad_shards(x, labels, slices))
    finally:
        clean.close()

    plan = faults.FaultPlan(CRASH_HANG_RULES, seed=7)
    with faults.active(plan):
        pool = WorkerPool(net, workers=2, loss=loss)
    try:
        outputs = pool.run_sharded(x, batch_size=4,
                                   timeout=HANG_TIMEOUT_S).copy()
        shards = snapshot(pool.grad_shards(x, labels, slices,
                                           timeout=HANG_TIMEOUT_S))
        restarts = pool.stats["restarts"]
        retries = pool.stats["retries"]
    finally:
        pool.close()

    errors = []
    if not np.array_equal(outputs, ref_outputs):
        errors.append("run_sharded outputs diverged from the fault-free "
                      "pool after healing")
    if len(shards) != len(ref_shards):
        errors.append(f"grad_shards returned {len(shards)} shards, "
                      f"expected {len(ref_shards)}")
    else:
        for i, ((lv, n, grads), (rlv, rn, rgrads)) in enumerate(
                zip(shards, ref_shards)):
            if lv != rlv or n != rn or len(grads) != len(rgrads) \
                    or any(not np.array_equal(g, r)
                           for g, r in zip(grads, rgrads)):
                errors.append(f"grad shard {i} diverged from the "
                              "fault-free pool after healing")
    if restarts < 2:
        errors.append(f"expected the crash and the hang to each force a "
                      f"respawn (>= 2 restarts), got {restarts}")
    if retries < 1:
        errors.append(f"expected at least one retried in-flight shard, "
                      f"got {retries}")
    print(f"pool gate: restarts={restarts} retries={retries} "
          f"bitwise={'ok' if not errors else 'FAIL'}")
    return errors


def fleet_gate() -> list[str]:
    """Replica kill mid-load: re-route or fail cleanly, floor holds."""
    from repro.core import SpikingNetwork
    from repro.serve import Fleet
    from repro.serve.loadgen import TenantLoad, open_loop_fleet

    net = SpikingNetwork((24, 20, 12), rng=1)
    for layer in net.layers:
        layer.weight *= 5.0
    #: Replica 0 dies on its first housekeeping visit once traffic is
    #: flowing; ``times=1`` keeps the survivor alive so re-routed
    #: sessions land somewhere.
    plan = faults.FaultPlan(
        (faults.FaultRule("fleet.replica.down", probability=1.0,
                          where={"replica": 0}, times=1),),
        seed=7)
    fleet = Fleet(net, replicas=2, max_batch=8,
                  max_wait_ms=0.5, queue_limit=64, seed=9)
    try:
        with faults.active(plan):
            # open_loop_fleet reconnects StateError'd sessions through
            # the router and runs fleet.check_invariants() at drain —
            # an accounting hole in the degraded fleet raises here.
            report = open_loop_fleet(
                fleet,
                tenants=(TenantLoad("t0", sessions=6),),
                requests=300, rate_rps=600.0, chunk_steps=6, rng=9)
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
    print(f"fleet gate: replicas_down={report.replicas_down} "
          f"lost_sessions={stats['lost_sessions']} "
          f"availability={aggregate.availability:.4f} "
          f"{'ok' if not errors else 'FAIL'}")
    return errors


def serving_gate(table_path: str) -> list[str]:
    """Availability / accounting floors over the chaos preset."""
    from repro.experiments.harness import chaos_scenarios, run_scenarios

    table = run_scenarios(chaos_scenarios(), log=print)
    table.write_csv(table_path)
    print(f"wrote {table_path} ({len(table)} rows)")

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
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", default="run_table.csv",
                        help="chaos run-table CSV output path")
    args = parser.parse_args(argv)
    errors = pool_gate()
    errors += fleet_gate()
    errors += serving_gate(args.table)
    if errors:
        print(f"\nchaos-smoke: {len(errors)} gate failure(s)")
        for error in errors:
            print(f"  FAIL {error}")
        return 1
    print("\nchaos-smoke: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
