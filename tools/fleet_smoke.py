#!/usr/bin/env python
"""Fleet gates: tenant isolation, canary rollout, run-table rows.

``make fleet-smoke`` (and the ``fleet-smoke`` CI job) runs three seeded,
deterministic gates over the multi-tenant serving fleet
(:mod:`repro.serve.fleet`, docs/fleet.md).  The 1-replica bitwise
equivalence with a bare :class:`~repro.serve.ModelServer` is pinned by
``tests/unit/test_fleet.py`` (``TestSingleReplicaEquivalence``), which the
tier-1 suite runs at both precisions.

1. **Isolation gate** — a hot tenant driven past its token-bucket quota
   must absorb every quota rejection itself; the cold tenant sharing
   the fleet finishes with *zero* rejections of any kind.
2. **Canary gate** — a canary generation deployed at weight 0.5 must
   receive its share of new sessions within tolerance at the fixed
   seed, collect enough rolling-window observations to be judged,
   promote on the clean divergence/error signal, and drain the losing
   generation to retirement (generation-fenced: no session migrates).
3. **Table gate** — the ``fleet`` scenario preset through the harness
   must emit the aggregate row *plus* one per-tenant SLO row per
   tenant into ``--table``, with the canary share measured and the
   cold tenant rejection-free; telemetry exports land in
   ``--trace-dir`` (CI uploads both).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np  # noqa: E402

from repro.core import SpikingNetwork  # noqa: E402

AVAILABILITY_FLOOR = 0.95

#: |measured canary session share - deployed weight| ceiling at the
#: pinned seed (40 sessions drawn from the fleet's seeded stream).
CANARY_TOLERANCE = 0.2

SIZES = (24, 20, 12)


def make_net(seed: int = 1) -> SpikingNetwork:
    net = SpikingNetwork(SIZES, rng=seed)
    for layer in net.layers:
        layer.weight *= 5.0
    return net


def make_chunk(steps: int = 6, seed: int = 0,
               density: float = 0.15) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return (rng.random((steps, SIZES[0])) < density).astype(np.float64)


def isolation_gate() -> list[str]:
    """Hot tenant over quota; cold tenant must see zero rejections."""
    from repro.serve import Fleet, TenantQuota
    from repro.serve.loadgen import TenantLoad, open_loop_fleet

    fleet = Fleet(make_net(), replicas=2, max_batch=8,
                  max_wait_ms=0.5, queue_limit=64, seed=5)
    try:
        report = open_loop_fleet(
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
    print(f"isolation gate: hot quota_rejected={hot_quota} "
          f"cold rejected={cold.rejected} "
          f"{'ok' if not errors else 'FAIL'}")
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
        print(f"canary gate: share={share:.2f} "
              f"observed={status['observed']} verdict={verdict} "
              f"drained={'ok' if not errors else 'FAIL'}")
    finally:
        fleet.close()
    return errors


def table_gate(table_path: str, trace_dir: str | None) -> list[str]:
    """The fleet preset: aggregate + per-tenant SLO rows, floors hold."""
    from repro.experiments.harness import fleet_scenarios, run_scenarios

    table = run_scenarios(fleet_scenarios(), log=print,
                          trace_dir=trace_dir)
    table.write_csv(table_path)
    print(f"wrote {table_path} ({len(table)} rows)")

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
    print(f"table gate: {len(aggregates)} aggregate + {len(tenants)} "
          f"tenant rows {'ok' if not errors else 'FAIL'}")
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table", default="run_table.csv",
                        help="fleet run-table CSV output path")
    parser.add_argument("--trace-dir", default=None,
                        help="directory for the fleet preset's telemetry "
                             "exports (CI uploads it; omit to skip)")
    args = parser.parse_args(argv)
    errors = isolation_gate()
    errors += canary_gate()
    errors += table_gate(args.table, args.trace_dir)
    if errors:
        print(f"\nfleet-smoke: {len(errors)} gate failure(s)")
        for error in errors:
            print(f"  FAIL {error}")
        return 1
    print("\nfleet-smoke: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
