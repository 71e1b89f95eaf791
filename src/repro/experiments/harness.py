"""Scenario harness: expand declarative grids, run them, fill one table.

This is the execution layer over :mod:`repro.experiments.scenario`:
:func:`run_scenarios` expands every scenario deterministically
(:func:`~repro.experiments.scenario.expand`), drives each grid cell's
server or fleet with an open-loop arrival process, and appends one row
per run to a single :class:`~repro.common.runtable.RunTable`: the
serving, chaos and fleet SLO rows of ``run_table.csv``.  The harness
measures service levels, not kernels; speed is measured by the
repository benchmark (``perfbench/``, see ``docs/performance.md``).

Cross-cell resources are shared, not rebuilt: networks are cached by
(sizes, seed) and workloads by (name, seed, channels, density).

Determinism contract (what ``tests/unit/test_harness.py`` pins down):

* grid expansion and run ids never depend on measurement;
* every run's randomness derives from ``scenario.seed`` via
  ``RandomState(seed).child(run_id)`` — rows are independent of
  execution order;
* wall-clock enters only through the injectable ``timer``; with a fake
  timer two identical invocations produce byte-identical CSV text.

The canonical grids live here too (:data:`PRESETS`): ``smoke`` (the CI
seconds-scale grid), ``serving`` (the server configs x offered loads
the ``perfbench`` ``serve`` workload takes its operating point from),
``chaos`` (serving under seeded fault schedules — the availability
rows), ``fleet`` (the multi-tenant fleet rows) and ``full`` (their
union).
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

from .. import obs as _obs
from ..common.benchcfg import bench_network
from ..common.errors import ExperimentError
from ..common.rng import RandomState
from ..common.runtable import RunTable
from .scenario import HardwareSpec, LoadSpec, RunSpec, Scenario, expand

__all__ = [
    "PRESETS",
    "modeled_energy_j",
    "preset_scenarios",
    "run_scenario",
    "run_scenarios",
]


def modeled_energy_j(steps: int, n_neurons: int) -> float:
    """Modeled hardware energy for ``steps`` time steps of ``n_neurons``.

    Scales the paper's measured average neuron-circuit power (Table 1 of
    ``docs/hardware.md``; ``repro.hardware.power.PAPER_POWER_REPORT``)
    by the circuit's 10 ns step — the energy this run's simulated spike
    traffic would have cost on the accelerator, *not* the CPU joules of
    the simulation.
    """
    from ..hardware.neuron_circuit import NeuronCircuitConfig
    from ..hardware.power import PAPER_POWER_REPORT

    per_neuron_step = (PAPER_POWER_REPORT["avg_power_w"]
                       * NeuronCircuitConfig().step_ns * 1e-9)
    return per_neuron_step * float(steps) * float(n_neurons)


class _HarnessContext:
    """Caches shared across the cells of one harness invocation."""

    def __init__(self, timer=None):
        self.timer = time.perf_counter if timer is None else timer
        self._networks: dict = {}
        self._workloads: dict = {}

    def network(self, sizes: tuple, seed: int):
        key = (tuple(sizes), seed)
        if key not in self._networks:
            self._networks[key] = bench_network(sizes=tuple(sizes),
                                                seed=seed)
        return self._networks[key]

    def workload(self, name: str, channels_hint: int, seed: int,
                 density: float | None = None):
        from ..serve.workloads import make_workload

        channels = channels_hint if name == "synthetic" else None
        if "synthetic" not in name.split("+"):
            density = None  # only synthetic components carry a density
        key = (name, seed, channels, density)
        if key not in self._workloads:
            self._workloads[key] = make_workload(name, channels=channels,
                                                 seed=seed, density=density)
        return self._workloads[key]


def _run_seed(spec: RunSpec) -> int:
    """Per-run derived seed: a pure function of (scenario seed, run id)."""
    return int(RandomState(spec.seed).child(spec.run_id).integers(2 ** 31))


# -- the runner --------------------------------------------------------------

def _realize(hardware: HardwareSpec, net):
    """The crossbar realization of ``net`` under one hardware spec."""
    from ..hardware import HardwareProfile

    return HardwareProfile.create(
        bits=hardware.bits, variation=hardware.variation,
        seed=hardware.seed).build(net)


def _run_load(spec: RunSpec, ctx: _HarnessContext) -> dict:
    """One open-loop cell: a :class:`~repro.serve.server.ModelServer`
    for the ``serving`` and ``chaos`` kinds, a
    :class:`~repro.serve.fleet.Fleet` (optionally with a canary
    generation deployed at the scenario's ``canary_weight``) for
    ``fleet``.

    A chaos cell is the serving run under an installed fault plan seeded
    from the run seed — the injected schedule is as reproducible as the
    arrival process.  A fleet cell returns the fleet-wide aggregate
    measurement, with the per-tenant SLO measurements under the
    ``"__tenants__"`` key — :func:`run_scenarios` appends those as their
    own rows (``run_id`` suffixed ``+<tenant>``, tenant identity column
    filled).
    """
    from ..common import faults as _faults
    from ..serve import Fleet, ModelServer, TenantQuota
    from ..serve.loadgen import TenantLoad, open_loop

    scenario = spec.scenario
    run_seed = _run_seed(spec)
    # spike_density reaches the run through the workload itself:
    # ctx.workload builds synthetic components at the scenario's density.
    workload = ctx.workload(spec.workload, scenario.sizes[0],
                            seed=spec.seed,
                            density=scenario.spike_density)
    sizes = (workload.channels,) + tuple(scenario.sizes[1:])
    net = ctx.network(sizes, seed=0)
    settings = dict(
        precision=spec.precision, max_batch=scenario.max_batch,
        max_wait_ms=scenario.max_wait_ms,
        queue_limit=scenario.queue_limit,
        hardware=(None if spec.hardware is None
                  else _realize(spec.hardware, net)),
        shadow=spec.hardware.shadow if spec.hardware else False,
        request_ttl_ms=scenario.request_ttl_ms,
        session_ttl_s=scenario.session_ttl_s)
    fleet = spec.kind == "fleet"
    mix = None
    if fleet:
        target = Fleet(net, replicas=scenario.replicas, seed=run_seed,
                       **settings)
        mix = tuple(
            TenantLoad(
                tenant.id, share=tenant.share, sessions=tenant.sessions,
                quota=(TenantQuota(rate_rps=tenant.quota_rps,
                                   burst=tenant.burst,
                                   max_pending=tenant.max_pending)
                       if (tenant.quota_rps is not None
                           or tenant.max_pending is not None) else None))
            for tenant in scenario.tenants)
    else:
        target = ModelServer(net, **settings)
    plan = (_faults.FaultPlan(scenario.faults, seed=run_seed)
            if spec.kind == "chaos" else None)
    try:
        if fleet and scenario.canary_weight:
            canary = scenario.canary_hardware
            target.deploy_canary(
                weight=scenario.canary_weight,
                hardware=None if canary is None else _realize(canary, net),
                shadow=canary is not None and canary.shadow)
        with (_faults.active(plan) if plan is not None
              else contextlib.nullcontext()):
            report = open_loop(
                target, tenants=mix, sessions=scenario.sessions,
                requests=spec.load.requests,
                chunk_steps=scenario.chunk_steps,
                rate_rps=spec.load.rate_rps, rng=run_seed,
                workload=workload, timer=ctx.timer)
    finally:
        target.close()
    if not fleet:
        return _serving_measurement(report, spec.load.requests, sizes)
    measurement = _serving_measurement(report.aggregate,
                                       spec.load.requests, sizes)
    measurement.update(
        replicas=scenario.replicas,
        canary_weight=scenario.canary_weight,
        canary_share=report.canary_share,
        quota_rejected=sum(report.quota_rejected.values()),
        misroutes=report.misroutes)
    tenant_rows = []
    for tenant in scenario.tenants:
        tenant_report = report.tenants[tenant.id]
        tenant_measurement = _serving_measurement(
            tenant_report, tenant_report.submitted, sizes)
        tenant_measurement["quota_rejected"] = \
            report.quota_rejected.get(tenant.id, 0)
        tenant_rows.append((tenant.id, tenant_measurement))
    measurement["__tenants__"] = tenant_rows
    return measurement


def _serving_measurement(report, requests: int, sizes) -> dict:
    """A ``ServingReport`` flattened into run-table measurement cells."""
    latency = report.latency_ms
    steps_served = int(round(report.steps_per_s * report.duration_s))
    return {
        "requests": requests,
        "completed": report.completed,
        "rejected": report.rejected,
        "ticks": report.ticks,
        "duration_s": report.duration_s,
        "throughput_rps": report.throughput_rps,
        "mean_batch": report.mean_batch,
        "steps_per_s": report.steps_per_s,
        "p50_ms": latency["p50"],
        "p95_ms": latency["p95"],
        "p99_ms": latency["p99"],
        "mean_ms": latency["mean"],
        "max_ms": latency["max"],
        "divergence": report.divergence,
        "energy_j": modeled_energy_j(steps_served, sum(sizes[1:])),
        "faults_injected": report.faults_injected,
        "requests_retried": report.requests_retried,
        "requests_expired": report.requests_expired,
        "requests_failed": report.requests_failed,
        "recovery_p99_ms": report.recovery_p99_ms,
        "availability": report.availability,
        "queue_wait_p95_ms": report.queue_wait_p95_ms,
        "tick_compute_p95_ms": report.tick_compute_p95_ms,
    }


# -- the harness -------------------------------------------------------------

def run_scenarios(scenarios, table: RunTable | None = None,
                  timer=None, log=None, trace_dir=None) -> RunTable:
    """Expand and execute ``scenarios``; return the filled run table.

    ``table`` lets callers accumulate several invocations into one
    artifact; ``timer`` replaces the wall clock (tests); ``log`` is an
    optional ``print``-like progress callback.

    ``trace_dir`` switches telemetry on: every run executes under a
    fresh :class:`repro.obs.Telemetry` bundle on the harness clock, and
    exports ``<run_id>.trace.jsonl`` (the JSONL trace) plus
    ``<run_id>.prom`` (the Prometheus metrics snapshot) into that
    directory — the per-run artifacts next to ``run_table.csv``.  With
    the default ``None`` no telemetry is installed and runs measure
    exactly as before (the overhead gate in ``tools/gates.py``
    compares the two modes).
    """
    table = RunTable() if table is None else table
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
    ctx = _HarnessContext(timer=timer)
    for scenario in scenarios:
        if not isinstance(scenario, Scenario):
            raise ExperimentError(
                f"run_scenarios expects Scenario objects, "
                f"got {type(scenario).__name__}")
        for spec in expand(scenario):
            telemetry = (None if trace_dir is None
                         else _obs.Telemetry(clock=ctx.timer))
            with _obs.active(telemetry):
                measurement = _run_load(spec, ctx)
            if telemetry is not None:
                slug = spec.run_id.replace("/", "__")
                telemetry.tracer.write_jsonl(
                    trace_dir / f"{slug}.trace.jsonl")
                (trace_dir / f"{slug}.prom").write_text(
                    telemetry.metrics.render_prometheus(),
                    encoding="utf-8")
            # A fleet cell carries per-tenant SLO measurements in a
            # side channel; they become their own rows below, with
            # the same identity cells plus the tenant column.
            tenant_rows = measurement.pop("__tenants__", ())
            identity = dict(
                scenario=scenario.name,
                kind=spec.kind,
                engine=spec.engine,
                precision=spec.precision,
                hardware=spec.hardware_label,
                hw_bits=(None if spec.hardware is None
                         else spec.hardware.bits),
                hw_variation=(None if spec.hardware is None
                              else spec.hardware.variation),
                workload=spec.workload,
                load=spec.load.id,
                rate_rps=spec.load.rate_rps,
                repetition=spec.repetition,
                seed=_run_seed(spec),
            )
            row = table.append(run_id=spec.run_id, **identity,
                               **measurement)
            if log is not None:
                log(_render_row(row))
            for tenant_id, tenant_measurement in tenant_rows:
                tenant_row = table.append(
                    run_id=f"{spec.run_id}+{tenant_id}",
                    tenant=tenant_id, **identity,
                    **tenant_measurement)
                if log is not None:
                    log(_render_row(tenant_row))
    return table


def run_scenario(scenario: Scenario, table: RunTable | None = None,
                 timer=None, log=None, trace_dir=None) -> RunTable:
    return run_scenarios([scenario], table=table, timer=timer, log=log,
                         trace_dir=trace_dir)


def _render_row(row: dict) -> str:
    if row["kind"] == "fleet":
        scope = row["tenant"] or "fleet"
        canary = ("" if row["canary_share"] is None
                  else f"  canary {row['canary_share']:.3f}")
        return (f"{row['run_id']:<56} {row['throughput_rps']:9.1f} rps  "
                f"[{scope}] rejected {row['rejected']} "
                f"(quota {row['quota_rejected']})  "
                f"avail {row['availability']:.4f}{canary}")
    if row["kind"] == "chaos":
        return (f"{row['run_id']:<56} {row['throughput_rps']:9.1f} rps  "
                f"avail {row['availability']:.4f}  "
                f"faults {row['faults_injected']}  "
                f"retried {row['requests_retried']}  "
                f"expired {row['requests_expired']}")
    return (f"{row['run_id']:<56} {row['throughput_rps']:9.1f} rps  "
            f"p95 {row['p95_ms'] if row['p95_ms'] is not None else 'n/a'}"
            f" ms  rejected {row['rejected']}")


# -- canonical scenario grids ------------------------------------------------

#: The three offered-load points of the serving grid: latency floor,
#: throughput plateau, backpressure.  ``perfbench``'s ``serve`` workload
#: offers the first.
SERVING_LOADS = (
    LoadSpec("light", 300.0, 300),
    LoadSpec("heavy", 4000.0, 800),
    LoadSpec("overload", 20000.0, 1200),
)


def serving_scenarios(loads: tuple = SERVING_LOADS) -> list:
    """The serving grid: 4 server configs x 3 loads.

    The first scenario's first cell (fused float64, ideal weights) is
    the ``perfbench`` ``serve`` operating point.
    """
    common = dict(kind="serving", workloads=("synthetic",), loads=loads,
                  sessions=32, chunk_steps=10, max_batch=16,
                  max_wait_ms=5.0, queue_limit=128, seed=7)
    return [
        Scenario(name="serving", engines=("fused",),
                 precisions=("float64", "float32"), **common),
        Scenario(name="serving-hardware",
                 hardware=(HardwareSpec(bits=4, variation=0.1, seed=7),),
                 **common),
        Scenario(name="serving-shadow",
                 hardware=(HardwareSpec(bits=4, variation=0.1, seed=7,
                                        shadow=True),),
                 **common),
    ]


def smoke_scenarios() -> list:
    """The CI seconds-scale grid, tiny shapes.

    The fused engine x 2 workloads (synthetic + a real sensor workload,
    DVS) x 1 repetition, plus a speech+synthetic mix cell so a mixed
    arrival stream stays exercised.
    """
    smoke_load = (LoadSpec("smoke", 500.0, 40),)
    return [
        Scenario(name="smoke-serving", kind="serving",
                 workloads=("synthetic", "dvs"), loads=smoke_load,
                 sizes=(700, 32, 16), sessions=8, chunk_steps=8),
        Scenario(name="smoke-serving-mix", kind="serving",
                 workloads=("speech+synthetic",), loads=smoke_load,
                 sizes=(700, 32, 16), sessions=8, chunk_steps=8),
    ]


def chaos_scenarios() -> list:
    """The chaos grid: open-loop serving under seeded fault schedules.

    Each scenario exercises one rung of the degradation ladder
    (``docs/robustness.md``): per-request isolation + whole-tick retry,
    hardware->ideal weight fallback, and the shadow-path circuit
    breaker.  Fault schedules derive from the per-run seed, so a chaos
    row is exactly as reproducible as a clean serving row.
    """
    chaos_load = (LoadSpec("steady", 500.0, 240),)
    common = dict(kind="chaos", loads=chaos_load, sizes=(700, 32, 16),
                  sessions=8, chunk_steps=8, max_batch=8,
                  queue_limit=64, seed=7)
    return [
        # Poisoned chunks fail in isolation while innocent batch-mates
        # complete via the retry path; two whole ticks also fail.
        Scenario(name="chaos-isolation",
                 faults=({"site": "serve.request.raise",
                          "probability": 0.02},
                         {"site": "serve.tick.raise", "nth": (3, 11)}),
                 request_ttl_ms=250.0, session_ttl_s=60.0, **common),
        # Hardware weight reads fail intermittently: chunks are served
        # degraded on ideal weights instead of erroring.
        Scenario(name="chaos-hw-fallback",
                 hardware=(HardwareSpec(bits=4, variation=0.1, seed=7),),
                 faults=({"site": "hw.weights.stale",
                          "probability": 0.1},),
                 **common),
        # The shadow path raises until its circuit breaker trips; the
        # primary path must keep answering throughout.
        Scenario(name="chaos-shadow-breaker",
                 hardware=(HardwareSpec(bits=4, variation=0.1, seed=7,
                                        shadow=True),),
                 faults=({"site": "serve.shadow.raise",
                          "nth": (1, 2, 3)},),
                 **common),
    ]


def fleet_scenarios() -> list:
    """The fleet grid: a 2-replica multi-tenant mix with a canary split.

    One cell measures everything the fleet layer adds: a hot tenant
    offered 3x the cold tenant's traffic but capped by a token-bucket
    quota (isolation shows up as ``quota_rejected`` on the hot tenant's
    row and a clean cold-tenant row), plus a same-weights canary
    generation taking 25% of new sessions (``canary_share``).  Each cell
    emits the fleet-wide aggregate row and one per-tenant SLO row
    (``run_id`` suffixed ``+hot`` / ``+cold``).
    """
    fleet_load = (LoadSpec("mixed", 800.0, 400),)
    return [
        Scenario(name="fleet-mixed", kind="fleet", loads=fleet_load,
                 sizes=(700, 32, 16), replicas=2, chunk_steps=8,
                 max_batch=8, queue_limit=64, canary_weight=0.25,
                 tenants=({"id": "hot", "share": 3.0, "quota_rps": 400.0,
                           "burst": 16, "max_pending": 24, "sessions": 6},
                          {"id": "cold", "share": 1.0, "sessions": 4}),
                 seed=7),
    ]


def full_scenarios() -> list:
    return serving_scenarios() + chaos_scenarios() + fleet_scenarios()


PRESETS = {
    "smoke": smoke_scenarios,
    "serving": serving_scenarios,
    "chaos": chaos_scenarios,
    "fleet": fleet_scenarios,
    "full": full_scenarios,
}


def preset_scenarios(name: str, **kwargs) -> list:
    if name not in PRESETS:
        raise ExperimentError(f"unknown preset {name!r}; "
                              f"known: {sorted(PRESETS)}")
    return PRESETS[name](**kwargs)
