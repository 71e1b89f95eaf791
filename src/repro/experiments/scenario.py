"""Declarative scenario schema: a factor grid that expands into runs.

A :class:`Scenario` names one *kind* of service-level measurement
(serving, chaos, fleet) and the factor levels to sweep — engine x
precision x hardware realization x workload x load point — plus
repetitions and a seed.  :func:`expand` turns it into
a deterministic, ordered tuple of :class:`RunSpec` grid cells: the same
scenario always expands to the same run ids in the same order,
independent of measurement (so a changed seed changes measurement
columns in the run table, never the grid).

Validation is eager and loud: every factor value is checked at
construction against the domains the execution layer actually supports
(:data:`KINDS`, :data:`ENGINES`, :data:`PRECISIONS`, the workload
registry, the server's hardware/engine compatibility rules), raising
:class:`~repro.common.errors.ExperimentError` with the offending value
— a typo in a scenario definition must fail before any compute runs.

Execution lives in :mod:`repro.experiments.harness`; this module is
pure data and is what the property tests exercise.
"""

from __future__ import annotations

import dataclasses
import itertools

from ..common.benchcfg import (
    BENCH_SIZES,
    BENCH_SPIKE_DENSITY,
)
from ..common.errors import ExperimentError
from ..common.faults import KNOWN_SITES, FaultRule

__all__ = [
    "KINDS",
    "ENGINES",
    "PRECISIONS",
    "HardwareSpec",
    "LoadSpec",
    "RunSpec",
    "Scenario",
    "TenantSpec",
    "expand",
]

#: Every kind drives a ModelServer with an open-loop arrival process.
#: ``chaos`` is serving under an injected fault schedule — same factors,
#: same measurement columns, plus the robustness counters.  ``fleet``
#: drives a multi-replica :class:`~repro.serve.fleet.Fleet` with a
#: multi-tenant mix and additionally emits one per-tenant SLO row per
#: cell (``run_id`` suffixed ``+<tenant>``).
KINDS = ("serving", "chaos", "fleet")
#: Every stream runs the fused engine.
ENGINES = ("fused",)
PRECISIONS = ("float64", "float32")


@dataclasses.dataclass(frozen=True)
class HardwareSpec:
    """One hardware-realization factor level (a Fig. 8 operating point)."""

    bits: int = 4
    variation: float = 0.1
    seed: int = 13
    shadow: bool = False

    def __post_init__(self):
        if self.bits < 2:
            raise ExperimentError(
                f"hardware bits must be >= 2, got {self.bits}")
        if self.variation < 0:
            raise ExperimentError(
                f"hardware variation must be >= 0, got {self.variation}")

    @property
    def label(self) -> str:
        prefix = "shadow" if self.shadow else "hw"
        return f"{prefix}{self.bits}b{round(self.variation * 100)}"


@dataclasses.dataclass(frozen=True)
class LoadSpec:
    """One offered-load factor level of a serving scenario."""

    id: str
    rate_rps: float
    requests: int

    def __post_init__(self):
        if not self.id:
            raise ExperimentError("a load point needs a non-empty id")
        if self.rate_rps <= 0:
            raise ExperimentError(
                f"load {self.id!r}: rate_rps must be > 0, "
                f"got {self.rate_rps}")
        if self.requests < 1:
            raise ExperimentError(
                f"load {self.id!r}: requests must be >= 1, "
                f"got {self.requests}")


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant of a ``fleet`` scenario: its traffic share and quota.

    ``share`` weights the per-request tenant draw; ``quota_rps`` /
    ``burst`` / ``max_pending`` become the tenant's
    :class:`~repro.serve.fleet.TenantQuota` (``None`` rate = unlimited);
    ``sessions`` is the tenant's concurrent stream count.
    """

    id: str
    share: float = 1.0
    quota_rps: float | None = None
    burst: int = 8
    max_pending: int | None = None
    sessions: int = 4

    def __post_init__(self):
        if not self.id or any(ch in self.id for ch in ",\n +"):
            raise ExperimentError(
                f"tenant id {self.id!r} must be a non-empty plain slug "
                "(no spaces, commas, or '+' — it becomes run-table cells "
                "and run-id suffixes)")
        if self.id.isdigit():
            raise ExperimentError(
                f"tenant id {self.id!r} must not be purely numeric "
                "(the run-table tenant column is a string cell)")
        if self.share <= 0:
            raise ExperimentError(
                f"tenant {self.id!r}: share must be > 0, got {self.share}")
        if self.quota_rps is not None and self.quota_rps <= 0:
            raise ExperimentError(
                f"tenant {self.id!r}: quota_rps must be > 0, "
                f"got {self.quota_rps}")
        if self.burst < 1:
            raise ExperimentError(
                f"tenant {self.id!r}: burst must be >= 1, got {self.burst}")
        if self.max_pending is not None and self.max_pending < 1:
            raise ExperimentError(
                f"tenant {self.id!r}: max_pending must be >= 1, "
                f"got {self.max_pending}")
        if self.sessions < 1:
            raise ExperimentError(
                f"tenant {self.id!r}: sessions must be >= 1, "
                f"got {self.sessions}")


@dataclasses.dataclass(frozen=True)
class RunSpec:
    """One expanded grid cell: everything the harness needs to run it."""

    run_id: str
    scenario: "Scenario"
    kind: str
    engine: str
    precision: str
    hardware: HardwareSpec | None
    workload: str
    load: LoadSpec
    repetition: int
    seed: int

    @property
    def hardware_label(self) -> str:
        return "ideal" if self.hardware is None else self.hardware.label


def _known_workloads() -> tuple:
    from ..serve.workloads import WORKLOAD_CHANNELS

    return tuple(sorted(WORKLOAD_CHANNELS))


def _check_workload_name(name: str) -> None:
    known = _known_workloads()
    for part in name.split("+"):
        if not part or part not in known:
            raise ExperimentError(
                f"unknown workload {name!r} (component {part!r}); "
                f"known workloads: {list(known)} or 'a+b' mixes")


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A declarative factor grid for one measurement kind.

    Tuple-valued fields are the swept factors; scalar fields are fixed
    knobs shared by every cell of the grid.  Defaults mirror the repo's
    standard bench point (``repro.common.benchcfg``); presets in
    :mod:`repro.experiments.harness` override what they sweep.
    """

    name: str
    kind: str
    # -- swept factors -------------------------------------------------------
    engines: tuple = ("fused",)
    precisions: tuple = ("float64",)
    hardware: tuple = (None,)
    workloads: tuple = ("synthetic",)
    loads: tuple = (None,)
    repetitions: int = 1
    seed: int = 0
    # -- fixed knobs ---------------------------------------------------------
    sizes: tuple = BENCH_SIZES  # layer sizes; sizes[0] is replaced by
                                # the workload's channel width
    sessions: int = 16         # concurrent client streams
    chunk_steps: int = 10      # time steps per chunk
    max_batch: int = 16        # coalescing cap
    max_wait_ms: float = 5.0   # coalescing window
    queue_limit: int = 128     # bounded-queue depth
    spike_density: float = BENCH_SPIKE_DENSITY
    # -- robustness knobs (required for kind="chaos") ------------------------
    faults: tuple = ()              # FaultRule levels (or dicts) to inject
    request_ttl_ms: float | None = None   # per-request deadline (TTL shed)
    session_ttl_s: float | None = None    # idle-session reaping horizon
    # -- fleet knobs (kind="fleet" only) -------------------------------------
    replicas: int = 2               # primary-generation replica count
    tenants: tuple = ()             # TenantSpec levels (default: one tenant)
    canary_weight: float = 0.0      # fraction of new sessions on the canary
    canary_hardware: HardwareSpec | None = None  # canary's realization

    def __post_init__(self):
        coerce = _normalize_factors(self)
        for field, value in coerce.items():
            object.__setattr__(self, field, value)
        self.validate()

    # -- validation ----------------------------------------------------------
    def validate(self) -> None:
        if not self.name:
            raise ExperimentError("a scenario needs a non-empty name")
        if any(ch in self.name for ch in ",\n "):
            raise ExperimentError(
                f"scenario name {self.name!r} must be a plain slug "
                "(no spaces or commas — it becomes run-table cells)")
        if self.kind not in KINDS:
            raise ExperimentError(
                f"scenario {self.name!r}: unknown kind {self.kind!r}; "
                f"must be one of {list(KINDS)}")
        for factor, values in (("engines", self.engines),
                               ("precisions", self.precisions),
                               ("hardware", self.hardware),
                               ("workloads", self.workloads),
                               ("loads", self.loads)):
            if not values:
                raise ExperimentError(
                    f"scenario {self.name!r}: factor {factor} is empty")
        for engine in self.engines:
            if engine not in ENGINES:
                raise ExperimentError(
                    f"scenario {self.name!r}: unknown engine {engine!r}; "
                    f"must be one of {list(ENGINES)}")
        if len(set(self.engines)) != len(self.engines):
            raise ExperimentError(
                f"scenario {self.name!r}: duplicate engine levels")
        for precision in self.precisions:
            if precision not in PRECISIONS:
                raise ExperimentError(
                    f"scenario {self.name!r}: unknown precision "
                    f"{precision!r}; must be one of {list(PRECISIONS)}")
        if len(set(self.precisions)) != len(self.precisions):
            raise ExperimentError(
                f"scenario {self.name!r}: duplicate precision levels")
        labels = [spec.label for spec in self.hardware if spec is not None]
        if len(set(labels)) != len(labels):
            raise ExperimentError(
                f"scenario {self.name!r}: duplicate hardware levels")
        if self.hardware.count(None) > 1:
            raise ExperimentError(
                f"scenario {self.name!r}: duplicate ideal hardware level")
        if any(w is None for w in self.workloads):
            raise ExperimentError(
                f"scenario {self.name!r}: workloads must be named "
                "(default: 'synthetic')")
        if any(load is None for load in self.loads):
            raise ExperimentError(
                f"scenario {self.name!r}: a serving scenario needs "
                "at least one concrete load point "
                "({'id', 'rate_rps', 'requests'})")
        if self.kind == "chaos" and not self.faults:
            raise ExperimentError(
                f"scenario {self.name!r}: a chaos scenario needs at least "
                "one fault rule ({'site': ..., 'probability'|'nth': ...}); "
                "a faultless run is kind='serving'")
        if self.faults and self.kind != "chaos":
            raise ExperimentError(
                f"scenario {self.name!r}: fault rules belong to "
                f"kind='chaos', not {self.kind!r} — measurements under "
                "injected faults must be labelled as such in the run table")
        for rule in self.faults:
            if rule.site not in KNOWN_SITES:
                raise ExperimentError(
                    f"scenario {self.name!r}: unknown fault site "
                    f"{rule.site!r}; known sites: {list(KNOWN_SITES)}")
        if self.kind == "fleet":
            if self.replicas < 1:
                raise ExperimentError(
                    f"scenario {self.name!r}: a fleet needs >= 1 replica, "
                    f"got {self.replicas}")
            if not 0.0 <= self.canary_weight < 1.0:
                raise ExperimentError(
                    f"scenario {self.name!r}: canary_weight must be in "
                    f"[0, 1), got {self.canary_weight}")
            if self.canary_hardware is not None \
                    and self.canary_weight == 0.0:
                raise ExperimentError(
                    f"scenario {self.name!r}: canary_hardware without a "
                    "canary_weight would deploy a generation that gets "
                    "no traffic")
            tenant_ids = [tenant.id for tenant in self.tenants]
            if len(set(tenant_ids)) != len(tenant_ids):
                raise ExperimentError(
                    f"scenario {self.name!r}: duplicate tenant ids "
                    f"{tenant_ids}")
        else:
            if self.tenants:
                raise ExperimentError(
                    f"scenario {self.name!r}: tenants are a fleet factor; "
                    f"kind {self.kind!r} has no admission control")
            if self.canary_weight or self.canary_hardware is not None:
                raise ExperimentError(
                    f"scenario {self.name!r}: canary knobs belong to "
                    f"kind='fleet', not {self.kind!r}")
        for knob, value in (("request_ttl_ms", self.request_ttl_ms),
                            ("session_ttl_s", self.session_ttl_s)):
            if value is not None and not value > 0:
                raise ExperimentError(
                    f"scenario {self.name!r}: {knob} must be > 0, "
                    f"got {value!r}")
        for workload in self.workloads:
            _check_workload_name(workload)
        if len(set(self.workloads)) != len(self.workloads):
            raise ExperimentError(
                f"scenario {self.name!r}: duplicate workload levels")
        load_ids = [load.id for load in self.loads if load is not None]
        if len(set(load_ids)) != len(load_ids):
            raise ExperimentError(
                f"scenario {self.name!r}: duplicate load-point ids")
        if not isinstance(self.repetitions, int) or self.repetitions < 1:
            raise ExperimentError(
                f"scenario {self.name!r}: repetitions must be an int >= 1, "
                f"got {self.repetitions!r}")
        if len(self.sizes) < 2 or any(s < 1 for s in self.sizes):
            raise ExperimentError(
                f"scenario {self.name!r}: sizes needs >= 2 positive "
                f"layer widths, got {self.sizes}")

    @property
    def cells(self) -> int:
        """Grid cells per repetition."""
        return (len(self.engines) * len(self.precisions)
                * len(self.hardware) * len(self.workloads)
                * len(self.loads))


def _normalize_factors(scenario: Scenario) -> dict:
    """Coerce list/dict factor levels to the frozen canonical forms."""
    out = {}
    for field in ("engines", "precisions", "workloads", "sizes"):
        value = getattr(scenario, field)
        if isinstance(value, (str, int)):
            value = (value,)
        out[field] = tuple(value)
    hardware = getattr(scenario, "hardware")
    if hardware is None or isinstance(hardware, (dict, HardwareSpec)):
        hardware = (hardware,)
    out["hardware"] = tuple(
        HardwareSpec(**spec) if isinstance(spec, dict) else spec
        for spec in hardware)
    for spec in out["hardware"]:
        if spec is not None and not isinstance(spec, HardwareSpec):
            raise ExperimentError(
                f"scenario {scenario.name!r}: hardware levels must be "
                f"None, dicts, or HardwareSpec, got {type(spec).__name__}")
    loads = getattr(scenario, "loads")
    if loads is None or isinstance(loads, (dict, LoadSpec)):
        loads = (loads,)
    out["loads"] = tuple(
        LoadSpec(**load) if isinstance(load, dict) else load
        for load in loads)
    for load in out["loads"]:
        if load is not None and not isinstance(load, LoadSpec):
            raise ExperimentError(
                f"scenario {scenario.name!r}: load levels must be None, "
                f"dicts, or LoadSpec, got {type(load).__name__}")
    faults = getattr(scenario, "faults")
    if isinstance(faults, (dict, FaultRule)):
        faults = (faults,)
    try:
        out["faults"] = tuple(
            FaultRule(**rule) if isinstance(rule, dict) else rule
            for rule in faults)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(
            f"scenario {scenario.name!r}: invalid fault rule: {exc}")
    for rule in out["faults"]:
        if not isinstance(rule, FaultRule):
            raise ExperimentError(
                f"scenario {scenario.name!r}: fault levels must be dicts "
                f"or FaultRule, got {type(rule).__name__}")
    tenants = getattr(scenario, "tenants")
    if isinstance(tenants, (dict, TenantSpec)):
        tenants = (tenants,)
    out["tenants"] = tuple(
        TenantSpec(**tenant) if isinstance(tenant, dict) else tenant
        for tenant in tenants)
    for tenant in out["tenants"]:
        if not isinstance(tenant, TenantSpec):
            raise ExperimentError(
                f"scenario {scenario.name!r}: tenants must be dicts or "
                f"TenantSpec, got {type(tenant).__name__}")
    if scenario.kind == "fleet" and not out["tenants"]:
        out["tenants"] = (TenantSpec("t0"),)
    canary_hw = getattr(scenario, "canary_hardware")
    if isinstance(canary_hw, dict):
        canary_hw = HardwareSpec(**canary_hw)
    if canary_hw is not None and not isinstance(canary_hw, HardwareSpec):
        raise ExperimentError(
            f"scenario {scenario.name!r}: canary_hardware must be None, "
            f"a dict, or HardwareSpec, got {type(canary_hw).__name__}")
    out["canary_hardware"] = canary_hw
    return out


def expand(scenario: Scenario) -> tuple:
    """Deterministic grid expansion: one :class:`RunSpec` per cell x rep.

    The factor order is fixed (engine, precision, hardware, workload,
    load, repetition) so the run table's row order — and every
    run id — is a pure function of the scenario definition.
    """
    specs = []
    for engine, precision, hardware, workload, load in \
            itertools.product(scenario.engines, scenario.precisions,
                              scenario.hardware, scenario.workloads,
                              scenario.loads):
        for repetition in range(scenario.repetitions):
            hw_label = "ideal" if hardware is None else hardware.label
            segments = [engine, precision, hw_label, workload, load.id,
                        f"r{repetition}"]
            specs.append(RunSpec(
                run_id=f"{scenario.name}/" + "-".join(segments),
                scenario=scenario, kind=scenario.kind, engine=engine,
                precision=precision, hardware=hardware,
                workload=workload, load=load, repetition=repetition,
                seed=scenario.seed,
            ))
    return tuple(specs)
