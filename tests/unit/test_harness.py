"""Scenario-harness guarantees: determinism, CSV round-trip, and the
contract ``perfbench`` holds with the code it imports.

The contracts pinned here (see ``docs/experiments.md``):

* **Determinism** — the same scenario list with the same seeds produces a
  byte-identical run table (row-for-row) once wall-clock is removed via
  the injectable timer; a changed seed changes only measurement columns,
  never the grid (run ids, order, factor columns).
* **Round-trip** — ``table -> CSV -> table`` is lossless.
* **Benchmark contract** — every ``repro`` name ``perfbench/*.py``
  imports exists, and the serving grid still holds the ``serve``
  workload's operating point.
"""

import ast
import importlib
import pathlib

import numpy as np
import pytest

from repro.common.errors import ExperimentError
from repro.common.runtable import RUN_TABLE_COLUMNS, RunTable
from repro.experiments.harness import (
    PRESETS,
    SERVING_LOADS,
    modeled_energy_j,
    preset_scenarios,
    run_scenario,
    run_scenarios,
    serving_scenarios,
    smoke_scenarios,
)
from repro.experiments.scenario import (
    KINDS,
    HardwareSpec,
    LoadSpec,
    Scenario,
    expand,
)


class FakeTimer:
    """Deterministic monotonic clock: every call advances 1 ms."""

    def __init__(self, dt=1e-3):
        self.now = 0.0
        self.dt = dt

    def __call__(self):
        self.now += self.dt
        return self.now


def tiny_scenarios(seed=0):
    """A fast serving grid: ideal and crossbar-realized weights."""
    return [
        Scenario(name="t-serving", kind="serving",
                 loads=(LoadSpec("smoke", 400.0, 12),),
                 sizes=(24, 16, 8), sessions=3, chunk_steps=4,
                 repetitions=2, seed=seed),
        Scenario(name="t-serving-hw", kind="serving",
                 hardware=(HardwareSpec(bits=3, variation=0.2, seed=5),),
                 loads=(LoadSpec("smoke", 400.0, 12),),
                 sizes=(24, 16, 8), sessions=3, chunk_steps=4, seed=seed),
    ]


class TestRunTable:
    def test_unknown_column_rejected(self):
        table = RunTable()
        with pytest.raises(ExperimentError, match="unknown run-table"):
            table.append(run_id="x", cpu_ms=1.0)

    def test_duplicate_run_id_rejected(self):
        table = RunTable()
        table.append(run_id="x", kind="serving")
        with pytest.raises(ExperimentError, match="duplicate run_id"):
            table.append(run_id="x", kind="serving")

    def test_csv_round_trip_preserves_types(self):
        table = RunTable()
        table.append(run_id="a", kind="serving", hw_bits=4,
                     rate_rps=300.0, duration_s=0.123456789,
                     divergence=None, workload="speech+synthetic")
        text = table.render_csv()
        back = RunTable.from_csv_text(text)
        assert back.rows == table.rows
        assert back.render_csv() == text

    def test_header_mismatch_rejected(self):
        with pytest.raises(ExperimentError, match="header"):
            RunTable.from_csv_text("a,b,c\n1,2,3\n")

    def test_numpy_scalar_cells_render_as_builtin_floats(self):
        # np.float64 is a float subclass whose repr under numpy 2.x is
        # 'np.float64(...)'; a cell like that would read back as a string
        # and corrupt every JSON regenerated from the table.
        table = RunTable()
        table.append(run_id="a", kind="serving",
                     duration_s=np.float64(0.08208),
                     throughput_rps=np.float64(4678.371),
                     steps_per_s=np.float64(46783.7))
        text = table.render_csv()
        assert "np.float64" not in text
        back = RunTable.from_csv_text(text)
        assert back.rows[0]["duration_s"] == pytest.approx(0.08208)
        assert isinstance(back.rows[0]["throughput_rps"], float)

    def test_corrupt_numeric_cell_fails_loudly(self):
        table = RunTable()
        table.append(run_id="a", kind="serving", duration_s=0.5)
        text = table.render_csv().replace("0.5", "np.float64(0.5)")
        with pytest.raises(ExperimentError, match="numeric"):
            RunTable.from_csv_text(text)


class TestDeterminism:
    def test_same_seed_identical_table(self):
        a = run_scenarios(tiny_scenarios(seed=3), timer=FakeTimer())
        b = run_scenarios(tiny_scenarios(seed=3), timer=FakeTimer())
        assert a.render_csv() == b.render_csv()

    def test_changed_seed_changes_only_measurements(self):
        a = run_scenarios(tiny_scenarios(seed=3), timer=FakeTimer())
        b = run_scenarios(tiny_scenarios(seed=4), timer=FakeTimer())
        id_columns = RUN_TABLE_COLUMNS[:RUN_TABLE_COLUMNS.index("seed")]
        for row_a, row_b in zip(a.rows, b.rows):
            for column in id_columns:
                assert row_a[column] == row_b[column], column
        assert [r["run_id"] for r in a.rows] \
            == [r["run_id"] for r in b.rows]
        # the seed column and at least one measurement moved
        assert [r["seed"] for r in a.rows] != [r["seed"] for r in b.rows]
        serving_a = [r for r in a.rows if r["kind"] == "serving"]
        serving_b = [r for r in b.rows if r["kind"] == "serving"]
        assert any(ra["duration_s"] != rb["duration_s"]
                   or ra["ticks"] != rb["ticks"]
                   for ra, rb in zip(serving_a, serving_b))

    def test_expansion_independent_of_execution(self):
        scenario = tiny_scenarios(seed=3)[0]
        before = [spec.run_id for spec in expand(scenario)]
        run_scenario(scenario, timer=FakeTimer())
        assert [spec.run_id for spec in expand(scenario)] == before


class TestServingDensity:
    """``Scenario.spike_density`` reaches the streamed synthetic chunks
    (it used to be silently dropped once a workload object was built)."""

    def test_context_builds_synthetic_at_scenario_density(self):
        from repro.experiments.harness import _HarnessContext

        ctx = _HarnessContext()
        dense = ctx.workload("synthetic", 64, seed=0, density=0.25)
        assert dense.density == 0.25
        sparse = ctx.workload("synthetic", 64, seed=0, density=0.03)
        assert sparse is not dense
        assert sparse.density == 0.03

    def test_density_reaches_synthetic_mix_components(self):
        from repro.experiments.harness import _HarnessContext

        mix = _HarnessContext().workload("speech+synthetic", 700, seed=0,
                                         density=0.25)
        densities = [w.density for w in mix.workloads
                     if w.name == "synthetic"]
        assert densities == [0.25]

    def test_sensor_workloads_share_cache_across_densities(self):
        from repro.experiments.harness import _HarnessContext

        ctx = _HarnessContext()
        assert ctx.workload("dvs", 64, seed=0, density=0.25) \
            is ctx.workload("dvs", 64, seed=0, density=0.03)


class TestEnergyModel:
    def test_scales_with_steps_and_neurons(self):
        one = modeled_energy_j(1, 1)
        assert one == pytest.approx(1.11e-11, rel=1e-6)
        assert modeled_energy_j(300, 1) == pytest.approx(3.33e-9, rel=1e-2)
        assert modeled_energy_j(10, 7) == pytest.approx(70 * one)


class TestTableRoundTrip:
    """table -> CSV -> table is lossless over every serving config."""

    @pytest.fixture(scope="class")
    def table(self):
        common = dict(kind="serving", loads=(LoadSpec("light", 400.0, 10),),
                      sizes=(24, 16, 8), sessions=3, chunk_steps=4)
        scenarios = [
            Scenario(name="serving", precisions=("float64", "float32"),
                     **common),
            Scenario(name="serving-hardware",
                     hardware=(HardwareSpec(4, 0.1, 7),), **common),
            Scenario(name="serving-shadow",
                     hardware=(HardwareSpec(4, 0.1, 7, shadow=True),),
                     **common),
        ]
        return run_scenarios(scenarios, timer=FakeTimer())

    def test_csv_round_trip_lossless(self, table):
        back = RunTable.from_csv_text(table.render_csv())
        assert back.rows == table.rows
        assert len(back) == 4
        (shadow,) = [row for row in back.rows
                     if row["scenario"] == "serving-shadow"]
        assert shadow["divergence"] is not None


class TestPresets:
    def test_presets_expand_deterministically(self):
        for name, factory in PRESETS.items():
            ids = [spec.run_id for scenario in factory()
                   for spec in expand(scenario)]
            assert ids == [spec.run_id for scenario in factory()
                           for spec in expand(scenario)], name
            assert len(ids) == len(set(ids)), f"{name}: duplicate run ids"

    def test_smoke_grid_is_the_ci_acceptance_grid(self):
        """Fused engine x 2 workloads x 1 rep, incl. a non-SHD workload."""
        serving = [spec for scenario in smoke_scenarios()
                   for spec in expand(scenario)]
        assert {spec.kind for spec in serving} == {"serving"}
        engines = {spec.engine for spec in serving}
        workloads = {spec.workload for spec in serving}
        assert engines == {"fused"}
        assert "dvs" in workloads          # a non-SHD sensor workload
        assert any("+" in w for w in workloads)  # and a mixed stream
        assert all(spec.repetition == 0 for spec in serving)

    def test_timing_presets_are_retired(self):
        """Every preset measures service levels; kernel timing is the
        repository benchmark's job."""
        assert not {"throughput", "aware"} & set(PRESETS)
        kinds = {scenario.kind for factory in PRESETS.values()
                 for scenario in factory()}
        assert kinds <= set(KINDS)
        with pytest.raises(ExperimentError, match="unknown preset"):
            preset_scenarios("throughput")

    def test_committed_run_table_holds_service_level_rows_only(self):
        """The checked-in table parses under the current schema and
        carries only the kinds the harness still runs."""
        path = pathlib.Path(__file__).resolve().parents[2] / "run_table.csv"
        header = path.read_text("utf-8").splitlines()[0]
        assert tuple(header.split(",")) == RUN_TABLE_COLUMNS
        for dropped in ("workers", "rounds", "min_ms", "accuracy",
                        "accuracy_std"):
            assert dropped not in RUN_TABLE_COLUMNS
        table = RunTable.read_csv(path)
        assert {row["kind"] for row in table.rows} == set(KINDS)


class TestChaosValidation:
    BASE = dict(loads=(LoadSpec("l", 400.0, 8),), sizes=(24, 16, 8),
                sessions=2, chunk_steps=4)
    RULE = {"site": "serve.tick.raise", "nth": (1,)}

    def test_chaos_needs_faults(self):
        with pytest.raises(ExperimentError, match="at least one fault"):
            Scenario(name="c", kind="chaos", **self.BASE)

    def test_faults_belong_to_chaos(self):
        with pytest.raises(ExperimentError, match="kind='chaos'"):
            Scenario(name="c", kind="serving", faults=(self.RULE,),
                     **self.BASE)

    def test_unknown_site_rejected(self):
        with pytest.raises(ExperimentError, match="unknown fault site"):
            Scenario(name="c", kind="chaos",
                     faults=({"site": "no.such.site", "nth": (1,)},),
                     **self.BASE)

    def test_malformed_rule_rejected(self):
        with pytest.raises(ExperimentError):
            Scenario(name="c", kind="chaos",
                     faults=({"site": "serve.tick.raise"},),  # never fires
                     **self.BASE)

    def test_ttl_knobs_must_be_positive(self):
        with pytest.raises(ExperimentError, match="> 0"):
            Scenario(name="c", kind="chaos", faults=(self.RULE,),
                     request_ttl_ms=0.0, **self.BASE)

    def test_chaos_expands_like_serving(self):
        scenario = Scenario(name="c", kind="chaos", faults=(self.RULE,),
                            repetitions=2, **self.BASE)
        specs = expand(scenario)
        assert len(specs) == 2
        assert all(spec.kind == "chaos" for spec in specs)
        assert len({spec.run_id for spec in specs}) == 2


class TestChaosRuns:
    @staticmethod
    def scenario(seed=3):
        return Scenario(
            name="t-chaos", kind="chaos",
            loads=(LoadSpec("smoke", 400.0, 16),),
            sizes=(24, 16, 8), sessions=3, chunk_steps=4,
            request_ttl_ms=250.0, session_ttl_s=60.0,
            faults=({"site": "serve.request.raise", "probability": 0.05},
                    {"site": "serve.tick.raise", "nth": (2,)}),
            seed=seed)

    @pytest.fixture(scope="class")
    def table(self):
        return run_scenarios([self.scenario()], timer=FakeTimer())

    def test_every_request_is_accounted_for(self, table):
        (row,) = table.by_kind("chaos")
        resolved = (row["completed"] + row["requests_failed"]
                    + row["requests_expired"] + row["rejected"])
        assert resolved == row["requests"] == 16
        # The nth=(2,) tick fault is guaranteed to fire (and the whole
        # tick to retry); failures only come from injected request
        # poisoning, never an unrecovered server error.
        assert row["faults_injected"] >= 1
        assert row["requests_retried"] >= 1
        assert row["requests_failed"] <= row["faults_injected"]
        denominator = (row["completed"] + row["requests_failed"]
                       + row["requests_expired"])
        assert row["availability"] == round(
            row["completed"] / denominator, 6)

    def test_chaos_rows_round_trip_through_csv(self, table):
        back = RunTable.from_csv_text(table.render_csv())
        assert back.rows == table.rows

    def test_same_seed_reproduces_the_fault_schedule(self, table):
        again = run_scenarios([self.scenario()], timer=FakeTimer())
        assert again.rows == table.rows


class TestPerfbenchContract:
    """``perfbench/`` is the repository benchmark and is never edited
    with the code it measures, so the names and values it imports are
    pinned here, where tier-1 sees a break before the benchmark does."""

    PERFBENCH = pathlib.Path(__file__).resolve().parents[2] / "perfbench"

    def imports(self):
        for path in sorted(self.PERFBENCH.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.ImportFrom) and node.module \
                        and node.module.split(".")[0] == "repro":
                    for alias in node.names:
                        yield path.name, node.module, alias.name

    @staticmethod
    def resolves(module, name):
        if hasattr(importlib.import_module(module), name):
            return True
        try:
            importlib.import_module(f"{module}.{name}")  # a submodule
        except ImportError:
            return False
        return True

    def test_every_repro_import_resolves(self):
        found = list(self.imports())
        assert {module for _, module, _ in found} >= {
            "repro.experiments.harness", "repro.common.benchcfg"}
        broken = [f"{path}: from {module} import {name}"
                  for path, module, name in found
                  if not self.resolves(module, name)]
        assert broken == []

    def test_serving_grid_holds_the_serve_operating_point(self):
        scenario = serving_scenarios()[0]
        assert scenario.kind == "serving"
        assert scenario.sessions == 32
        assert scenario.chunk_steps == 10
        assert scenario.max_batch == 16
        assert scenario.max_wait_ms == 5.0
        assert scenario.queue_limit == 128
        assert scenario.engines[0] == "fused"
        assert scenario.precisions[0] == "float64"
        assert scenario.hardware[0] is None
        assert scenario.workloads[0] == "synthetic"
        assert tuple(scenario.sizes) == (700, 128, 128, 20)
        assert scenario.spike_density == 0.03
        assert SERVING_LOADS[0].rate_rps == 300.0
        assert scenario.loads[0] == SERVING_LOADS[0]
