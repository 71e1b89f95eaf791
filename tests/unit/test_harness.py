"""Scenario-harness guarantees: determinism, pool reuse, JSON round-trip.

The contracts pinned here (see ``docs/experiments.md``):

* **Determinism** — the same scenario list with the same seeds produces a
  byte-identical run table (row-for-row) once wall-clock is removed via
  the injectable timer; a changed seed changes only measurement columns,
  never the grid (run ids, order, factor columns).
* **Pool reuse** — grid cells that need the same (network, workers) pool
  share one instance through :class:`repro.runtime.pool.PoolCache`.
* **Round-trip** — ``table -> CSV -> table`` is lossless, and the
  ``BENCH_*.json`` views regenerated from the re-read table match the
  in-memory conversion (the ``tools/bench_to_json.py --from-table``
  contract), with the key structure the docs and CI consume.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from repro.common.errors import ExperimentError
from repro.common.runtable import RUN_TABLE_COLUMNS, RunTable
from repro.core import SpikingNetwork
from repro.core.layers import LayerStepRecord
from repro.experiments import benchjson
from repro.experiments.harness import (
    PRESETS,
    modeled_energy_j,
    run_scenario,
    run_scenarios,
    smoke_scenarios,
)
from repro.experiments.scenario import (
    HardwareSpec,
    LoadSpec,
    Scenario,
    expand,
)
from repro.runtime import PoolCache


class FakeTimer:
    """Deterministic monotonic clock: every call advances 1 ms."""

    def __init__(self, dt=1e-3):
        self.now = 0.0
        self.dt = dt

    def __call__(self):
        self.now += self.dt
        return self.now


def tiny_scenarios(seed=0):
    """A fast grid touching timed, accuracy, and serving kinds."""
    return [
        Scenario(name="t-forward", kind="forward",
                 engines=("fused", "step"), sizes=(32, 16, 8), rounds=2,
                 warmup=0, seed=seed),
        Scenario(name="t-variation", kind="variation",
                 hardware=(HardwareSpec(bits=3, variation=0.2, seed=5),),
                 sizes=(24, 16, 8), samples=8, n_seeds=2, rounds=1,
                 warmup=0, seed=seed),
        Scenario(name="t-serving", kind="serving",
                 loads=(LoadSpec("smoke", 400.0, 12),),
                 sizes=(24, 16, 8), sessions=3, chunk_steps=4,
                 repetitions=2, seed=seed),
    ]


class TestRunTable:
    def test_unknown_column_rejected(self):
        table = RunTable()
        with pytest.raises(ExperimentError, match="unknown run-table"):
            table.append(run_id="x", cpu_ms=1.0)

    def test_duplicate_run_id_rejected(self):
        table = RunTable()
        table.append(run_id="x", kind="forward")
        with pytest.raises(ExperimentError, match="duplicate run_id"):
            table.append(run_id="x", kind="forward")

    def test_csv_round_trip_preserves_types(self):
        table = RunTable()
        table.append(run_id="a", kind="serving", workers=2,
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
        scenario = tiny_scenarios(seed=3)[2]
        before = [spec.run_id for spec in expand(scenario)]
        run_scenario(scenario, timer=FakeTimer())
        assert [spec.run_id for spec in expand(scenario)] == before


class TestTimedCells:
    def test_reference_backward_times_only_the_backward(self, monkeypatch):
        """The reference adjoints read each record's derived ``k``; the
        cell builds those traces before its clock starts, so even a
        ``warmup=0`` cell does not charge them to its first round."""
        timer = FakeTimer()
        derived_at = []
        derive = LayerStepRecord.k.fget

        def k(record):
            if record._k is None and record._alpha is not None:
                derived_at.append(timer.now)
            return derive(record)

        monkeypatch.setattr(LayerStepRecord, "k", property(k))
        run_scenario(Scenario(name="backward", kind="backward",
                              engines=("step",), sizes=(32, 16, 8),
                              rounds=2, warmup=0), timer=timer)
        assert len(derived_at) == 2             # one trace per layer
        assert derived_at == [0.0, 0.0]         # before the first reading


class TestServingDensity:
    """``Scenario.spike_density`` reaches the streamed synthetic chunks
    (it used to be silently dropped once a workload object was built)."""

    def test_context_builds_synthetic_at_scenario_density(self):
        from repro.experiments.harness import _HarnessContext

        with _HarnessContext() as ctx:
            dense = ctx.workload("synthetic", 64, seed=0, density=0.25)
            assert dense.density == 0.25
            sparse = ctx.workload("synthetic", 64, seed=0, density=0.03)
            assert sparse is not dense
            assert sparse.density == 0.03

    def test_density_reaches_synthetic_mix_components(self):
        from repro.experiments.harness import _HarnessContext

        with _HarnessContext() as ctx:
            mix = ctx.workload("speech+synthetic", 700, seed=0,
                               density=0.25)
            densities = [w.density for w in mix.workloads
                         if w.name == "synthetic"]
            assert densities == [0.25]

    def test_sensor_workloads_share_cache_across_densities(self):
        from repro.experiments.harness import _HarnessContext

        with _HarnessContext() as ctx:
            assert ctx.workload("dvs", 64, seed=0, density=0.25) \
                is ctx.workload("dvs", 64, seed=0, density=0.03)


class TestPoolCache:
    def test_same_key_same_pool(self):
        net = SpikingNetwork((12, 8, 4), rng=0)
        with PoolCache() as cache:
            first = cache.get(net, 1)
            assert cache.get(net, 1) is first
            assert len(cache) == 1
            other = cache.get(net, 2)
            assert other is not first
            assert len(cache) == 2

    def test_distinct_networks_never_share(self):
        a = SpikingNetwork((12, 8, 4), rng=0)
        b = SpikingNetwork((12, 8, 4), rng=0)
        with PoolCache() as cache:
            assert cache.get(a, 1) is not cache.get(b, 1)

    def test_serial_request_rejected(self):
        with PoolCache() as cache:
            with pytest.raises(ValueError, match="workers >= 1"):
                cache.get(SpikingNetwork((12, 8, 4), rng=0), 0)


class TestEnergyModel:
    def test_scales_with_steps_and_neurons(self):
        one = modeled_energy_j(1, 1)
        assert one == pytest.approx(1.11e-11, rel=1e-6)
        assert modeled_energy_j(300, 1) == pytest.approx(3.33e-9, rel=1e-2)
        assert modeled_energy_j(10, 7) == pytest.approx(70 * one)


class TestBenchJsonRoundTrip:
    """table -> CSV -> table -> BENCH_*.json matches in-memory conversion
    and the key structure the docs/CI consume."""

    @pytest.fixture(scope="class")
    def table(self):
        scenarios = [
            Scenario(name="forward", kind="forward", engines=("fused",),
                     precisions=("float64", "float32"), sizes=(32, 16, 8),
                     rounds=2, warmup=0),
            Scenario(name="forward-step", kind="forward", engines=("step",),
                     sizes=(32, 16, 8), rounds=2, warmup=0),
            Scenario(name="backward", kind="backward",
                     engines=("fused", "step"), sizes=(32, 16, 8),
                     rounds=2, warmup=0),
            Scenario(name="train-step", kind="train_step",
                     sizes=(32, 16, 8), rounds=2, warmup=0),
            Scenario(name="train-step-aware", kind="train_step",
                     hardware=(None, HardwareSpec(4, 0.0, 13),
                               HardwareSpec(4, 0.1, 13)),
                     sizes=(32, 16, 8), rounds=2, warmup=0),
            Scenario(name="inference", kind="inference", sizes=(32, 16, 8),
                     rounds=2, warmup=0),
            Scenario(name="variation-sweep", kind="variation",
                     hardware=(HardwareSpec(4, 0.2, 13),),
                     sizes=(24, 16, 8), samples=8, n_seeds=2, rounds=1,
                     warmup=0),
            Scenario(name="serving", kind="serving", engines=("fused",),
                     precisions=("float64", "float32"),
                     loads=(LoadSpec("light", 400.0, 10),),
                     sizes=(24, 16, 8), sessions=3, chunk_steps=4),
            Scenario(name="serving-hardware", kind="serving",
                     hardware=(HardwareSpec(4, 0.1, 7),),
                     loads=(LoadSpec("light", 400.0, 10),),
                     sizes=(24, 16, 8), sessions=3, chunk_steps=4),
            Scenario(name="serving-shadow", kind="serving",
                     hardware=(HardwareSpec(4, 0.1, 7, shadow=True),),
                     loads=(LoadSpec("light", 400.0, 10),),
                     sizes=(24, 16, 8), sessions=3, chunk_steps=4),
        ]
        return run_scenarios(scenarios, timer=FakeTimer())

    def test_csv_round_trip_lossless(self, table):
        back = RunTable.from_csv_text(table.render_csv())
        assert back.rows == table.rows

    def test_throughput_schema(self, table):
        meta = {"pinned": True}
        report = benchjson.throughput_report(table, meta=meta)
        reread = benchjson.throughput_report(
            RunTable.from_csv_text(table.render_csv()), meta=meta)
        assert report == reread
        assert set(report) == {"meta", "forward", "backward", "train_step",
                               "inference", "variation_sweep",
                               "train_step_hardware_aware"}
        assert set(report["forward"]) == {"fused", "fused_float32",
                                          "step_reference"}
        assert set(report["backward"]) == {"fused", "reference"}
        assert "serial" in report["train_step"]
        assert "serial" in report["inference"]
        assert "serial" in report["variation_sweep"]
        aware = report["train_step_hardware_aware"]
        assert set(aware) == {"ideal", "hardware_aware",
                              "hardware_aware_noise",
                              "overhead_hardware_aware",
                              "overhead_hardware_aware_noise"}
        for row in (report["forward"]["fused"], aware["ideal"]):
            assert set(row) == {"min_ms", "mean_ms", "max_ms", "rounds"}

    def test_serving_schema(self, table):
        meta = {"pinned": True}
        report = benchjson.serving_report(table, meta=meta)
        reread = benchjson.serving_report(
            RunTable.from_csv_text(table.render_csv()), meta=meta)
        assert report == reread
        assert set(report["serving"]) == {"fused_float64", "fused_float32",
                                          "hardware_float64",
                                          "shadow_float64"}
        row = report["serving"]["fused_float64"]["light"]
        assert set(row) == {"offered_rps", "duration_s", "submitted",
                            "completed", "rejected", "ticks",
                            "throughput_rps", "mean_batch", "steps_per_s",
                            "latency_ms", "divergence",
                            "faults_injected", "requests_retried",
                            "requests_expired", "requests_failed",
                            "recovery_p99_ms", "availability",
                            "queue_wait_p95_ms", "tick_compute_p95_ms",
                            "pool_stats"}
        assert row["availability"] == 1.0          # a clean serving run
        assert row["queue_wait_p95_ms"] is not None
        assert row["tick_compute_p95_ms"] is not None
        assert set(row["latency_ms"]) == {"p50", "p95", "p99", "mean",
                                          "max"}
        assert report["serving"]["shadow_float64"]["light"]["divergence"] \
            is not None

    def test_aware_schema(self, table):
        meta = {"pinned": True}
        report = benchjson.aware_report(table, meta=meta)
        reread = benchjson.aware_report(
            RunTable.from_csv_text(table.render_csv()), meta=meta)
        assert report == reread
        assert report["meta"]["operating_point"] == {"bits": 4,
                                                     "variation": 0.1}
        assert set(report["train_step"]) == {
            "ideal", "hardware_aware", "hardware_aware_noise",
            "overhead_hardware_aware", "overhead_hardware_aware_noise"}

    def test_aware_overhead_is_a_min_ratio_within_its_scenario(self):
        """One outlier round moves neither overhead, and the baseline is
        the aware scenario's own ideal row, not an earlier scenario's."""
        table = RunTable()
        cells = [("train-step", "ideal", None, 100.0, 101.0, 103.0),
                 ("train-step-aware", "ideal", None, 110.0, 112.0, 115.0),
                 ("train-step-aware", "hw4b0", 0.0, 113.0, 300.0, 1300.0),
                 ("train-step-aware", "hw4b10", 0.1, 112.2, 114.0, 117.0)]
        for scenario, hardware, variation, low, mean, high in cells:
            table.append(run_id=f"{scenario}/{hardware}", scenario=scenario,
                         kind="train_step", engine="fused",
                         precision="float64", workers=0, hardware=hardware,
                         hw_bits=None if variation is None else 4,
                         hw_variation=variation, repetition=0, min_ms=low,
                         mean_ms=mean, max_ms=high, rounds=10)
        report = benchjson.aware_report(table, meta={})["train_step"]
        assert report["ideal"]["min_ms"] == 110.0
        assert report["overhead_hardware_aware"] == round(113.0 / 110.0, 3)
        assert report["overhead_hardware_aware_noise"] == round(
            112.2 / 110.0, 3)

    def test_missing_rows_fail_loudly(self):
        table = RunTable()
        table.append(run_id="only", kind="forward", engine="fused",
                     precision="float64", repetition=0, min_ms=1.0,
                     mean_ms=1.0, max_ms=1.0, rounds=1)
        with pytest.raises(ExperimentError, match="no row"):
            benchjson.throughput_report(table, meta={})
        with pytest.raises(ExperimentError, match="serving"):
            benchjson.serving_report(table, meta={})

    def test_from_table_cli(self, table, tmp_path, monkeypatch):
        """``tools/bench_to_json.py --from-table`` regenerates all three
        JSON artifacts from a table on disk."""
        table_path = tmp_path / "run_table.csv"
        table.write_csv(table_path)
        tools = pathlib.Path(__file__).resolve().parents[2] / "tools"
        spec = importlib.util.spec_from_file_location(
            "bench_to_json_under_test", tools / "bench_to_json.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        monkeypatch.chdir(tmp_path)
        assert module.main(["--from-table", str(table_path)]) == 0
        for name in ("BENCH_throughput.json", "BENCH_serving.json",
                     "BENCH_aware.json"):
            report = json.loads((tmp_path / name).read_text())
            assert "meta" in report


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
                   for spec in expand(scenario)
                   if spec.kind == "serving"]
        engines = {spec.engine for spec in serving}
        workloads = {spec.workload for spec in serving}
        assert engines == {"fused"}
        assert "dvs" in workloads          # a non-SHD sensor workload
        assert any("+" in w for w in workloads)  # and a mixed stream
        assert all(spec.repetition == 0 for spec in serving)


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

    def test_ttl_knobs_are_serving_only_and_positive(self):
        with pytest.raises(ExperimentError, match="serving knob"):
            Scenario(name="c", kind="forward", request_ttl_ms=10.0,
                     sizes=(24, 16, 8))
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

    def test_chaos_section_of_serving_report(self, table):
        report = benchjson.serving_report(table, meta={"pinned": True})
        assert report["serving"] == {}     # chaos-only table
        row = report["chaos"]["t-chaos"]["smoke"]
        for key in ("availability", "faults_injected", "requests_retried",
                    "requests_expired", "requests_failed",
                    "recovery_p99_ms"):
            assert key in row
        assert row["submitted"] == 16

    def test_same_seed_reproduces_the_fault_schedule(self, table):
        again = run_scenarios([self.scenario()], timer=FakeTimer())
        assert again.rows == table.rows
