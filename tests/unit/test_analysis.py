"""Unit tests for repro.analysis (metrics, distances, rasters)."""

import numpy as np
import pytest

from repro.analysis import (
    accuracy,
    active_fraction,
    coincidence_factor,
    confusion_matrix,
    dense_to_events,
    events_to_dense,
    firing_rate,
    flatten_dvs,
    pairwise_van_rossum,
    per_class_accuracy,
    raster_summary,
    spike_count_histogram,
    trace_correlation,
    unflatten_dvs,
    van_rossum_distance,
    victor_purpura_distance,
)
from repro.common.errors import ShapeError


class TestMetrics:
    def test_accuracy(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == \
            pytest.approx(2 / 3)

    def test_accuracy_validation(self):
        with pytest.raises(ShapeError):
            accuracy(np.array([1]), np.array([1, 2]))
        with pytest.raises(ShapeError):
            accuracy(np.array([]), np.array([]))

    def test_confusion_matrix(self):
        predictions = np.array([0, 1, 1, 2])
        labels = np.array([0, 1, 2, 2])
        matrix = confusion_matrix(predictions, labels, n_classes=3)
        assert matrix[0, 0] == 1
        assert matrix[1, 1] == 1
        assert matrix[2, 1] == 1
        assert matrix[2, 2] == 1
        assert matrix.sum() == 4

    def test_per_class_accuracy(self):
        predictions = np.array([0, 1, 0, 2])
        labels = np.array([0, 1, 1, 2])
        per_class = per_class_accuracy(predictions, labels, n_classes=4)
        assert per_class[0] == 1.0
        assert per_class[1] == 0.5
        assert per_class[2] == 1.0
        assert np.isnan(per_class[3])      # class absent

    def test_firing_rate_and_active_fraction(self):
        spikes = np.zeros((2, 10, 4))
        spikes[0, :, 0] = 1.0
        assert firing_rate(spikes) == pytest.approx(10 / 80)
        assert active_fraction(spikes) == pytest.approx(1 / 8)

    def test_spike_count_histogram(self):
        spikes = np.zeros((1, 5, 3))
        spikes[0, :, 1] = 1.0
        counts, edges = spike_count_histogram(spikes, bins=5)
        assert counts.sum() == 3
        assert len(edges) == 6


class TestVanRossumDistance:
    def test_identity(self):
        rng = np.random.default_rng(0)
        a = (rng.random((30, 3)) < 0.2).astype(float)
        assert van_rossum_distance(a, a) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a = (rng.random((25,)) < 0.2).astype(float)
        b = (rng.random((25,)) < 0.2).astype(float)
        assert van_rossum_distance(a, b) == pytest.approx(
            van_rossum_distance(b, a))

    def test_monotone_in_offset(self):
        base = np.zeros(50)
        base[10] = 1.0
        distances = []
        for offset in (2, 5, 10, 20):
            other = np.zeros(50)
            other[10 + offset] = 1.0
            distances.append(van_rossum_distance(base, other))
        assert distances == sorted(distances)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            van_rossum_distance(np.zeros(10), np.zeros(12))

    def test_pairwise_matrix(self):
        rng = np.random.default_rng(2)
        rasters = (rng.random((4, 20, 2)) < 0.2).astype(float)
        matrix = pairwise_van_rossum(rasters)
        assert matrix.shape == (4, 4)
        np.testing.assert_allclose(matrix, matrix.T)
        np.testing.assert_allclose(np.diag(matrix), 0.0)
        # Off-diagonal entries match the scalar function.
        expected = van_rossum_distance(rasters[0].reshape(20, 2),
                                       rasters[1].reshape(20, 2))
        assert matrix[0, 1] == pytest.approx(expected * 1.0, rel=1e-9)


class TestVictorPurpura:
    def test_identical_is_zero(self):
        train = np.zeros(20)
        train[[3, 8, 15]] = 1.0
        assert victor_purpura_distance(train, train) == 0.0

    def test_insert_delete_cost(self):
        a = np.zeros(20)
        a[5] = 1.0
        b = np.zeros(20)
        assert victor_purpura_distance(a, b) == 1.0     # delete one spike

    def test_shift_cheaper_than_delete_insert(self):
        a = np.zeros(20)
        a[5] = 1.0
        b = np.zeros(20)
        b[6] = 1.0
        # Shift by 1 costs 0.5*1 < 2 (delete + insert).
        assert victor_purpura_distance(a, b, cost=0.5) == pytest.approx(0.5)

    def test_far_shift_capped_by_two(self):
        a = np.zeros(50)
        a[2] = 1.0
        b = np.zeros(50)
        b[48] = 1.0
        assert victor_purpura_distance(a, b, cost=0.5) == pytest.approx(2.0)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            victor_purpura_distance(np.zeros(5), np.zeros(5), cost=-1.0)


class TestCoincidenceFactor:
    def test_identical_trains(self):
        train = np.zeros(40)
        train[[5, 15, 30]] = 1.0
        assert coincidence_factor(train, train) == pytest.approx(1.0, abs=0.3)

    def test_empty_pair(self):
        assert coincidence_factor(np.zeros(10), np.zeros(10)) == 1.0

    def test_one_empty(self):
        a = np.zeros(10)
        a[3] = 1.0
        assert coincidence_factor(a, np.zeros(10)) == 0.0

    def test_uncorrelated_near_zero(self):
        rng = np.random.default_rng(3)
        gammas = []
        for _ in range(30):
            a = (rng.random(200) < 0.1).astype(float)
            b = (rng.random(200) < 0.1).astype(float)
            gammas.append(coincidence_factor(a, b))
        assert abs(np.mean(gammas)) < 0.2


class TestTraceCorrelation:
    def test_perfect_correlation(self):
        rng = np.random.default_rng(4)
        a = (rng.random((30, 2)) < 0.3).astype(float)
        assert trace_correlation(a, a) == pytest.approx(1.0)

    def test_silent_trace_returns_zero(self):
        a = np.zeros((20, 2))
        b = np.ones((20, 2))
        assert trace_correlation(a, b) == 0.0


class TestRasterConversions:
    def test_events_dense_roundtrip(self):
        events = np.array([[0, 1], [3, 2], [3, 2], [9, 0]])
        dense = events_to_dense(events, steps=10, channels=3)
        assert dense[3, 2] == 2.0
        back = dense_to_events(dense)
        np.testing.assert_array_equal(np.sort(back, axis=0),
                                      np.sort(events, axis=0))

    def test_events_bounds_checked(self):
        with pytest.raises(ShapeError):
            events_to_dense(np.array([[10, 0]]), steps=10, channels=3)
        with pytest.raises(ShapeError):
            events_to_dense(np.array([[0, 5]]), steps=10, channels=3)

    def test_empty_events(self):
        dense = events_to_dense(np.zeros((0, 2)), steps=5, channels=2)
        assert dense.sum() == 0

    def test_raster_summary(self):
        raster = np.zeros((10, 4))
        raster[2, 1] = 1.0
        raster[7, 1] = 1.0
        summary = raster_summary(raster)
        assert summary["total_spikes"] == 2
        assert summary["active_channels"] == 1
        assert summary["first_spike_step"] == 2

    def test_dvs_flatten_roundtrip(self):
        rng = np.random.default_rng(5)
        events = (rng.random((6, 34, 34, 2)) < 0.05).astype(float)
        flat = flatten_dvs(events)
        assert flat.shape == (6, 2312)
        np.testing.assert_array_equal(unflatten_dvs(flat), events)

    def test_dvs_flatten_validates(self):
        with pytest.raises(ShapeError):
            flatten_dvs(np.zeros((6, 20, 34, 2)))
        with pytest.raises(ShapeError):
            unflatten_dvs(np.zeros((6, 100)))


# ---------------------------------------------------------------------------
# Static-analysis engine (repro.analysis.lint) — fixture-driven rule
# tests: one minimal bad/good snippet pair per rule, suppressions,
# baseline round-trip, the JSON schema, and self-hosting over the repo.
# ---------------------------------------------------------------------------

import json
from pathlib import Path

from repro.analysis.lint import (
    RULES,
    LintConfig,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.analysis.lint.engine import render_json, render_text
from repro.analysis.lint.facts import (
    DEFAULT_RUNTABLE_FILES,
    InstrumentCatalog,
    build_facts,
    parse_instrument_catalog,
    parse_string_tuple,
)

REPO = Path(__file__).resolve().parents[2]

CATALOG = InstrumentCatalog(exact=frozenset({"ok.name"}),
                            wildcard_prefixes=frozenset())


def lint(sources, **overrides):
    return run_lint(sources=sources, config=LintConfig(**overrides))


def hits(result, rule_id):
    return [f for f in result.findings if f.rule == rule_id]


class TestLintRules:
    """One bad/good pair per rule, with exact file:line attribution."""

    def test_determinism_flags_wall_clock_and_rng(self):
        bad = ("import time\nimport numpy as np\n\n"
               "def f():\n"
               "    t = time.time()\n"
               "    x = np.random.rand(3)\n"
               "    g = np.random.default_rng()\n"
               "    return t, x, g\n")
        result = lint({"src/repro/core/bad.py": bad})
        found = {(f.line, f.message.split("`")[1])
                 for f in hits(result, "determinism")}
        assert (5, "time.time()") in found
        assert any(line == 6 for line, _ in found)
        assert any(line == 7 for line, _ in found)

    def test_determinism_good_injectable_and_seeded(self):
        good = ("import time\nimport numpy as np\n\n"
                "def f(timer=time.perf_counter, seed=0):\n"
                "    start = timer()\n"
                "    rng = np.random.default_rng(seed)\n"
                "    return timer() - start, rng\n")
        result = lint({"src/repro/core/good.py": good})
        assert hits(result, "determinism") == []

    def test_determinism_ignores_tests_and_monotonic(self):
        src = ("import time\n\ndef f():\n    return time.monotonic()\n")
        result = lint({"src/repro/core/mono.py": src,
                       "tests/unit/test_x.py":
                       "import time\nT = time.time()\n"})
        assert hits(result, "determinism") == []

    def test_fault_sites_unknown_site(self):
        bad = "def f(plan):\n    return plan.hit('no.such.site')\n"
        result = lint({"src/repro/serve/bad.py": bad,
                       "tests/unit/test_ok.py": "S = 'real.site'\n"},
                      known_sites=("real.site",))
        (finding,) = hits(result, "fault-sites")
        assert (finding.path, finding.line) == ("src/repro/serve/bad.py", 2)
        assert "no.such.site" in finding.message

    def test_fault_sites_catalog_entry_needs_a_test(self):
        src = "def f(plan):\n    return plan.should_fire('real.site')\n"
        result = lint({"src/repro/serve/ok.py": src,
                       "tests/unit/test_ok.py": "S = 'real.site'\n"},
                      known_sites=("real.site", "untested.site"))
        (finding,) = hits(result, "fault-sites")
        assert "untested.site" in finding.message
        assert "never exercised" in finding.message

    def test_fault_sites_good(self):
        result = lint(
            {"src/repro/serve/ok.py":
             "def f(plan):\n    return plan.hit('real.site')\n",
             "tests/unit/test_ok.py": "S = 'real.site'\n"},
            known_sites=("real.site",))
        assert hits(result, "fault-sites") == []

    def test_instruments_uncatalogued_name(self):
        bad = "def f(reg):\n    reg.counter('bad.name', 1)\n"
        result = lint({"src/repro/obs/bad.py": bad},
                      instrument_catalog=CATALOG)
        (finding,) = hits(result, "instruments")
        assert (finding.path, finding.line) == ("src/repro/obs/bad.py", 2)
        assert "bad.name" in finding.message

    def test_instruments_kind_conflict(self):
        bad = ("def f(reg):\n"
               "    reg.counter('ok.name', 1)\n"
               "    reg.gauge('ok.name', 2)\n")
        result = lint({"src/repro/obs/bad.py": bad},
                      instrument_catalog=CATALOG)
        (finding,) = hits(result, "instruments")
        assert finding.line == 3
        assert "gauge" in finding.message and "counter" in finding.message

    def test_instruments_good_exact_and_wildcard(self):
        catalog = InstrumentCatalog(
            exact=frozenset({"ok.name"}),
            wildcard_prefixes=frozenset({"serve."}))
        good = ("def f(reg, key):\n"
                "    reg.counter('ok.name', 1)\n"
                "    reg.counter(f'serve.{key}', 1)\n"
                "    reg.histogram('serve.tick_ms', 1.0)\n")
        result = lint({"src/repro/obs/good.py": good},
                      instrument_catalog=catalog)
        assert hits(result, "instruments") == []

    def test_layer_dag_upward_import(self):
        bad = "from repro.serve.server import ModelServer\n"
        result = lint({"src/repro/common/bad.py": bad})
        (finding,) = hits(result, "layer-dag")
        assert (finding.path, finding.line) == ("src/repro/common/bad.py", 1)
        assert "layer violation" in finding.message

    def test_layer_dag_relative_upward_import(self):
        bad = "from ..serve import server\n"
        result = lint({"src/repro/common/bad.py": bad})
        (finding,) = hits(result, "layer-dag")
        assert "repro.serve" in finding.message

    def test_layer_dag_listed_lazy_import_is_sanctioned(self):
        good = ("def f():\n"
                "    from repro.runtime.pool import WorkerPool\n"
                "    return WorkerPool\n")
        result = lint({"src/repro/core/trainer.py": good})
        assert hits(result, "layer-dag") == []

    def test_layer_dag_unlisted_lazy_import_is_reported(self):
        bad = ("def f():\n"
               "    from repro.serve.server import ModelServer\n"
               "    return ModelServer\n")
        result = lint({"src/repro/common/bad.py": bad})
        (finding,) = hits(result, "layer-dag")
        assert (finding.path, finding.line) == ("src/repro/common/bad.py", 2)
        assert "repro.serve.server" in finding.message
        # The same edge from a listed importer of another package is
        # reported too: the list names (module, package) pairs.
        result = lint({"src/repro/core/trainer.py": bad})
        assert len(hits(result, "layer-dag")) == 1

    def test_layer_dag_external_dependency(self):
        result = lint({"src/repro/core/bad.py": "import pandas\n"})
        (finding,) = hits(result, "layer-dag")
        assert "pandas" in finding.message

    def test_layer_dag_private_external_module(self):
        private = "from scipy.sparse import _sparsetools\n"
        result = lint({"src/repro/core/bad.py": private})
        (finding,) = hits(result, "layer-dag")
        assert (finding.path, finding.line) == ("src/repro/core/bad.py", 1)
        assert "scipy.sparse._sparsetools" in finding.message
        # Allow-listed for the fused engine only.
        result = lint({"src/repro/core/engine.py": private})
        assert hits(result, "layer-dag") == []

    def test_layer_dag_numpy_and_stdlib_allowed(self):
        good = "import json\nimport numpy as np\n"
        result = lint({"src/repro/core/good.py": good})
        assert hits(result, "layer-dag") == []

    def test_layer_dag_cycle(self):
        result = lint({
            "src/repro/core/a.py": "from repro.core import b\n",
            "src/repro/core/b.py": "from repro.core import a\n",
            "src/repro/core/__init__.py": "",
        })
        cycles = [f for f in hits(result, "layer-dag")
                  if "cycle" in f.message]
        assert cycles and "repro.core.a" in cycles[0].message

    def test_concurrency_bare_acquire(self):
        bad = ("def f(lock):\n"
               "    lock.acquire()\n"
               "    lock.release()\n")
        result = lint({"src/repro/runtime/bad.py": bad})
        (finding,) = hits(result, "concurrency")
        assert finding.line == 2 and finding.severity == "warning"

    def test_concurrency_good_acquire_try_finally_and_with(self):
        good = ("def f(lock):\n"
                "    lock.acquire()\n"
                "    try:\n"
                "        pass\n"
                "    finally:\n"
                "        lock.release()\n"
                "\n"
                "def g(lock):\n"
                "    with lock:\n"
                "        pass\n")
        result = lint({"src/repro/runtime/good.py": good})
        assert hits(result, "concurrency") == []

    def test_concurrency_blocking_recv(self):
        bad = ("def loop(conn):\n"
               "    while True:\n"
               "        msg = conn.recv()\n")
        result = lint({"src/repro/runtime/bad.py": bad})
        (finding,) = hits(result, "concurrency")
        assert finding.line == 3 and "recv" in finding.message

    def test_concurrency_poll_guarded_recv_good(self):
        good = ("def loop(conn):\n"
                "    while True:\n"
                "        if not conn.poll(0.2):\n"
                "            continue\n"
                "        msg = conn.recv()\n")
        result = lint({"src/repro/runtime/good.py": good})
        assert hits(result, "concurrency") == []

    def test_concurrency_mixed_lock_discipline(self):
        bad = ("import threading\n"
               "class C:\n"
               "    def __init__(self):\n"
               "        self._lock = threading.Lock()\n"
               "        self.n = 0\n"
               "    def guarded(self):\n"
               "        with self._lock:\n"
               "            self.n += 1\n"
               "    def unguarded(self):\n"
               "        self.n += 1\n")
        result = lint({"src/repro/runtime/bad.py": bad})
        (finding,) = hits(result, "concurrency")
        assert finding.line == 10 and "C.n" in finding.message

    def test_runtable_unknown_column(self):
        bad = "def f(row):\n    return row['bogus_col']\n"
        result = lint(
            {"src/repro/experiments/bad.py": bad},
            run_table_columns=("run_id",),
            runtable_files=("src/repro/experiments/bad.py",))
        (finding,) = hits(result, "runtable-schema")
        assert finding.line == 2 and "bogus_col" in finding.message

    def test_runtable_good_and_unlisted_files_ignored(self):
        result = lint(
            {"src/repro/experiments/good.py":
             "def f(row):\n    return row['run_id']\n",
             "src/repro/serve/other.py":
             "def f(row):\n    return row['not_a_column']\n"},
            run_table_columns=("run_id",),
            runtable_files=("src/repro/experiments/good.py",))
        assert hits(result, "runtable-schema") == []

    def test_runtable_missing_configured_file_is_a_finding(self):
        """A renamed or deleted file must not switch the check off once
        the tree has a schema module; trees without one stay quiet."""
        schema = ('ID_COLUMNS = ("run_id",)\n'
                  'MEASUREMENT_COLUMNS = ()\n')
        good = "def f(row):\n    return row['run_id']\n"
        files = ("src/repro/experiments/good.py",
                 "src/repro/experiments/renamed.py")
        result = lint({"src/repro/common/runtable.py": schema,
                       "src/repro/experiments/good.py": good},
                      runtable_files=files)
        (finding,) = hits(result, "runtable-schema")
        assert finding.path == "src/repro/experiments/renamed.py"
        assert "does not exist" in finding.message
        synthetic = lint({"src/repro/experiments/good.py": good},
                         run_table_columns=("run_id",),
                         runtable_files=files)
        assert hits(synthetic, "runtable-schema") == []

    def test_parse_error_is_reported(self):
        result = lint({"src/repro/core/broken.py": "def f(:\n"})
        (finding,) = [f for f in result.findings
                      if f.rule == "parse-error"]
        assert finding.path == "src/repro/core/broken.py"


class TestLintSuppressions:
    BAD = "import time\n\ndef f():\n    return time.time()\n"

    def test_same_line_suppression(self):
        src = ("import time\n\ndef f():\n"
               "    return time.time()  # repro: disable=determinism\n")
        result = lint({"src/repro/core/x.py": src})
        assert result.findings == [] and len(result.suppressed) == 1

    def test_line_above_suppression(self):
        src = ("import time\n\ndef f():\n"
               "    # repro: disable=determinism\n"
               "    return time.time()\n")
        result = lint({"src/repro/core/x.py": src})
        assert result.findings == []

    def test_file_wide_suppression(self):
        src = ("# repro: disable-file=determinism\n" + self.BAD)
        result = lint({"src/repro/core/x.py": src})
        assert result.findings == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = ("import time\n\ndef f():\n"
               "    return time.time()  # repro: disable=concurrency\n")
        result = lint({"src/repro/core/x.py": src})
        assert len(hits(result, "determinism")) == 1


class TestLintBaseline:
    BAD = {"src/repro/core/x.py":
           "import time\n\ndef f():\n    return time.time()\n"}

    def test_round_trip(self, tmp_path):
        first = lint(self.BAD)
        assert len(first.findings) == 1
        path = tmp_path / "baseline.json"
        assert write_baseline(path, first) == 1

        baseline = load_baseline(path)
        second = run_lint(sources=self.BAD, config=LintConfig(),
                          baseline=baseline)
        assert second.findings == []
        assert len(second.baselined) == 1
        assert second.stale_baseline == []

    def test_stale_entries_surface(self, tmp_path):
        path = tmp_path / "baseline.json"
        write_baseline(path, lint(self.BAD))
        fixed = run_lint(
            sources={"src/repro/core/x.py": "def f():\n    return 0\n"},
            config=LintConfig(), baseline=load_baseline(path))
        assert fixed.findings == []
        assert len(fixed.stale_baseline) == 1
        assert "stale baseline" in render_text(fixed)

    def test_regeneration_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_baseline(a, lint(self.BAD))
        write_baseline(b, lint(self.BAD))
        assert a.read_text() == b.read_text()

    def test_committed_baseline_is_empty_or_valid(self):
        payload = json.loads(
            (REPO / "tools" / "lint_baseline.json").read_text())
        assert payload["version"] == 1
        rule_ids = {rule.id for rule in RULES} | {"parse-error"}
        for entry in payload["findings"]:
            assert entry["rule"] in rule_ids
            assert (REPO / entry["path"]).exists(), entry


class TestLintOutput:
    def test_json_schema(self):
        result = lint({"src/repro/core/x.py":
                       "import time\nT = time.time()\n"})
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert payload["tool"] == "repro.analysis.lint"
        assert payload["rules"] == [rule.id for rule in RULES]
        assert set(payload["counts"]) == {
            "raw", "reported", "suppressed", "baselined",
            "stale_baseline"}
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "severity", "path", "line",
                                "col", "message", "hint"}
        assert payload["counts"]["reported"] == 1

    def test_findings_are_stably_sorted(self):
        sources = {
            "src/repro/core/b.py": "import time\nT = time.time()\n",
            "src/repro/core/a.py": "import time\nT = time.time()\n",
        }
        result = lint(sources)
        assert [f.path for f in result.findings] == sorted(
            f.path for f in result.findings)


class TestLintFacts:
    def test_parse_string_tuple_from_real_catalogs(self):
        sites = parse_string_tuple(
            (REPO / "src/repro/common/faults.py").read_text(),
            "KNOWN_SITES")
        assert "pool.worker.crash" in sites
        columns = parse_string_tuple(
            (REPO / "src/repro/common/runtable.py").read_text(),
            "ID_COLUMNS", "MEASUREMENT_COLUMNS")
        assert columns.index("run_id") == 0 and "p95_ms" in columns

    def test_parse_instrument_catalog(self):
        catalog = parse_instrument_catalog(
            "| instrument | kind |\n"
            "|---|---|\n"
            "| `a.b` / `a.c` | counter |\n"
            "| `serve.*{replica=rN}` | (as above) |\n"
            "| `pool.respawns{worker=i}` | counter |\n")
        assert catalog.exact == {"a.b", "a.c", "pool.respawns"}
        assert catalog.covers("serve.anything")
        assert not catalog.covers("fleet.x")


class TestLintSelfHost:
    """The engine's own acceptance gate: the merged tree lints clean."""

    def test_repo_lints_clean_against_committed_baseline(self):
        baseline = load_baseline(
            REPO / "tools" / "lint_baseline.json") or None
        result = run_lint(root=REPO, baseline=baseline)
        assert result.findings == [], render_text(result)
        assert result.stale_baseline == []

    def test_facts_cover_the_real_tree(self):
        facts = build_facts(root=REPO)
        paths = set(facts.modules)
        assert "src/repro/analysis/lint/facts.py" in paths  # self-hosting
        assert "src/repro/serve/server.py" in paths
        assert len(facts.known_sites) >= 9
        assert "run_id" in facts.run_table_columns
        assert facts.instrument_catalog.covers("serve.ticks")

    def test_runtable_rule_covers_every_row_reader(self):
        """The harness writes rows and the gate runner reads them; each
        configured file exists and is seen reading columns."""
        facts = build_facts(root=REPO)
        assert set(DEFAULT_RUNTABLE_FILES) >= {
            "src/repro/experiments/harness.py", "tools/gates.py"}
        for path in DEFAULT_RUNTABLE_FILES:
            assert facts.modules[path].runtable_refs, path
