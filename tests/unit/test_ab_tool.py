"""Statistics and acceptance rule of ``tools/ab.py`` on synthetic samples."""

import importlib.util
import json
import pathlib

import pytest

TOOLS = pathlib.Path(__file__).resolve().parents[2] / "tools"
_spec = importlib.util.spec_from_file_location("ab_under_test",
                                               TOOLS / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_quartiles_interpolate_linearly():
    assert ab.quartiles([4, 1, 3, 2, 5]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1, 2, 3, 4]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7]) == (7, 7, 7)
    with pytest.raises(ValueError):
        ab.quantile([], 0.5)


def test_clear_latency_gain_passes():
    base = [130, 128, 131, 127, 129, 132, 128, 130, 129, 131]
    head = [110, 108, 112, 107, 109, 111, 108, 110, 109, 112]
    row = ab.compare(base, head, "lower", bound=0.25)
    assert row["wins"] == 10 and row["losses"] == 0
    assert row["base"][1] == 129.5 and row["head"][1] == 109.5
    assert row["ratio"] == pytest.approx(109.5 / 129.5)
    assert row["base_iqr"] == pytest.approx(130.75 - 128.25)
    assert row["gain"] is True
    assert row["bound"] == "ok"


def test_throughput_direction_is_higher():
    base = [100.0 + i for i in range(10)]
    head = [120.0 + i for i in range(10)]
    assert ab.compare(base, head, "higher")["gain"] is True
    assert ab.compare(head, base, "higher")["gain"] is False
    assert ab.compare(base, head, "lower")["wins"] == 0


def test_eight_of_ten_wins_is_not_a_gain():
    base = [100.0] * 10
    head = [80.0] * 8 + [120.0] * 2
    row = ab.compare(base, head, "lower")
    assert row["wins"] == 8 and row["losses"] == 2
    assert row["gain"] is False


def test_ties_count_for_neither_side():
    base = [100.0] * 10
    head = [100.0] + [90.0] * 9
    row = ab.compare(base, head, "lower")
    assert row["wins"] == 9 and row["losses"] == 0
    assert row["gain"] is True   # 9 of 10 wins, gap 10 > IQR 0


def test_gap_must_exceed_parent_iqr():
    # The change wins every pair, but by less than the parent's spread.
    base = [100, 110, 120, 130, 140, 150, 160, 170, 180, 190]
    head = [b - 5 for b in base]
    row = ab.compare(base, head, "lower")
    assert row["wins"] == 10
    assert row["base_iqr"] == pytest.approx(45.0)
    assert row["gain"] is False


def test_fewer_than_ten_pairs_never_pass():
    base = [100.0] * 9
    head = [50.0] * 9
    assert ab.compare(base, head, "lower")["gain"] is False
    assert ab.compare(base * 2, head * 2, "lower")["gain"] is True


def test_mismatched_samples_rejected():
    with pytest.raises(ValueError):
        ab.compare([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        ab.compare([1.0], [1.0], "sideways")


@pytest.mark.parametrize("head, verdict", [
    ([105.0] * 10, "ok"),           # 5% worse, inside a 25% bound
    ([130.0] * 10, "worse"),        # 30% worse
])
def test_bound_verdicts(head, verdict):
    assert ab.bound_verdict([100.0] * 10, head, "lower", 0.25) == verdict


def test_wide_spread_is_unresolved_unless_every_run_wins():
    base = [60, 80, 100, 120, 140, 60, 80, 100, 120, 140]
    head = [b * 1.05 for b in base]
    assert ab.bound_verdict(base, head, "lower", 0.25) == "unresolved"
    faster = [50.0] * 10   # every change run beats every parent run
    assert ab.bound_verdict(base, faster, "lower", 0.25) == "ok"


def test_analyse_reads_directions_and_bounds_from_the_benchmark():
    benchmark = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())
    specs = ab.metric_specs(benchmark)
    assert specs["op_p50_ms"] == ("lower", 0.25)
    assert specs["items_per_s"] == ("higher", 0.25)
    assert specs["engine_ms"] == ("lower", None)

    def run(p50, rate):
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"},
                            "items_per_s": {"value": rate, "unit": "1/s"}}}

    results = {"base": [run(130.0 + i % 3, 490.0) for i in range(10)],
               "head": [run(110.0 + i % 3, 580.0) for i in range(10)]}
    report = ab.analyse(results, specs)
    assert set(report) == {"op_p50_ms", "items_per_s"}
    assert report["op_p50_ms"]["gain"] and report["items_per_s"]["gain"]
    text = ab.format_report(report, results, "train")
    assert "op_p50_ms" in text and "PASS" in text
    assert "failed 0 of 100 operations" in text


def _runs(p50s, correct=True, attempted=10, failed=0):
    return [{"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}}}
            for value in p50s]


SPECS = {"op_p50_ms": ("lower", 0.25)}
FAST = [110.0 + i % 3 for i in range(10)]
SLOW = [130.0 + i % 3 for i in range(10)]


def test_gain_needs_every_head_run_correct():
    results = {"base": _runs(SLOW), "head": _runs(FAST)}
    assert ab.analyse(results, SPECS)["op_p50_ms"]["gain"] is True
    results["head"][3]["correct"] = False
    report = ab.analyse(results, SPECS)
    assert report["op_p50_ms"]["gain"] is False
    text = ab.format_report(report, results, "sweep")
    assert "PASS" not in text
    assert "no gain counts: a head run is not correct" in text


def test_gain_needs_no_larger_failed_share():
    results = {"base": _runs(SLOW, failed=1), "head": _runs(FAST, failed=1)}
    assert ab.analyse(results, SPECS)["op_p50_ms"]["gain"] is True
    results["head"][0]["failed"] = 2          # 11/100 against 10/100
    report = ab.analyse(results, SPECS)
    assert report["op_p50_ms"]["gain"] is False
    assert "larger share" in ab.format_report(report, results, "sweep")
    # A share, not a count: more operations may fail in more attempts.
    results = {"base": _runs(SLOW, attempted=10, failed=1),
               "head": _runs(FAST, attempted=20, failed=2)}
    assert ab.analyse(results, SPECS)["op_p50_ms"]["gain"] is True


def test_ratio_interval_brackets_the_known_ratio():
    base = [100.0 + 7.0 * ((i * 37) % 11) for i in range(12)]
    head = [0.8 * b * (1.0 + 0.01 * ((i * 5) % 3 - 1))
            for i, b in enumerate(base)]
    low, high = ab.ratio_interval(base, head)
    assert low < 0.8 < high
    assert 0.75 < low and high < 0.85
    assert ab.ratio_interval(base, head) == (low, high)   # fixed seed


def test_ratio_interval_of_identical_sides_contains_one():
    samples = [100.0, 104.0, 97.0, 110.0, 92.0, 101.0, 99.0, 108.0]
    low, high = ab.ratio_interval(samples, list(samples))
    assert low <= 1.0 <= high
    noisy = [s * (1.0 + 0.02 * (-1) ** i) for i, s in enumerate(samples)]
    low, high = ab.ratio_interval(samples, noisy)
    assert low <= 1.0 <= high


def test_report_prints_the_interval():
    results = {"base": _runs(SLOW), "head": _runs(FAST)}
    report = ab.analyse(results, SPECS)
    low, high = report["op_p50_ms"]["ratio_ci"]
    assert low < report["op_p50_ms"]["ratio"] < high
    text = ab.format_report(report, results, "sweep")
    assert "ratio 95% CI" in text
    assert f"[{low:.3f}, {high:.3f}]" in text


def test_provenance_names_the_machine_and_library_stack():
    import os

    import numpy
    import scipy

    record = ab.provenance()
    assert record["cpu_count"] == os.cpu_count()
    if hasattr(os, "sched_getaffinity"):
        assert record["cpu_affinity"] == len(os.sched_getaffinity(0))
    assert record["numpy"] == numpy.__version__
    assert record["scipy"] == scipy.__version__
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (record["blas"], record["blas_version"]) \
        == (blas["name"], blas["version"])
    assert json.loads(json.dumps(record)) == record


def test_report_header_carries_the_provenance_line():
    record = {"cpu_count": 2, "cpu_affinity": 2,
              "platform": "Linux-6.1-x86_64", "python": "3.11.7",
              "numpy": "2.4.6", "scipy": "1.17.1",
              "blas": "scipy-openblas", "blas_version": "0.3.31"}
    line = ab.provenance_line(record)
    assert line == ("machine: 2 cpus (2 usable), Linux-6.1-x86_64; "
                    "python 3.11.7, numpy 2.4.6, scipy 1.17.1, "
                    "blas scipy-openblas 0.3.31")
    results = {"base": _runs(SLOW), "head": _runs(FAST)}
    text = ab.format_report(ab.analyse(results, SPECS), results,
                            f"sweep: 10 pairs\n{line}")
    assert text.splitlines()[:2] == ["sweep: 10 pairs", line]
