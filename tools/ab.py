#!/usr/bin/env python
"""A/B-compare two commits on the repository benchmark (``perfbench``).

Usage (from the repository root)::

    python tools/ab.py BASE HEAD --workload train --pairs 10 \\
        [--seed 1] [--seconds 12] [--trace 0] [--out ab_runs/train]

``BASE`` and ``HEAD`` are git revisions (to measure uncommitted work,
pass ``$(git stash create)``, a commit of the working tree that moves no
branch).  Each is exported with ``git archive`` into a temporary
directory, so the repository's own checkout, index and worktree list are
never touched, and ``perfbench/run.py`` runs from each export's root
with the same command, seed and run length on both sides.  Pair ``i`` runs both sides back to back, alternating
which goes first (``BASE`` first in even pairs).

Every run keeps its raw output in a folder of its own,
``OUT/raw_runs/run_<side>_repetition_<pair>/`` (``result.json``: the
benchmark's final JSON line; ``stdout.txt``, ``stderr.txt``,
``meta.json``: revision, commit, order and timing), and
``OUT/run_table.csv`` holds one row per run.  The report (also saved as
``OUT/report.txt``) gives, per metric:

* the change's wins over the parent, pair by pair (ties count for
  neither side), in the direction ``BENCHMARK.json`` declares;
* each side's median and quartiles, the median ratio HEAD/BASE and the
  parent's quartile distance (IQR);
* a 95% paired bootstrap interval for the median ratio: ``BOOTSTRAP``
  resamples of the pairs, drawn with a fixed seed so a report is
  reproducible;
* ``gain``: the acceptance rule for a claimed gain — at least
  ``MIN_PAIRS`` pairs, the change winning at least nine tenths of them,
  and the medians differing, in the change's favour, by more than the
  parent's IQR — granted only when every change run is correct and the
  change fails no larger share of its operations than the parent;
* ``bound`` (end-to-end metrics): ``ok`` when the change's median is no
  worse than the parent's by more than the metric's bound, ``worse``
  when it is, ``unresolved`` when either side's IQR exceeds the bound
  (relative to the parent's median) and not every change run beats
  every parent run.

The script never modifies ``perfbench/`` or ``BENCHMARK.json``; it reads
the metric directions and bounds from the BASE export's
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import pathlib
import random
import subprocess
import sys
import tarfile
import tempfile
import time

#: Fewest pairs a gain may rest on.
MIN_PAIRS = 10
#: Share of the pairs the change must win for a gain.
WIN_SHARE = 0.9
#: Resamples of the pairs behind a median-ratio interval, and their seed.
BOOTSTRAP = 2000
BOOTSTRAP_SEED = 0
SIDES = ("base", "head")


# -- statistics ---------------------------------------------------------------

def quantile(values, q: float) -> float:
    """The ``q`` quantile of ``values``, linearly interpolated between
    order statistics (the ``perfbench`` convention)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``."""
    return tuple(quantile(values, q) for q in (0.25, 0.5, 0.75))


def _improvement(base: float, head: float, better: str) -> float:
    """How much ``head`` beats ``base`` (positive) in direction ``better``."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    return base - head if better == "lower" else head - base


def compare(base, head, better: str, bound: float | None = None) -> dict:
    """Paired comparison of one metric; ``base[i]`` and ``head[i]`` are
    pair ``i``'s readings.  See the module docstring for the rules."""
    if len(base) != len(head) or not base:
        raise ValueError("need the same, nonzero number of base and head runs")
    pairs = len(base)
    wins = sum(_improvement(b, h, better) > 0 for b, h in zip(base, head))
    losses = sum(_improvement(b, h, better) < 0 for b, h in zip(base, head))
    base_q = quartiles(base)
    head_q = quartiles(head)
    base_iqr = base_q[2] - base_q[0]
    gap = _improvement(base_q[1], head_q[1], better)
    result = {
        "pairs": pairs,
        "wins": wins,
        "losses": losses,
        "base": base_q,
        "head": head_q,
        "ratio": head_q[1] / base_q[1] if base_q[1] else math.nan,
        "ratio_ci": ratio_interval(base, head),
        "base_iqr": base_iqr,
        "gain": (pairs >= MIN_PAIRS
                 and wins >= math.ceil(WIN_SHARE * pairs)
                 and gap > base_iqr),
        "bound": None,
    }
    if bound is not None:
        result["bound"] = bound_verdict(base, head, better, bound)
    return result


def ratio_interval(base, head) -> tuple[float, float]:
    """Paired bootstrap 95% percentile interval of the median ratio
    HEAD/BASE.

    Each of ``BOOTSTRAP`` resamples draws ``len(base)`` pair indices with
    replacement, so a pair's two readings stay together; the fixed seed
    makes a report reproducible.  A resample whose parent median is 0 has
    no ratio and is dropped.
    """
    rng = random.Random(BOOTSTRAP_SEED)
    pairs = range(len(base))
    ratios = []
    for _ in range(BOOTSTRAP):
        picks = rng.choices(pairs, k=len(base))
        base_median = quantile([base[i] for i in picks], 0.5)
        if base_median:
            ratios.append(quantile([head[i] for i in picks], 0.5)
                          / base_median)
    if not ratios:
        return math.nan, math.nan
    return quantile(ratios, 0.025), quantile(ratios, 0.975)


def bound_verdict(base, head, better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for a metric with a regression
    bound (a fraction of the parent's median)."""
    base_q = quartiles(base)
    head_q = quartiles(head)
    scale = abs(base_q[1])
    if scale == 0:
        return "ok" if _improvement(base_q[1], head_q[1], better) >= 0 \
            else "worse"
    if -_improvement(base_q[1], head_q[1], better) > bound * scale:
        return "worse"
    spread = max(base_q[2] - base_q[0], head_q[2] - head_q[0]) / scale
    if spread > bound:
        worst_head = max(head) if better == "lower" else min(head)
        best_base = min(base) if better == "lower" else max(base)
        if _improvement(best_base, worst_head, better) <= 0:
            return "unresolved"
    return "ok"


def metric_specs(benchmark: dict) -> dict:
    """``{name: (better, bound | None)}`` from a ``BENCHMARK.json``."""
    specs = {}
    for entry in benchmark.get("end_to_end", []):
        specs[entry["name"]] = (entry["better"], entry.get("bound"))
    for entry in benchmark.get("per_layer", []):
        specs[entry["name"]] = (entry["better"], None)
    return specs


def failed_share(runs) -> float:
    """Failed operations over attempted ones, across ``runs``."""
    attempted = sum(run.get("attempted", 0) for run in runs)
    return sum(run.get("failed", 0) for run in runs) / max(attempted, 1)


def gain_blocker(results: dict) -> str | None:
    """Why no metric may claim a gain on these runs, or ``None``: every
    change run must be correct and fail no larger share of its
    operations than the parent's runs do."""
    if not all(run.get("correct", False) for run in results["head"]):
        return "a head run is not correct"
    if failed_share(results["head"]) > failed_share(results["base"]):
        return "head fails a larger share of operations than base"
    return None


def analyse(results: dict, specs: dict) -> dict:
    """Per-metric :func:`compare` over ``results[side]`` (one benchmark
    JSON per pair); metrics missing from a run or from ``specs`` are
    skipped.  A :func:`gain_blocker` voids every gain."""
    names = [name for name in specs
             if all(name in run["metrics"]
                    for side in SIDES for run in results[side])]
    blocked = gain_blocker(results) is not None
    report = {}
    for name in names:
        better, bound = specs[name]
        base = [run["metrics"][name]["value"] for run in results["base"]]
        head = [run["metrics"][name]["value"] for run in results["head"]]
        report[name] = compare(base, head, better, bound)
        if blocked:
            report[name]["gain"] = False
    return report


def format_report(report: dict, results: dict, header: str) -> str:
    """The plain-text report table."""
    lines = [header]
    for side in SIDES:
        runs = results[side]
        failed = sum(run.get("failed", 0) for run in runs)
        attempted = sum(run.get("attempted", 0) for run in runs)
        correct = all(run.get("correct", False) for run in runs)
        lines.append(f"{side}: {len(runs)} runs, correct={correct}, "
                     f"failed {failed} of {attempted} operations")
    blocker = gain_blocker(results)
    if blocker:
        lines.append(f"no gain counts: {blocker}")
    lines.append("")
    lines.append(f"{'metric':<22} {'wins':>7} {'base median [q1, q3]':>30} "
                 f"{'head median [q1, q3]':>30} {'ratio':>7} "
                 f"{'ratio 95% CI':>17} {'base IQR':>10} {'gain':>5} "
                 f"{'bound':>10}")
    for name, row in report.items():
        base_q, head_q = row["base"], row["head"]
        low, high = row["ratio_ci"]
        lines.append(
            f"{name:<22} {row['wins']:>3}/{row['pairs']:<3} "
            f"{_fmt(base_q):>30} {_fmt(head_q):>30} {row['ratio']:>7.3f} "
            f"{f'[{low:.3f}, {high:.3f}]':>17} "
            f"{row['base_iqr']:>10.4g} {'PASS' if row['gain'] else 'fail':>5} "
            f"{row['bound'] or '-':>10}")
    return "\n".join(lines) + "\n"


def _fmt(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


# -- running ------------------------------------------------------------------

def _git(repo: pathlib.Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=repo, check=True,
                          stdout=subprocess.PIPE).stdout


def export(repo: pathlib.Path, rev: str, dest: pathlib.Path) -> str:
    """Extract ``rev``'s tree into ``dest``; returns the commit id."""
    commit = _git(repo, "rev-parse", "--verify",
                  f"{rev}^{{commit}}").decode().strip()
    archive = _git(repo, "archive", "--format=tar", commit)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return commit


def run_once(tree: pathlib.Path, args, folder: pathlib.Path,
             meta: dict) -> dict:
    """One ``perfbench/run.py`` run in ``tree``; keeps its raw output in
    ``folder`` and returns the parsed final JSON line."""
    command = [sys.executable, "perfbench/run.py", "--workload",
               args.workload, "--seed", str(args.seed), "--seconds",
               repr(args.seconds), "--trace", str(args.trace)]
    folder.mkdir(parents=True)
    start = time.time()
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    meta = dict(meta, command=command, started=start,
                seconds=time.time() - start, returncode=done.returncode)
    (folder / "stdout.txt").write_text(done.stdout)
    (folder / "stderr.txt").write_text(done.stderr)
    (folder / "meta.json").write_text(json.dumps(meta, indent=2) + "\n")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} (exit "
                           f"{done.returncode}); see {folder}")
    result = json.loads(lines[-1])
    (folder / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def write_run_table(path: pathlib.Path, results: dict, order: list) -> None:
    """One row per run: pair, side, position in the pair, metrics."""
    names = sorted({name for side in SIDES for run in results[side]
                    for name in run["metrics"]})
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["pair", "side", "position", "correct", "failed",
                         *names])
        for pair, first in enumerate(order):
            for side in SIDES:
                run = results[side][pair]
                writer.writerow([
                    pair, side, 0 if side == first else 1,
                    run.get("correct"), run.get("failed"),
                    *(run["metrics"].get(name, {}).get("value", "")
                      for name in names)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", help="parent revision")
    parser.add_argument("head", help="changed revision")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=pathlib.Path, default=None,
                        help="folder for raw runs and the report "
                             "(default: ab_runs/<workload>-<time>)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    repo = pathlib.Path(_git(pathlib.Path.cwd(), "rev-parse",
                             "--show-toplevel").decode().strip())
    out = args.out or repo / "ab_runs" / (
        f"{args.workload}-{time.strftime('%Y%m%d-%H%M%S')}")
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ab-") as scratch:
        trees, commits = {}, {}
        for side, rev in zip(SIDES, (args.base, args.head)):
            trees[side] = pathlib.Path(scratch) / side
            commits[side] = export(repo, rev, trees[side])
        benchmark = json.loads((trees["base"] / "BENCHMARK.json").read_text())
        if args.seconds is None:
            args.seconds = float(benchmark["run_seconds"])
        results = {side: [] for side in SIDES}
        order = []
        for pair in range(args.pairs):
            first = SIDES[pair % 2]
            order.append(first)
            for position, side in enumerate(
                    (first, SIDES[1 - SIDES.index(first)])):
                folder = out / "raw_runs" / f"run_{side}_repetition_{pair}"
                meta = {"side": side, "rev": getattr(args, side),
                        "commit": commits[side], "pair": pair,
                        "position": position}
                results[side].append(run_once(trees[side], args, folder,
                                              meta))
                print(f"pair {pair} {side}: done", file=sys.stderr)
    write_run_table(out / "run_table.csv", results, order)
    header = (f"{args.workload}: {args.pairs} pairs, seed {args.seed}, "
              f"{args.seconds:g} s, trace {args.trace}; base "
              f"{args.base} ({commits['base'][:12]}), head {args.head} "
              f"({commits['head'][:12]})")
    text = format_report(analyse(results, metric_specs(benchmark)), results,
                         header)
    (out / "report.txt").write_text(text)
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
