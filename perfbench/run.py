"""Repository benchmark: train, serve and sweep the paper-shape SNN.

Run from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Each workload builds its inputs from ``--seed``, measures and checks the
program's outputs (see ``train.py``, ``serve.py``, ``sweep.py``).  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

End-to-end metrics (``--trace 0``), the same names on every workload:

* ``op_p50_ms`` / ``op_p90_ms`` -- median and 90th percentile time of one
  operation: a training step, a served chunk (from when it was due, in
  the open-loop phase) or one programming draw of the sweep;
* ``items_per_s`` -- training samples, served chunks (closed-loop
  capacity) or evaluated samples per second;
* ``setup_s`` -- time to build the workload once the program is
  imported: network, inputs, program objects and a warm-up call.

Per-layer metrics (``--trace 1``, a separate run): engine / stack /
client time per operation and engine batch rows (see ``timing.py``), and
the spike events entering each neural layer per sample.

Steadiness on a small shared machine: the measured time is split over
``WORKERS`` fresh worker processes run one after another, since memory
layout and hash seeds make one process differ from the next by several
per cent.  Each worker builds its workload ``SETUP_REPEATS`` times and
measures once, in probe-separated blocks (see ``timing.py``); figures
come from the builds and blocks that ran while the machine was
undisturbed, as medians over the workers.  BLAS is pinned to one thread.
``WORKERS`` x (import + ``SETUP_REPEATS`` + 1 builds + check) is the
run's fixed cost: about 10 s on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import subprocess
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from timing import (LayerTrace, Meter, clock, figures, layer_figures, median,
                    network_events, probe, quiet)

WORKLOADS = ("train", "serve", "sweep")
WORKERS = 3
SETUP_REPEATS = 3
WORKER_OVERHEAD_S = 30.0


def _workload_class(name: str):
    if name == "train":
        from train import Train
        return Train
    if name == "serve":
        from serve import Serve
        return Serve
    from sweep import Sweep
    return Sweep


def worker(args) -> dict:
    """Build the workload, measure once, check; the raw figures."""
    workload = _workload_class(args.workload)
    state = workload(args.seed)   # untimed: imports the program
    setups = []
    before = probe()
    for _ in range(SETUP_REPEATS):
        state.close()
        gc.collect()
        start = clock()
        state = workload(args.seed)
        seconds = clock() - start
        after = probe()
        setups.append({"probes": [before, after], "seconds": seconds})
        before = after

    # Simulated statistics of the freshly built network: training in the
    # measured window moves the weights by as many steps as fit in it.
    events = (network_events(state.network, state.spike_sample)
              if args.trace else {})
    trace = LayerTrace(bool(args.trace))
    trace.install()
    gc.collect()
    meter = Meter(args.seconds, trace)
    try:
        attempted, failed = state.measure(meter, trace)
    finally:
        trace.uninstall()
    checks, wrong = state.check()
    state.close()
    return {
        "attempted": attempted,
        "failed": failed + wrong,
        "checks": checks,
        "setups": setups,
        "blocks": meter.records(),
        "events": events,
    }


def _run_worker(args) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--worker",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / WORKERS),
               "--trace", str(args.trace)]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds / WORKERS + WORKER_OVERHEAD_S,
                          check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    source = pathlib.Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {source}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    if args.worker:
        print(json.dumps(worker(args)))
        return 0

    parts = [_run_worker(args) for _ in range(WORKERS)]
    failed_checks = sorted({name for part in parts
                            for name, ok in part["checks"].items() if not ok})
    for check in failed_checks:
        print(f"perfbench: check failed: {check}", file=sys.stderr)
    if args.trace:
        metrics = layer_figures([block for part in parts
                                 for block in part["blocks"]])
        metrics.update(parts[0]["events"])
    else:
        metrics = figures([part["blocks"] for part in parts])
        setups = quiet([setup for part in parts for setup in part["setups"]],
                       lambda setup: True)
        metrics["setup_s"] = (median(setup["seconds"] for setup in setups),
                              "s")
    failed = sum(part["failed"] for part in parts)
    print(json.dumps({
        "correct": failed == 0 and not failed_checks,
        "attempted": sum(part["attempted"] for part in parts),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
