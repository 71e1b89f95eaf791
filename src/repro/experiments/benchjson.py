"""Regenerate the ``BENCH_*.json`` artifacts from one run table.

The run table (:mod:`repro.common.runtable`) is the source of truth; the
three JSON files CI and the docs consume are *views* of it, produced
here so their shapes stay byte-compatible with what
``tools/bench_to_json.py`` historically wrote:

* :func:`throughput_report` — ``BENCH_throughput.json``: forward /
  backward / train_step / inference / variation_sweep sections plus the
  hardware-aware train-step rows and overhead ratios;
* :func:`serving_report` — ``BENCH_serving.json``: the 4-config x
  3-load open-loop serving grid;
* :func:`aware_report` — ``BENCH_aware.json``: only the hardware-aware
  train-step rows.

Rows are selected by their identity columns (kind, engine, precision,
workers, hardware, workload, load); when the table carries repetitions,
repetition 0 is the reported one (the historical scripts measured each
cell once).  ``tools/bench_to_json.py --from-table`` is the CLI over
these functions.
"""

from __future__ import annotations

import datetime
import os
import platform

from ..common.benchcfg import (
    BENCH_FORWARD_BATCH,
    BENCH_SIZES,
    BENCH_STEPS,
    BENCH_TRAIN_BATCH,
)
from ..common.errors import ExperimentError
from ..common.runtable import RunTable

__all__ = [
    "aware_report",
    "environment_meta",
    "fleet_row_to_report",
    "serving_report",
    "serving_row_to_report",
    "serving_workload_meta",
    "throughput_report",
]


def environment_meta() -> dict:
    import numpy as np

    return {
        # Provenance stamp on the report artifact, outside every
        # determinism contract (bench JSONs are views, not inputs).
        # repro: disable=determinism
        "generated": datetime.datetime.now(datetime.timezone.utc)
                     .isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _rows(table: RunTable, kind: str, **match) -> list[dict]:
    out = []
    for row in table.rows:
        if row["kind"] != kind or row["repetition"] != 0:
            continue
        if all(row[column] == value for column, value in match.items()):
            out.append(row)
    return out


def _one(table: RunTable, kind: str, **match) -> dict | None:
    rows = _rows(table, kind, **match)
    return rows[0] if rows else None


def _timing(row: dict) -> dict:
    return {
        "min_ms": row["min_ms"],
        "mean_ms": row["mean_ms"],
        "max_ms": row["max_ms"],
        "rounds": row["rounds"],
    }


def _require(row: dict | None, what: str) -> dict:
    if row is None:
        raise ExperimentError(
            f"run table has no row for {what}; run the matching preset "
            "(see repro.experiments.harness.PRESETS) before converting")
    return row


def _worker_sections(table: RunTable, kind: str) -> dict:
    """``serial`` / ``workersN`` rows of a pooled kind, table order."""
    section = {}
    for row in _rows(table, kind):
        if kind == "train_step" and row["hardware"] != "ideal":
            continue  # the aware rows have their own section
        label = ("serial" if row["workers"] == 0
                 else f"workers{row['workers']}")
        section.setdefault(label, _timing(row))
    return section


def _aware_rows(table: RunTable) -> dict:
    """ideal / hardware_aware / hardware_aware_noise + overhead ratios.

    The ideal baseline is the serial ideal row of the scenario that holds
    the aware rows, so all three ran under the same conditions.  The
    overheads are ratios of ``min_ms``: one slow round drags a mean but
    not a minimum.
    """
    aware = noise = None
    for row in _rows(table, "train_step", workers=0):
        if row["hardware"] == "ideal":
            continue
        if row["hw_variation"] == 0.0 and aware is None:
            aware = row
        elif row["hw_variation"] and noise is None:
            noise = row
    aware = _require(aware, "a hardware-aware (variation 0) train_step cell")
    ideal = _require(
        _one(table, "train_step", workers=0, hardware="ideal",
             scenario=aware["scenario"]),
        f"an ideal serial train_step cell in scenario {aware['scenario']!r}")
    rows = {
        "ideal": _timing(ideal),
        "hardware_aware": _timing(aware),
        "hardware_aware_noise": _timing(_require(
            noise, "a hardware-aware-noise train_step cell")),
    }
    base = rows["ideal"]["min_ms"]
    for key in ("hardware_aware", "hardware_aware_noise"):
        rows[f"overhead_{key}"] = round(rows[key]["min_ms"] / base, 3)
    return rows


def throughput_report(table: RunTable, meta: dict | None = None) -> dict:
    """``BENCH_throughput.json`` regenerated from ``table``."""
    from .harness import _SWEEP_SAMPLES, _SWEEP_SEEDS, _SWEEP_SIZES
    forward = {
        "fused": _timing(_require(
            _one(table, "forward", engine="fused", precision="float64"),
            "forward fused float64")),
        "fused_float32": _timing(_require(
            _one(table, "forward", engine="fused", precision="float32"),
            "forward fused float32")),
        "step_reference": _timing(_require(
            _one(table, "forward", engine="step", precision="float64"),
            "forward step float64")),
    }
    backward = {
        "fused": _timing(_require(
            _one(table, "backward", engine="fused"), "backward fused")),
        "reference": _timing(_require(
            _one(table, "backward", engine="step"), "backward reference")),
    }
    sweep_meta = {"sizes": list(_SWEEP_SIZES), "samples": _SWEEP_SAMPLES,
                  "n_seeds": _SWEEP_SEEDS}
    report = {
        "meta": {
            **(meta or environment_meta()),
            "shapes": {
                "sizes": list(BENCH_SIZES),
                "steps": BENCH_STEPS,
                "forward_batch": BENCH_FORWARD_BATCH,
                "train_batch": BENCH_TRAIN_BATCH,
                "sweep": sweep_meta,
            },
        },
        "forward": forward,
        "backward": backward,
        "train_step": _worker_sections(table, "train_step"),
        "inference": _worker_sections(table, "inference"),
        "variation_sweep": _worker_sections(table, "variation"),
    }
    report["train_step_hardware_aware"] = _aware_rows(table)
    return report


def serving_row_to_report(row: dict) -> dict:
    """One serving run-table row back in ``ServingReport.to_dict`` shape."""
    failed = row["requests_failed"] or 0
    expired = row["requests_expired"] or 0
    return {
        "offered_rps": row["rate_rps"],
        "duration_s": row["duration_s"],
        "submitted": ((row["completed"] or 0) + (row["rejected"] or 0)
                      + failed + expired),
        "completed": row["completed"],
        "rejected": row["rejected"],
        "ticks": row["ticks"],
        "throughput_rps": row["throughput_rps"],
        "mean_batch": row["mean_batch"],
        "steps_per_s": row["steps_per_s"],
        "latency_ms": {
            "p50": row["p50_ms"],
            "p95": row["p95_ms"],
            "p99": row["p99_ms"],
            "mean": row["mean_ms"],
            "max": row["max_ms"],
        },
        "divergence": row["divergence"],
        "faults_injected": row["faults_injected"] or 0,
        "requests_retried": row["requests_retried"] or 0,
        "requests_expired": expired,
        "requests_failed": failed,
        "recovery_p99_ms": row["recovery_p99_ms"],
        "availability": (1.0 if row["availability"] is None
                         else row["availability"]),
        "queue_wait_p95_ms": row.get("queue_wait_p95_ms"),
        "tick_compute_p95_ms": row.get("tick_compute_p95_ms"),
        # The run table carries no pool snapshot (harness serving cells
        # run in-process); the field exists so the regenerated shape
        # matches ServingReport.to_dict() exactly.
        "pool_stats": None,
    }


def _serving_config_id(row: dict) -> str:
    if row["hardware"] != "ideal":
        kind = "shadow" if str(row["hardware"]).startswith("shadow") \
            else "hardware"
        return f"{kind}_{row['precision']}"
    return f"{row['engine']}_{row['precision']}"


def serving_report(table: RunTable, meta: dict | None = None) -> dict:
    """``BENCH_serving.json`` regenerated from ``table``.

    Only the synthetic workload's rows land here — the historical
    serving benchmark streamed synthetic chunks, and keeping the config
    x load key structure byte-compatible is the point.  Sensor-workload
    rows stay in the table itself.
    """
    serving: dict = {}
    for row in _rows(table, "serving", workload="synthetic"):
        config = _serving_config_id(row)
        serving.setdefault(config, {})
        serving[config].setdefault(row["load"], serving_row_to_report(row))
    # Chaos rows (serving under an injected fault schedule) land in a
    # sibling section keyed by scenario name — their availability /
    # retry / expiry counters are the robustness acceptance numbers.
    chaos: dict = {}
    for row in _rows(table, "chaos"):
        chaos.setdefault(row["scenario"], {})
        chaos[row["scenario"]].setdefault(row["load"],
                                          serving_row_to_report(row))
    # Fleet rows land keyed scenario -> load -> {aggregate, tenants}:
    # the cell's fleet-wide row plus one report per tenant (the rows
    # whose run_id carries the "+<tenant>" suffix).
    fleet: dict = {}
    for row in _rows(table, "fleet"):
        cell = (fleet.setdefault(row["scenario"], {})
                .setdefault(row["load"], {"aggregate": None, "tenants": {}}))
        if row["tenant"] is None:
            if cell["aggregate"] is None:
                cell["aggregate"] = fleet_row_to_report(row)
        else:
            cell["tenants"].setdefault(row["tenant"],
                                       fleet_row_to_report(row))
    if not serving and not chaos and not fleet:
        raise ExperimentError(
            "run table has no synthetic serving rows (and no chaos or "
            "fleet rows); run the 'serving' preset before converting")
    if meta is None:
        meta = {**environment_meta(),
                "workload": serving_workload_meta()}
    report = {"meta": meta, "serving": serving}
    if chaos:
        report["chaos"] = chaos
    if fleet:
        report["fleet"] = fleet
    return report


def fleet_row_to_report(row: dict) -> dict:
    """One fleet run-table row (aggregate or per-tenant) as a report
    dict: the :func:`serving_row_to_report` shape plus the fleet
    columns.  Per-tenant rows carry only their own ``quota_rejected``;
    the replica/canary cells are aggregate-row facts and stay ``None``
    there."""
    report = serving_row_to_report(row)
    report.update(
        tenant=row["tenant"],
        replicas=row["replicas"],
        canary_weight=row["canary_weight"],
        canary_share=row["canary_share"],
        quota_rejected=row["quota_rejected"],
        misroutes=row["misroutes"],
    )
    return report


def serving_workload_meta() -> dict:
    """The ``meta.workload`` block of ``BENCH_serving.json`` — the fixed
    knobs of the canonical serving grid
    (:func:`repro.experiments.harness.serving_scenarios`)."""
    from .harness import serving_scenarios

    scenario = serving_scenarios()[0]
    hardware = next(spec for sc in serving_scenarios()
                    for spec in sc.hardware
                    if spec is not None and not spec.shadow)
    return {
        "sizes": list(scenario.sizes),
        "sessions": scenario.sessions,
        "chunk_steps": scenario.chunk_steps,
        "max_batch": scenario.max_batch,
        "max_wait_ms": scenario.max_wait_ms,
        "queue_limit": scenario.queue_limit,
        "spike_density": scenario.spike_density,
        "hardware_profile": {"bits": hardware.bits,
                             "variation": hardware.variation,
                             "seed": hardware.seed},
        "arrivals": "poisson open-loop, virtual arrival clock + measured "
                    "tick compute (see repro/serve/loadgen.py)",
    }


def aware_report(table: RunTable, meta: dict | None = None) -> dict:
    """``BENCH_aware.json`` regenerated from ``table``."""
    rows = _aware_rows(table)
    noise_row = None
    for row in _rows(table, "train_step", workers=0):
        if row["hardware"] != "ideal" and row["hw_variation"]:
            noise_row = row
            break
    operating_point = {
        "bits": noise_row["hw_bits"] if noise_row else None,
        "variation": noise_row["hw_variation"] if noise_row else None,
    }
    return {
        "meta": {
            **(meta or environment_meta()),
            "shapes": {"sizes": list(BENCH_SIZES), "steps": BENCH_STEPS,
                       "train_batch": BENCH_TRAIN_BATCH},
            "operating_point": operating_point,
        },
        "train_step": rows,
    }
