#!/usr/bin/env python
"""Render an exported JSONL trace (:mod:`repro.obs`) as ASCII views.

Three views over the same trace file:

* ``tickets`` (default) — the full lifecycle of every request ticket,
  reconstructed from the server's ``ticket.*`` events: submitted ->
  batched -> completed / expired / failed, with the degraded / retried
  rungs and the shadow divergence the scatter stamped on completion.
* ``workers`` — the pool plane: dispatch spans plus per-worker respawn
  (heal restarts, with generation) and retry events.
* ``timeline`` — every span as a proportional bar on the trace clock,
  indented by parent nesting, events as point markers.

Usage::

    PYTHONPATH=src python tools/trace_view.py traces/run.trace.jsonl
    PYTHONPATH=src python tools/trace_view.py run.trace.jsonl \\
        --view timeline --width 72

Reads any trace the harness (``repro-exp harness --trace-dir``) or a
raw ``Tracer.write_jsonl`` (e.g. a served target's
``telemetry.tracer`` after an ``open_loop`` run) produced; validates
every record against the trace schema first
(:func:`repro.obs.parse_jsonl`).
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs import parse_jsonl  # noqa: E402

#: Event names that resolve a ticket (terminal lifecycle states).
_TERMINAL = {"ticket.completed", "ticket.expired", "ticket.failed",
             "ticket.rejected"}


def load_trace(path) -> list[dict]:
    """Read and schema-validate one JSONL trace file."""
    return parse_jsonl(Path(path).read_text(encoding="utf-8"))


def ticket_lifecycles(records: list[dict]) -> dict:
    """``{request id: [event record, ...]}`` in trace order.

    Rejected submissions carry a request id too (the seq the admission
    attempt would have used), so every admission attempt in the trace
    has exactly one lifecycle — terminal state included.
    """
    lifecycles: dict = defaultdict(list)
    for record in records:
        if (record["type"] == "event"
                and record["name"].startswith("ticket.")
                and "request" in record["attrs"]):
            lifecycles[record["attrs"]["request"]].append(record)
    return dict(lifecycles)


def _fmt_attrs(attrs: dict, skip=("request", "session")) -> str:
    parts = []
    for key, value in attrs.items():
        if key in skip or value is None or value is False:
            continue
        if value is True:
            parts.append(key)
        elif isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        else:
            parts.append(f"{key}={value}")
    return f" [{', '.join(parts)}]" if parts else ""


def render_tickets(records: list[dict]) -> str:
    """One line per lifecycle stage, grouped per request ticket."""
    lifecycles = ticket_lifecycles(records)
    if not lifecycles:
        return "no ticket events in trace\n"
    lines = []
    unresolved = 0
    for request in sorted(lifecycles):
        events = lifecycles[request]
        session = events[0]["attrs"].get("session", "?")
        terminal = next((e["name"] for e in events
                         if e["name"] in _TERMINAL), None)
        if terminal is None:
            unresolved += 1
        state = (terminal or "IN-FLIGHT").removeprefix("ticket.")
        lines.append(f"ticket #{request} session={session} -> {state}")
        start = events[0]["start"]
        for event in events:
            stage = event["name"].removeprefix("ticket.")
            lines.append(f"  +{1e3 * (event['start'] - start):9.3f} ms  "
                         f"{stage}{_fmt_attrs(event['attrs'])}")
    lines.append(f"{len(lifecycles)} tickets, {unresolved} unresolved")
    return "\n".join(lines) + "\n"


def render_workers(records: list[dict]) -> str:
    """Dispatch spans plus per-worker respawn/retry event groups."""
    dispatches = [r for r in records
                  if r["type"] == "span" and r["name"] == "pool.dispatch"]
    by_worker: dict = defaultdict(list)
    for record in records:
        if (record["type"] == "event" and record["name"].startswith("pool.")
                and "worker" in record["attrs"]):
            by_worker[record["attrs"]["worker"]].append(record)
    lines = [f"{len(dispatches)} dispatch spans"]
    for span in dispatches:
        lines.append(f"  {span['span']}  {1e3 * span['duration']:9.3f} ms"
                     f"{_fmt_attrs(span['attrs'])}")
    for worker in sorted(by_worker):
        lines.append(f"worker {worker}:")
        for event in by_worker[worker]:
            lines.append(f"  {event['name'].removeprefix('pool.')}"
                         f"{_fmt_attrs(event['attrs'], skip=('worker',))}")
    if len(lines) == 1 and not by_worker:
        lines.append("  (no pool events in trace)")
    return "\n".join(lines) + "\n"


def render_timeline(records: list[dict], width: int = 64) -> str:
    """Proportional span bars on the trace clock, nested by parent."""
    if not records:
        return "empty trace\n"
    t0 = min(r["start"] for r in records)
    t1 = max(r["start"] + (r["duration"] or 0.0) for r in records)
    scale = (width - 1) / max(t1 - t0, 1e-12)
    depth: dict = {}
    lines = [f"trace window {1e3 * (t1 - t0):.3f} ms, "
             f"{len(records)} records"]
    for record in records:
        parent = record["parent"]
        level = depth.get(parent, -1) + 1
        if record["type"] == "span":
            depth[record["span"]] = level
            left = int((record["start"] - t0) * scale)
            span_cols = max(int(record["duration"] * scale), 1)
            bar = " " * left + "#" * min(span_cols, width - left)
        else:
            left = int((record["start"] - t0) * scale)
            bar = " " * left + "*"
        label = f"{'  ' * level}{record['name']}"
        lines.append(f"{label:<28.28} |{bar:<{width}}|")
    return "\n".join(lines) + "\n"


_VIEWS = {
    "tickets": lambda records, width: render_tickets(records),
    "workers": lambda records, width: render_workers(records),
    "timeline": render_timeline,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Render a repro.obs JSONL trace as an ASCII view.")
    parser.add_argument("trace", help="path to a .trace.jsonl export")
    parser.add_argument("--view", choices=sorted(_VIEWS),
                        default="tickets")
    parser.add_argument("--width", type=int, default=64,
                        help="timeline bar width in columns")
    args = parser.parse_args(argv)
    records = load_trace(args.trace)
    sys.stdout.write(_VIEWS[args.view](records, args.width))
    return 0


if __name__ == "__main__":
    sys.exit(main())
