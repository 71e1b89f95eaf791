"""Structured tracing: spans, events, a bounded ring buffer, JSONL export.

The *temporal* half of the telemetry plane (:mod:`repro.obs`).  A
:class:`Tracer` records two record shapes:

* **spans** — named intervals with ``start``/``duration`` on the
  tracer's clock, opened with :meth:`Tracer.span` (a context manager)
  and nested through a current-span stack (children carry
  ``parent``);
* **events** — named instants (``duration`` is ``None``), e.g. a ticket
  changing state or a fault rule firing.

Determinism is the design center: ids are *sequential*, never random —
``trace`` ids count root spans, ``span`` ids count records — and the
clock is injectable, so a run driven by a fake timer exports
byte-identical JSONL twice in a row (pinned by the harness trace tests).

The buffer is a ring (``capacity`` records, default 2\\ :sup:`16`);
overflow drops the *oldest* records and counts them in
:attr:`Tracer.dropped` — telemetry must never grow without bound under
an unexpectedly chatty workload.

Export is JSON Lines, one record per line with a fixed key order
(:data:`RECORD_FIELDS`); :func:`parse_jsonl` is the schema validator the
``tools/gates.py`` and ``tools/trace_view.py`` read traces through.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path

__all__ = ["RECORD_FIELDS", "Span", "Tracer", "parse_jsonl",
           "validate_record"]

#: Fixed JSONL key order of one trace record.
RECORD_FIELDS = ("type", "trace", "span", "parent", "name", "start",
                 "duration", "attrs")

#: Shared compact encoder — ``json.dumps`` with keyword arguments
#: builds a fresh ``JSONEncoder`` per call, which dominates export time
#: at trace scale.
_ENCODER = json.JSONEncoder(separators=(",", ":"), sort_keys=False)


#: Exact types that pass through :func:`_coerce` untouched — the hot
#: path (thousands of events per serving run) skips the function call
#: entirely for these.
_SAFE_SCALARS = frozenset({type(None), bool, int, float, str})


def _coerce_attrs(attrs: dict) -> dict:
    """Coerce ``attrs`` values in place; ``attrs`` must be a fresh dict
    (the ``**kwargs`` mapping) the caller owns."""
    for key, value in attrs.items():
        if type(value) not in _SAFE_SCALARS:
            attrs[key] = _coerce(value)
    return attrs


_INFINITIES = (float("inf"), float("-inf"))


def _attrs_json(attrs: dict) -> str:
    """Compact JSON for a coerced attrs dict.

    Values are scalars by construction (:func:`_coerce_attrs` ran at
    record time) and keys are ``**kwargs`` identifiers, so almost every
    item renders with plain formatting; strings, non-finite floats and
    exotic keys fall back to the shared encoder.  This is the body of
    the export loop — about 2x faster than encoding the dict whole.
    """
    if not attrs:
        return "{}"
    encode = _ENCODER.encode
    parts = []
    for key, value in attrs.items():
        if '"' in key or "\\" in key:
            key_json = encode(key)
        else:
            key_json = f'"{key}"'
        kind = type(value)
        if kind is int:
            parts.append("%s:%d" % (key_json, value))
        elif kind is float:
            if value == value and value not in _INFINITIES:
                parts.append("%s:%s" % (key_json, repr(value)))
            else:  # nan/inf: keep json.dumps' (non-standard) spelling
                parts.append("%s:%s" % (key_json, encode(value)))
        elif kind is bool:
            parts.append("%s:true" % key_json if value
                         else "%s:false" % key_json)
        elif value is None:
            parts.append("%s:null" % key_json)
        else:
            parts.append("%s:%s" % (key_json, encode(value)))
    return "{" + ",".join(parts) + "}"


def _coerce(value):
    """Attribute values must survive JSON exactly: scalars only."""
    if value is None or isinstance(value, (bool, int, float, str)):
        # Flatten float subclasses (np.float64) to builtins so
        # json.dumps output is stable across numpy versions.
        if isinstance(value, bool):
            return bool(value)
        if isinstance(value, int):
            return int(value)
        if isinstance(value, float):
            return float(value)
        return value
    # numpy scalars without builtin parentage (np.int64 under numpy 2):
    # unwrap through .item() rather than import numpy here.
    item = getattr(value, "item", None)
    if callable(item):
        try:
            unwrapped = item()
        except Exception:
            return str(value)
        if unwrapped is not value:
            return _coerce(unwrapped)
    return str(value)


class Span:
    """One open interval; also the context manager :meth:`Tracer.span`
    returns.  Attributes may be added while open via :meth:`set`."""

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "start", "duration", "attrs")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str,
                 parent_id: str | None, name: str, start: float,
                 attrs: dict):
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration: float | None = None
        self.attrs = attrs

    def set(self, **attrs) -> "Span":
        for key, value in attrs.items():
            self.attrs[key] = _coerce(value)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs["error"] = exc_type.__name__
        self._tracer._finish(self)

    def __repr__(self) -> str:
        state = ("open" if self.duration is None
                 else f"{1e3 * self.duration:.3f} ms")
        return f"Span({self.name}, {self.span_id}, {state})"


class Tracer:
    """Span/event recorder with a bounded ring buffer.

    Parameters
    ----------
    clock:
        0-arg callable returning seconds (monotonic); default
        ``time.perf_counter``.  The harness injects its fake timer here,
        which is what makes exported traces reproducible.
    capacity:
        Ring-buffer size in records; the oldest records are dropped
        (and counted in :attr:`dropped`) past it.
    """

    def __init__(self, clock=None, capacity: int = 65536):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.clock = time.perf_counter if clock is None else clock
        self.capacity = int(capacity)
        # Ring of closed records as bare field tuples (RECORD_FIELDS
        # order); dict views materialize on .records access only.
        self._records: deque[tuple] = deque(maxlen=self.capacity)
        self._stack: list[Span] = []
        self._trace_seq = 0
        self._span_seq = 0
        self.dropped = 0

    # -- recording -----------------------------------------------------------
    def _next_span_id(self) -> str:
        self._span_seq += 1
        return f"sp{self._span_seq:06d}"

    def _current_ids(self) -> tuple[str, str | None]:
        """(trace id, parent span id) for a new record opened now."""
        if self._stack:
            top = self._stack[-1]
            return top.trace_id, top.span_id
        self._trace_seq += 1
        return f"tr{self._trace_seq:04d}", None

    def _append(self, record: tuple) -> None:
        if len(self._records) == self.capacity:
            self.dropped += 1
        self._records.append(record)

    def span(self, name: str, **attrs) -> Span:
        """Open a child span of the current span (a context manager)."""
        trace_id, parent_id = self._current_ids()
        span = Span(self, trace_id, self._next_span_id(), parent_id, name,
                    float(self.clock()), _coerce_attrs(attrs))
        self._stack.append(span)
        return span

    def _finish(self, span: Span) -> None:
        span.duration = float(self.clock()) - span.start
        # Tolerate exotic exits (a generator abandoned mid-span): pop to
        # this span, closing anything opened inside and never closed.
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self._append(("span", span.trace_id, span.span_id, span.parent_id,
                      span.name, span.start, span.duration, span.attrs))

    def event(self, name: str, **attrs) -> None:
        """Record a point-in-time event under the current span (if any).

        The hottest recording path (three lifecycle events per served
        request): id bookkeeping, attr coercion and the ring append are
        inlined here on purpose, the ring stores a bare tuple — the
        dict view is only built on :attr:`records` access — and nothing
        is returned.
        """
        stack = self._stack
        if stack:
            top = stack[-1]
            trace_id, parent_id = top.trace_id, top.span_id
        else:
            self._trace_seq += 1
            trace_id, parent_id = f"tr{self._trace_seq:04d}", None
        self._span_seq += 1
        for key, value in attrs.items():
            if type(value) not in _SAFE_SCALARS:
                attrs[key] = _coerce(value)
        record = ("event", trace_id, f"sp{self._span_seq:06d}", parent_id,
                  name, float(self.clock()), None, attrs)
        records = self._records
        if len(records) == self.capacity:
            self.dropped += 1
        records.append(record)

    # -- access / export ------------------------------------------------------
    @property
    def records(self) -> list[dict]:
        """Closed records, oldest first (open spans are not included)."""
        return [dict(zip(RECORD_FIELDS, record))
                for record in self._records]

    def clear(self) -> None:
        self._records.clear()
        self.dropped = 0

    def export_jsonl(self) -> str:
        """One JSON object per line, fixed key order, oldest first.

        The envelope is rendered by hand: ``type``/``trace``/``span``/
        ``parent`` are tokens this tracer generated (never need
        escaping), ``start``/``duration`` are floats whose ``repr`` is
        shortest-round-trip JSON, and only the free-form fields
        (``name``, ``attrs``) go through the JSON encoder.  Roughly 3x
        faster than encoding whole records, which is what keeps the
        telemetry overhead gate (``tools/gates.py``) honest.
        """
        encode = _ENCODER.encode
        lines = [
            '{"type":"%s","trace":"%s","span":"%s","parent":%s,'
            '"name":%s,"start":%s,"duration":%s,"attrs":%s}' % (
                rtype, trace, span,
                "null" if parent is None else f'"{parent}"',
                encode(name), repr(start),
                "null" if duration is None else repr(duration),
                _attrs_json(attrs))
            for rtype, trace, span, parent, name, start, duration, attrs
            in self._records
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_jsonl(self, path) -> Path:
        path = Path(path)
        path.write_text(self.export_jsonl(), encoding="utf-8")
        return path

    def __len__(self) -> int:
        """Closed-record count (no dict materialization)."""
        return len(self._records)

    def __repr__(self) -> str:
        return (f"Tracer({len(self._records)}/{self.capacity} records, "
                f"dropped={self.dropped}, open={len(self._stack)})")


def validate_record(record: dict) -> dict:
    """Raise ``ValueError`` unless ``record`` matches the trace schema."""
    if not isinstance(record, dict):
        raise ValueError(f"trace record must be an object, got "
                         f"{type(record).__name__}")
    missing = [field for field in RECORD_FIELDS if field not in record]
    if missing:
        raise ValueError(f"trace record is missing fields {missing}")
    extra = sorted(set(record) - set(RECORD_FIELDS))
    if extra:
        raise ValueError(f"trace record has unknown fields {extra}")
    if record["type"] not in ("span", "event"):
        raise ValueError(f"trace record type must be span|event, "
                         f"got {record['type']!r}")
    for field in ("trace", "span", "name"):
        if not isinstance(record[field], str) or not record[field]:
            raise ValueError(f"trace record {field!r} must be a non-empty "
                             f"string, got {record[field]!r}")
    if record["parent"] is not None and not isinstance(record["parent"], str):
        raise ValueError("trace record parent must be a span id or null")
    if not isinstance(record["start"], (int, float)):
        raise ValueError("trace record start must be a number")
    duration = record["duration"]
    if record["type"] == "span":
        if not isinstance(duration, (int, float)) or duration < 0:
            raise ValueError("span records need a duration >= 0")
    elif duration is not None:
        raise ValueError("event records carry duration null")
    if not isinstance(record["attrs"], dict):
        raise ValueError("trace record attrs must be an object")
    for key, value in record["attrs"].items():
        if value is not None and not isinstance(value, (bool, int, float,
                                                        str)):
            raise ValueError(
                f"trace attr {key!r} must be a JSON scalar, "
                f"got {type(value).__name__}")
    return record


def parse_jsonl(text: str) -> list[dict]:
    """Parse and validate a JSONL trace export; raises ``ValueError`` on
    the first malformed line (with its line number)."""
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"trace line {lineno} is not JSON: "
                             f"{exc}") from exc
        try:
            records.append(validate_record(record))
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from exc
    return records
