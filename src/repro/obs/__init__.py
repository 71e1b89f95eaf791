"""``repro.obs`` — the unified telemetry plane: metrics, traces, hooks.

One seam runs from engine ticks to the serving fleet:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  exact-quantile histograms (the numeric instruments
  ``ModelServer.stats`` / ``WorkerPool.stats`` are now views of);
* :class:`~repro.obs.trace.Tracer` — structured spans and events with a
  bounded ring buffer and JSONL export;
* :class:`Telemetry` — one clock + one registry + one tracer, the bundle
  a run installs.

Installation mirrors :mod:`repro.common.faults`: a process-global slot
(:func:`install` / :func:`active` / :func:`deactivate`) that every hook
consults through no-op-fast module helpers —

>>> with obs.active(obs.Telemetry(clock=timer)) as tel:
...     report = open_loop(target, ...)   # a server or a fleet; hooks
...                                       # record into tel
>>> tel.tracer.write_jsonl("run.trace.jsonl")

With nothing installed, :func:`span` returns a shared null context and
:func:`event` returns immediately — the production path pays one global
read.  Components that *always* meter (the server and pool counters
behind their ``stats`` properties) own a private registry instead and
only borrow the installed tracer, so metering cost never depends on
installation state.

Instrument catalog, trace schema and exporter formats:
``docs/observability.md``.  ``tools/trace_view.py`` renders exported
traces; ``tools/gates.py`` gates schema validity and overhead.
"""

from __future__ import annotations

import contextlib
import time

from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from .trace import RECORD_FIELDS, Span, Tracer, parse_jsonl, validate_record

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_MS",
    "RECORD_FIELDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Telemetry",
    "Tracer",
    "active",
    "active_telemetry",
    "deactivate",
    "event",
    "install",
    "parse_jsonl",
    "parse_prometheus",
    "span",
    "timed_span",
    "validate_record",
]


class Telemetry:
    """One run's telemetry bundle: a clock, a registry, a tracer.

    ``clock`` is the single time source for spans and profiling
    histograms; inject the harness timer to make a run's exported trace
    deterministic.  Components constructed while a bundle is installed
    (or handed one via ``telemetry=``) record their metrics into
    ``metrics``, so one Prometheus snapshot covers the whole run.
    """

    def __init__(self, clock=None, trace_capacity: int = 65536):
        self.clock = time.perf_counter if clock is None else clock
        self.metrics = MetricsRegistry()
        self.tracer = Tracer(clock=self.clock, capacity=trace_capacity)

    def span(self, name: str, **attrs) -> Span:
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs) -> None:
        self.tracer.event(name, **attrs)

    def timed_span(self, name: str, metric: str | None = None, **attrs):
        """A span that additionally observes its duration (milliseconds)
        into histogram ``metric`` on exit."""
        return _TimedSpan(self, self.tracer.span(name, **attrs), metric)

    def __repr__(self) -> str:
        return (f"Telemetry({len(self.tracer)} trace records, "
                f"{len(self.metrics.instruments())} instruments)")


class _TimedSpan:
    """Class-based context for :meth:`Telemetry.timed_span` — cheaper
    than a generator context manager on the engine hot path."""

    __slots__ = ("_telemetry", "_span", "_metric")

    def __init__(self, telemetry: "Telemetry", span: Span,
                 metric: str | None):
        self._telemetry = telemetry
        self._span = span
        self._metric = metric

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.__exit__(exc_type, exc, tb)
        if self._metric is not None:
            self._telemetry.metrics.histogram(self._metric).observe(
                self._span.duration * 1e3)


# ---------------------------------------------------------------------------
# Process-global installation (mirrors repro.common.faults)
# ---------------------------------------------------------------------------
_ACTIVE: Telemetry | None = None


def install(telemetry: Telemetry) -> Telemetry:
    """Make ``telemetry`` the process's active bundle (replacing any)."""
    global _ACTIVE
    _ACTIVE = telemetry
    return telemetry


def deactivate() -> None:
    """Remove the active bundle; every hook becomes a no-op again."""
    global _ACTIVE
    _ACTIVE = None


def active_telemetry() -> Telemetry | None:
    return _ACTIVE


@contextlib.contextmanager
def active(telemetry: Telemetry | None):
    """Scoped :func:`install` (``None`` is a no-op pass-through);
    restores the previous bundle on exit."""
    if telemetry is None:
        yield None
        return
    previous = _ACTIVE
    install(telemetry)
    try:
        yield telemetry
    finally:
        if previous is None:
            deactivate()
        else:
            install(previous)


class _NullSpan:
    """Shared no-op context for uninstrumented runs (one global read)."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        return None


#: The shared no-op span context — what hooks return when no telemetry
#: is installed (components with a ``telemetry=`` seam reuse it too).
NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Span on the installed tracer, or a shared null context."""
    if _ACTIVE is None:
        return NULL_SPAN
    return _ACTIVE.tracer.span(name, **attrs)


def event(name: str, **attrs) -> None:
    """Event on the installed tracer; no-op when none is installed."""
    if _ACTIVE is not None:
        _ACTIVE.tracer.event(name, **attrs)


def timed_span(name: str, metric: str | None = None, **attrs):
    """:meth:`Telemetry.timed_span` on the installed bundle, or the
    shared null context — the hook hot paths use around engine calls."""
    if _ACTIVE is None:
        return NULL_SPAN
    return _ACTIVE.timed_span(name, metric=metric, **attrs)
