"""``repro.obs`` — the observability layer of the monitoring service.

One timing mechanism for the whole pipeline:

* hierarchical tracing **spans** (:mod:`repro.obs.span`) with a
  context-manager and a decorator API,
* a **metrics registry** (:mod:`repro.obs.metrics`) of counters, gauges
  and percentile histograms,
* pluggable **exporters** (:mod:`repro.obs.export`): JSON-lines span
  logs, Prometheus-style text, human-readable span trees,
* **budget accounting** (:mod:`repro.obs.budget`) against the 5-minute
  SEVIRI window, including Table 2 regeneration from recorded spans,
* the ``BENCH_obs.json`` perf **snapshot** (:mod:`repro.obs.snapshot`).

The package exposes one process-global tracer and registry, disabled by
default; the pipeline is instrumented against them, so

>>> from repro import obs
>>> obs.enable()
>>> # ... run the service ...
>>> print(obs.tree_report(obs.get_tracer().spans()))  # doctest: +SKIP

turns the whole stack observable with zero overhead when off.  Both
objects are module-level singletons created once — instrumented modules
may safely bind them at import time.
"""

from __future__ import annotations

import os
from typing import Any, Optional

from repro.obs.budget import (
    Table2Breakdown,
    budget_report,
    budget_summary,
    table2_from_spans,
)
from repro.obs.export import (
    prometheus_text,
    read_spans_jsonl,
    span_record,
    tree_report,
    write_spans_jsonl,
)
from repro.obs.flightrec import FlightRecorder, get_flight_recorder
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import SLO, SloEngine, default_service_slos
from repro.obs.snapshot import (
    SNAPSHOT_SCHEMA,
    build_snapshot,
    validate_snapshot,
    write_snapshot,
)
from repro.obs.span import NULL_SPAN, NullSpan, Span, Tracer, mint_trace_id
from repro.obs.trace import TraceContext, context_of, recent_traces

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "TraceContext",
    "context_of",
    "mint_trace_id",
    "recent_traces",
    "FlightRecorder",
    "get_flight_recorder",
    "SLO",
    "SloEngine",
    "default_service_slos",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "budget_summary",
    "budget_report",
    "Table2Breakdown",
    "table2_from_spans",
    "prometheus_text",
    "read_spans_jsonl",
    "span_record",
    "tree_report",
    "write_spans_jsonl",
    "SNAPSHOT_SCHEMA",
    "build_snapshot",
    "validate_snapshot",
    "write_snapshot",
    "get_tracer",
    "get_metrics",
    "is_enabled",
    "enable",
    "disable",
    "reset",
    "span",
    "measure",
    "traced",
]

#: Name of the failure counter fed by spans that close with an error.
SPAN_FAILURES = "span_failures_total"

# The process-global instances.  Created exactly once and never
# replaced (``enable``/``disable``/``reset`` mutate them in place), so
# modules may bind them at import time.
_TRACER = Tracer(enabled=False)
_METRICS = MetricsRegistry(enabled=False)


def _on_span_failure(span: Span) -> None:
    _METRICS.counter(
        SPAN_FAILURES, "Spans that closed with an error"
    ).inc(span=span.name)
    get_flight_recorder().record(
        "error",
        span.name,
        trace_id=span.trace_id,
        error=span.error,
    )


_TRACER.on_failure = _on_span_failure


def _after_fork_in_child() -> None:
    """Make the global tracer and flight recorder fork-safe.

    A forked child inherits the parent's thread-local span stack (its
    new spans would mis-parent), span-id counter (its ids would repeat
    the parent's) and flight-recorder ring (the parent's story, not the
    child's).  Reset all three.
    """
    _TRACER.reset_after_fork()
    get_flight_recorder().reset_after_fork()


os.register_at_fork(after_in_child=_after_fork_in_child)


def get_tracer() -> Tracer:
    """The process-global tracer the pipeline is instrumented against."""
    return _TRACER


def get_metrics() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _METRICS


def is_enabled() -> bool:
    """True when any collection (spans or metrics) is switched on."""
    return _TRACER.enabled or _METRICS.enabled


def enable(tracing: bool = True, metrics: bool = True) -> None:
    """Switch global collection on (both kinds by default)."""
    if tracing:
        _TRACER.enable()
    if metrics:
        _METRICS.enable()


def disable() -> None:
    """Switch all global collection off (recorded data is kept)."""
    _TRACER.disable()
    _METRICS.disable()


def reset() -> None:
    """Drop recorded spans and metric values (state flags unchanged)."""
    _TRACER.clear()
    _METRICS.reset()


def span(name: str, /, **attributes: Any):
    """Open a span on the global tracer (no-op when disabled)."""
    return _TRACER.span(name, **attributes)


def measure(name: str, /, **attributes: Any):
    """Open an always-measuring span on the global tracer."""
    return _TRACER.measure(name, **attributes)


def traced(name: Optional[str] = None, **attributes: Any):
    """Decorator tracing a function through the global tracer."""
    return _TRACER.trace(name, **attributes)
