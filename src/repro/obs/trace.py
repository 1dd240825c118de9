"""Distributed trace context.

The span layer (:mod:`repro.obs.span`) records call trees; this module
carries a trace across boundaries the span stack does not span:

* :class:`TraceContext` is the wire form of "who is my parent" — a
  ``trace_id`` plus the parent's ``span_id``.  It rides an
  acquisition's outcome into its publish span and travels as
  ``x-trace-id`` / ``x-parent-span`` HTTP headers.
* :func:`context_of` derives a context from a live span so callers can
  hand their identity to later work.
* :func:`recent_traces` groups a tracer's finished spans by trace id
  into complete, renderable traces — the data behind ``/debug/tracez``.

Propagation rule (also in DESIGN.md): a span inherits its parent's
``trace_id``; a root span under an ambient :class:`TraceContext`
(``Tracer.use_context``) inherits the context's trace id and parents
under ``context.span_id``; a bare root mints a fresh trace id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.span import Span, Tracer, mint_trace_id

__all__ = [
    "TraceContext",
    "context_of",
    "mint_trace_id",
    "recent_traces",
    "TRACE_ID_HEADER",
    "PARENT_SPAN_HEADER",
]

TRACE_ID_HEADER = "x-trace-id"
PARENT_SPAN_HEADER = "x-parent-span"


@dataclass(frozen=True)
class TraceContext:
    """The cross-process identity of a span: trace id + parent span id."""

    trace_id: str
    span_id: int

    def to_headers(self) -> Dict[str, str]:
        """HTTP header form (lower-case names, see module constants)."""
        return {
            TRACE_ID_HEADER: self.trace_id,
            PARENT_SPAN_HEADER: str(self.span_id),
        }

    @classmethod
    def from_headers(
        cls, headers: Mapping[str, str]
    ) -> Optional["TraceContext"]:
        """Parse a context from (case-insensitively keyed) headers.

        Returns ``None`` when the trace header is absent or malformed;
        a missing/garbled parent-span header degrades to parent ``0``
        so the trace id still correlates.
        """
        lowered = {str(k).lower(): v for k, v in headers.items()}
        trace_id = lowered.get(TRACE_ID_HEADER, "").strip()
        if not trace_id or len(trace_id) > 64:
            return None
        if not all(c in "0123456789abcdef" for c in trace_id.lower()):
            return None
        try:
            span_id = int(lowered.get(PARENT_SPAN_HEADER, "0"))
        except (TypeError, ValueError):
            span_id = 0
        return cls(trace_id=trace_id.lower(), span_id=span_id)


def context_of(span: Any) -> Optional[TraceContext]:
    """The :class:`TraceContext` identifying ``span``, if it has one.

    ``None`` for ``NULL_SPAN`` / disabled-tracer spans (no trace id) —
    callers can pass the result straight to ``Tracer.use_context``.
    """
    trace_id = getattr(span, "trace_id", None)
    if not trace_id:
        return None
    return TraceContext(trace_id=trace_id, span_id=span.span_id)


def _tree_text(records: List[Dict[str, Any]]) -> str:
    from repro.obs.export import tree_report

    return tree_report(records)


def recent_traces(
    tracer: Tracer,
    limit: int = 20,
    trace_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Group finished spans into complete traces, most recent first.

    Each entry describes one trace::

        {"trace_id": ..., "root": <root span name or None>,
         "wall_start": ..., "duration_s": ..., "span_count": ...,
         "status": "ok" | "error", "spans": [records...],
         "tree": <indented text rendering>}

    Spans recorded before trace ids existed (``trace_id is None``) are
    skipped.  ``trace_id`` filters to one trace; ``limit`` caps the
    number of traces returned (most recent by root wall-clock start).
    """
    groups: Dict[str, List[Span]] = {}
    for span in tracer.spans():
        tid = span.trace_id
        if tid is None:
            continue
        if trace_id is not None and tid != trace_id:
            continue
        groups.setdefault(tid, []).append(span)

    traces: List[Dict[str, Any]] = []
    for tid, spans in groups.items():
        records = [s.to_dict() for s in spans]
        span_ids = {r["span_id"] for r in records}
        roots = [
            r
            for r in records
            if r.get("parent_id") is None
            or r["parent_id"] not in span_ids
        ]
        root = min(roots, key=lambda r: r.get("wall_start", 0.0)) if roots else None
        wall_start = min(r.get("wall_start", 0.0) for r in records)
        wall_end = max(
            r.get("wall_start", 0.0) + r.get("duration_s", 0.0)
            for r in records
        )
        traces.append(
            {
                "trace_id": tid,
                "root": root["name"] if root else None,
                "wall_start": wall_start,
                "duration_s": wall_end - wall_start,
                "span_count": len(records),
                "status": (
                    "error"
                    if any(r.get("status") == "error" for r in records)
                    else "ok"
                ),
                "spans": records,
                "tree": _tree_text(records),
            }
        )
    traces.sort(key=lambda t: t["wall_start"], reverse=True)
    return traces[:limit]
