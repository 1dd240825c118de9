"""Traced pass: spans around the layers' public functions.

The benchmark never edits ``src/``.  In a ``--trace 1`` run the SUT
process calls :func:`install` before it builds the service; that
replaces the public entry points of every layer with thin wrappers that
record one span per call — name, start, end, the span that caused it
and the acquisition (or request) it belongs to.  Spans stay in memory
and are written as JSONL when the SUT exits; :func:`summarize` turns
them into the per-acquisition numbers the per-layer metrics and the
layer table (the paper's Table 2, extended) are computed from.

A layer's *self* time is its span's duration minus the part its child
spans cover.  End-to-end metrics are never measured with these wrappers
installed.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

_now = time.perf_counter_ns

# span layout (a list, mutated once when the call returns)
NAME, START, END, PARENT, OP, COUNTS = range(6)


class SpanRecorder:
    """In-memory span store shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._requests = itertools.count()
        #: Operation the writer thread is working on (``acq:<n>``);
        #: set by the SUT command loop.
        self.current_op: Optional[str] = None
        self.fsyncs = 0

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Optional[Callable[[tuple, dict, Any], Dict]] = None,
    ) -> Callable:
        """``fn`` recorded as span ``name``; ``counts(args, kwargs,
        result)`` may attach a small dict of work counters."""
        spans = self.spans
        local = self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = getattr(local, "current", None)
            if parent is not None:
                op = parent[OP]
            elif threading.get_ident() == self._main:
                op = self.current_op
            else:
                op = f"req:{next(self._requests)}"
            span = [name, _now(), 0, parent, op, None]
            spans.append(span)
            local.current = span
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = _now()
                local.current = parent
            if counts is not None:
                span[COUNTS] = counts(args, kwargs, result)
            return result

        return traced

    def span_cost_ns(self, calls: int = 20000) -> float:
        """Measured cost of one wrapper call, from a no-op function —
        what ``trace.overhead_ratio`` multiplies the span count by."""
        scratch = SpanRecorder()
        scratch.current_op = "calibrate"
        plain = int
        traced = scratch.wrap("noop", plain)
        t0 = _now()
        for _ in range(calls):
            plain()
        t1 = _now()
        for _ in range(calls):
            traced()
        t2 = _now()
        return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def _patch_method(recorder, cls, method, name, counts=None):
    setattr(
        cls, method, recorder.wrap(name, getattr(cls, method), counts)
    )


def install(recorder: SpanRecorder) -> None:
    """Wrap the public functions of every layer (idempotence is the
    caller's business: the SUT installs once per process)."""
    from repro.core import annotation, refinement, service
    from repro.core.sciql_chain import SciQLChain
    from repro.durable.cursors import NotificationLog
    from repro.durable.store import DurableStore
    from repro.durable.wal import WriteAheadLog
    from repro.rdf.graph import Graph
    from repro.serve import hotspots, http, shard
    from repro.serve.state import SnapshotPublisher
    from repro.serve.subscribe import SubscriptionEngine
    from repro.seviri.hrit import HRITDriver
    from repro.seviri.monitor import SeviriMonitor
    from repro.sources import fusion
    from repro.sources.federation import SourceFederation
    from repro.stsparql.engine import SnapshotView, Strabon

    wrap = functools.partial(_patch_method, recorder)
    wrap(SeviriMonitor, "scan", "seviri.monitor_scan")
    wrap(SeviriMonitor, "dispatch_ready", "seviri.monitor_scan")
    wrap(HRITDriver, "load", "seviri.decode")
    wrap(
        SciQLChain,
        "process",
        "chain.process",
        lambda a, k, product: {"hotspots": len(product)},
    )
    traced_annotate = recorder.wrap(
        "annotate.product",
        annotation.annotate_product,
        lambda a, k, result: {"triples": result[0]},
    )
    annotation.annotate_product = traced_annotate
    refinement.annotate_product = traced_annotate
    for op in REFINE_OPS:
        counts = None
        if op == "cross_confirm":
            counts = lambda a, k, timing: dict(timing.detail)  # noqa: E731
        wrap(
            refinement.RefinementPipeline, op, f"refine.{op}", counts
        )
    wrap(
        SourceFederation,
        "collect",
        "sources.collect",
        lambda a, k, result: {
            "observations": sum(len(b) for b in result[0])
        },
    )
    traced_fuse = recorder.wrap(
        "sources.fuse", fusion.fused_confidence
    )
    fusion.fused_confidence = traced_fuse
    refinement.fused_confidence = traced_fuse
    wrap(Strabon, "query", "stsparql.query")
    wrap(SnapshotView, "query", "stsparql.read_query")
    wrap(DurableStore, "commit", "durable.commit")
    wrap(
        DurableStore,
        "checkpoint",
        "durable.checkpoint",
        lambda a, k, r: {
            "bytes": os.path.getsize(
                os.path.join(a[0].directory, a[0].CHECKPOINT_NAME)
            )
        },
    )
    wrap(NotificationLog, "append", "durable.notiflog_append")
    wrap(
        WriteAheadLog,
        "append",
        "durable.wal_append",
        lambda a, k, seq: {"appended": len(a[1])},
    )
    wrap(Graph, "snapshot", "rdf.snapshot")
    wrap(SnapshotPublisher, "publish", "publish.publish")
    wrap(
        SubscriptionEngine,
        "process_commit",
        "subscribe.process_commit",
        lambda a, k, batch: {
            "notifications": len(batch.notifications)
        },
    )
    traced_hotspots = recorder.wrap(
        "hotspots.query",
        hotspots.query_hotspots,
        lambda a, k, collection: {
            "features": len(collection["features"])
        },
    )
    hotspots.query_hotspots = traced_hotspots
    http.query_hotspots = traced_hotspots
    shard.partition_snapshot = recorder.wrap(
        "shard.repartition",
        shard.partition_snapshot,
        lambda a, k, parts: {
            "max": max(len(g) for g in parts.values()),
            "total": sum(len(g) for g in parts.values()),
            "parts": len(parts),
        },
    )
    wrap(service.FireMonitoringService, "run", "service.run")
    service.FireMonitoringService.open = classmethod(
        recorder.wrap(
            "durable.open",
            service.FireMonitoringService.open.__func__,
        )
    )
    real_fsync = os.fsync

    def counting_fsync(fd):
        recorder.fsyncs += 1
        return real_fsync(fd)

    os.fsync = counting_fsync


#: The nine ``RefinementPipeline`` operations, in pipeline order.
REFINE_OPS = (
    "store",
    "source_ingest",
    "municipalities",
    "delete_in_sea",
    "invalid_for_fires",
    "refine_in_coast",
    "cross_confirm",
    "static_sources",
    "time_persistence",
)


# -- analysis ------------------------------------------------------------


def _ms(ns: float) -> float:
    return ns / 1e6


def summarize(spans: Iterable[list]) -> Dict[str, Dict]:
    """Group spans by operation.

    Returns ``{op: {name: {"calls", "total_ms", "self_ms", "counts"}}}``
    where ``total_ms`` is inclusive time of the outermost spans of that
    name (a query evaluated inside an update is not counted twice) and
    ``self_ms`` excludes the time covered by wrapped children.
    ``counts`` sums the wrappers' work counters.
    """
    child_ns: Dict[int, int] = {}
    spans = [s for s in spans if s[END]]
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            child_ns[id(parent)] = child_ns.get(id(parent), 0) + (
                span[END] - span[START]
            )
    out: Dict[str, Dict] = {}
    for span in spans:
        name = span[NAME]
        row = out.setdefault(str(span[OP]), {}).setdefault(
            name,
            {"calls": 0, "total_ms": 0.0, "self_ms": 0.0, "counts": {}},
        )
        duration = span[END] - span[START]
        row["calls"] += 1
        row["self_ms"] += _ms(duration - child_ns.get(id(span), 0))
        ancestor = span[PARENT]
        while ancestor is not None and ancestor[NAME] != name:
            ancestor = ancestor[PARENT]
        if ancestor is None:
            row["total_ms"] += _ms(duration)
        for key, value in (span[COUNTS] or {}).items():
            if key in ("max", "bytes"):
                row["counts"][key] = max(
                    row["counts"].get(key, 0), value
                )
            else:
                row["counts"][key] = row["counts"].get(key, 0) + value
    return out


def write_jsonl(spans: Iterable[list], path: str) -> int:
    """One JSON object per span: name, start/end (ns, monotonic),
    parent span id and operation id."""
    spans = list(spans)
    ids = {id(span): index for index, span in enumerate(spans)}
    with open(path, "w", encoding="utf-8") as fh:
        for index, span in enumerate(spans):
            parent = span[PARENT]
            fh.write(
                json.dumps(
                    {
                        "id": index,
                        "name": span[NAME],
                        "start_ns": span[START],
                        "end_ns": span[END],
                        "parent": None
                        if parent is None
                        else ids.get(id(parent)),
                        "op": span[OP],
                        "counts": span[COUNTS],
                    }
                )
                + "\n"
            )
    return len(spans)


def layer_table(
    summary: Dict[str, Dict], ops: List[str], title: str
) -> str:
    """Time per layer over ``ops`` (Table 2, extended): calls, median
    and summed self time with its share of the whole, and the
    inclusive time (the layer plus everything it called) with its
    share — self times add up to 100 %, inclusive times overlap."""
    import statistics

    names: Dict[str, List[float]] = {}
    inclusive: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for op in ops:
        for name, row in summary.get(op, {}).items():
            names.setdefault(name, []).append(row["self_ms"])
            inclusive[name] = inclusive.get(name, 0.0) + row["total_ms"]
            calls[name] = calls.get(name, 0) + row["calls"]
    if not names:
        return f"{title}: no spans\n"
    totals = {name: sum(values) for name, values in names.items()}
    whole = sum(totals.values()) or 1.0
    lines = [
        title,
        f"  {'layer':<28}{'calls':>8}{'self ms p50':>13}"
        f"{'self ms sum':>13}{'share':>8}{'incl ms sum':>13}{'share':>8}",
    ]
    for name in sorted(totals, key=totals.get, reverse=True):
        padded = names[name] + [0.0] * (len(ops) - len(names[name]))
        lines.append(
            f"  {name:<28}{calls[name]:>8}"
            f"{statistics.median(padded):>13.2f}"
            f"{totals[name]:>13.1f}"
            f"{100.0 * totals[name] / whole:>7.1f}%"
            f"{inclusive[name]:>13.1f}"
            f"{100.0 * inclusive[name] / whole:>7.1f}%"
        )
    return "\n".join(lines) + "\n"
