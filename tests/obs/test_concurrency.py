"""Concurrent use of the obs layer (HTTP read threads, decode workers).

Spans opened on different threads must build independent, uncorrupted
trees (each thread has its own span stack), and metrics must not lose
samples under contention.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer

WORKERS = 4
PER_WORKER = 200


def test_span_trees_stay_per_thread():
    tracer = Tracer(enabled=True)
    barrier = threading.Barrier(WORKERS)
    errors = []

    def worker(tag: str) -> None:
        try:
            barrier.wait()
            for i in range(PER_WORKER):
                with tracer.span("outer", worker=tag, i=i) as outer:
                    with tracer.span("inner", worker=tag) as inner:
                        # Parentage must point at *this* thread's outer
                        # span, never at another thread's.
                        assert inner.parent_id == outer.span_id
                assert tracer.current() is None
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(f"w{n}",))
        for n in range(WORKERS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors

    spans = tracer.spans()
    assert len(spans) == WORKERS * PER_WORKER * 2
    by_id = {s.span_id: s for s in spans}
    assert len(by_id) == len(spans)  # unique ids across threads
    for span in spans:
        if span.name == "inner":
            parent = by_id[span.parent_id]
            assert parent.name == "outer"
            assert parent.attributes["worker"] == (
                span.attributes["worker"]
            )
        else:
            assert span.parent_id is None
        assert span.status == "ok"


def test_metrics_lose_no_samples_under_contention():
    registry = MetricsRegistry(enabled=True)
    counter = registry.counter("work_total")
    histogram = registry.histogram("work_seconds")
    barrier = threading.Barrier(WORKERS)

    def worker(tag: str) -> None:
        barrier.wait()
        for i in range(PER_WORKER):
            counter.inc(worker=tag)
            histogram.observe(i * 0.001, worker=tag)
            histogram.observe(i * 0.001, stage="shared")

    threads = [
        threading.Thread(target=worker, args=(f"w{n}",))
        for n in range(WORKERS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert counter.total() == WORKERS * PER_WORKER
    for n in range(WORKERS):
        assert counter.value(worker=f"w{n}") == PER_WORKER
        assert histogram.count(worker=f"w{n}") == PER_WORKER
    # The label set shared by every thread kept every sample too.
    assert histogram.count(stage="shared") == WORKERS * PER_WORKER
    assert histogram.total_count(stage="shared") == (
        WORKERS * PER_WORKER
    )


def test_mixed_span_and_metric_traffic_with_failures():
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry(enabled=True)

    def worker(fail: bool) -> None:
        for i in range(50):
            try:
                with tracer.span("acq", fail=fail):
                    registry.histogram("latency").observe(0.01)
                    if fail:
                        raise RuntimeError("worker error")
            except RuntimeError:
                pass

    threads = [
        threading.Thread(target=worker, args=(fail,))
        for fail in (False, True)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    spans = tracer.spans()
    assert len(spans) == 100
    assert sum(1 for s in spans if s.status == "error") == 50
    assert tracer.failure_counts.get("acq") == 50
    assert registry.histogram("latency").count() == 100
