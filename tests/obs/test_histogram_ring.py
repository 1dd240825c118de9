"""Histogram memory stays bounded: per-label ring buffers.

Long-running services observe one sample per acquisition per
stage, forever; retained samples must cap at ``max_observations`` while
lifetime counts and percentiles stay meaningful.
"""

from __future__ import annotations

from repro.obs.metrics import Histogram, MetricsRegistry


class SmallRing(Histogram):
    max_observations = 64


def test_retained_samples_cap_at_max_observations():
    histogram = SmallRing("latency_seconds")
    for i in range(1000):
        histogram.observe(float(i))
    assert histogram.count() == 64
    assert histogram.total_count() == 1000
    # Newest samples win: the window is exactly the last 64.
    assert histogram.percentile(0) == 936.0
    assert histogram.percentile(100) == 999.0


def test_cap_applies_per_label_set():
    histogram = SmallRing("stage_seconds")
    for i in range(200):
        histogram.observe(float(i), stage="chain")
    for i in range(10):
        histogram.observe(float(i), stage="refine")
    assert histogram.count(stage="chain") == 64
    assert histogram.total_count(stage="chain") == 200
    assert histogram.count(stage="refine") == 10
    assert histogram.total_count(stage="refine") == 10


def test_percentiles_stable_across_displacement():
    """A stationary stream keeps its percentiles after wrapping."""
    histogram = SmallRing("stationary_seconds")
    # Repeating 0..15: every window of 64 holds 4 full periods, so the
    # percentiles are identical before and after displacement.
    for i in range(64):
        histogram.observe(float(i % 16))
    p50_before = histogram.percentile(50)
    p95_before = histogram.percentile(95)
    for i in range(10_000):
        histogram.observe(float(i % 16))
    assert histogram.percentile(50) == p50_before
    assert histogram.percentile(95) == p95_before
    summary = histogram.summary()
    assert summary["count"] == 64
    assert summary["min"] == 0.0 and summary["max"] == 15.0


def test_reset_clears_lifetime_counts_too():
    histogram = SmallRing("resettable_seconds")
    for _ in range(100):
        histogram.observe(1.0)
    histogram.reset()
    assert histogram.count() == 0
    assert histogram.total_count() == 0


def test_default_capacity_is_a_backstop_not_a_cap():
    registry = MetricsRegistry()
    histogram = registry.histogram("acquisition_stage_seconds")
    assert histogram.max_observations == 100_000
    for i in range(500):
        histogram.observe(float(i), stage="total")
    # Benchmark-scale traffic is far below the ring size: exact.
    assert histogram.count(stage="total") == 500
    assert histogram.total_count(stage="total") == 500
