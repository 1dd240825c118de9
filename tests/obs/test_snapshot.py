"""The BENCH_obs.json snapshot schema — tier-1 smoke contract."""

from __future__ import annotations

import json
import os
from types import SimpleNamespace

import pytest

from repro.obs import (
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    build_snapshot,
    validate_snapshot,
    write_snapshot,
)

BENCH_SNAPSHOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "benchmarks",
    "out",
    "BENCH_obs.json",
)


def _outcome(chain_seconds, refinement_seconds=0.0):
    return SimpleNamespace(
        chain_seconds=chain_seconds,
        refinement_seconds=refinement_seconds,
        window_seconds=300.0,
    )


def _populated_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    chain = registry.histogram("chain_stage_seconds")
    for stage, value in (
        ("decode", 0.01), ("crop", 0.02), ("georeference", 0.05),
        ("classify", 0.20), ("vectorize", 0.01),
    ):
        chain.observe(value, chain="sciql", stage=stage)
    registry.histogram("refine_operation_seconds").observe(
        0.1, operation="Store hotspots"
    )
    registry.histogram("acquisition_stage_seconds").observe(
        0.4, stage="total"
    )
    # Histograms outside the stage map must not leak into the snapshot.
    registry.histogram("monitor_scan_seconds").observe(0.001)
    return registry


def test_build_snapshot_shapes_stages_and_deadline():
    document = build_snapshot(_populated_registry(), [_outcome(0.3, 0.1)])
    validate_snapshot(document)
    assert document["schema"] == SNAPSHOT_SCHEMA
    assert "chain/sciql/classify" in document["stages"]
    assert "refine/Store hotspots" in document["stages"]
    assert "acquisition/total" in document["stages"]
    assert not any(k.startswith("monitor") for k in document["stages"])
    stage = document["stages"]["chain/sciql/classify"]
    assert stage == {
        "count": 1, "p50_s": 0.2, "p95_s": 0.2, "max_s": 0.2,
    }
    deadline = document["deadline"]
    assert deadline["window_seconds"] == 300.0
    assert deadline["acquisitions"] == 1
    assert deadline["miss_ratio"] == 0.0
    assert deadline["total_avg_s"] == pytest.approx(0.4)


def test_build_snapshot_without_budget_is_still_valid():
    document = build_snapshot(_populated_registry())
    validate_snapshot(document)
    assert document["deadline"]["acquisitions"] == 0


def test_validate_snapshot_rejects_malformed_documents():
    good = build_snapshot(_populated_registry(), [])
    for mutate in (
        lambda d: d.pop("schema"),
        lambda d: d.update(schema="other/v9"),
        lambda d: d.update(stages=[]),
        lambda d: d["stages"].update(bad={"count": 1}),
        lambda d: d["stages"]["chain/sciql/decode"].update(p50_s="fast"),
        lambda d: d["stages"]["chain/sciql/decode"].update(count=1.5),
        lambda d: d["stages"]["chain/sciql/decode"].update(max_s=-1.0),
        lambda d: d.pop("deadline"),
        lambda d: d["deadline"].pop("miss_ratio"),
        lambda d: d["deadline"].update(miss_ratio=1.5),
    ):
        document = json.loads(json.dumps(good))
        mutate(document)
        with pytest.raises(ValueError):
            validate_snapshot(document)
    with pytest.raises(ValueError):
        validate_snapshot("not a dict")


def test_write_snapshot_round_trips(tmp_path):
    path = tmp_path / "BENCH_obs.json"
    document = write_snapshot(
        str(path), _populated_registry(), [_outcome(1.0)]
    )
    with open(path) as f:
        reloaded = json.load(f)
    assert reloaded == document
    validate_snapshot(reloaded)


def test_committed_bench_snapshot_matches_schema():
    """The snapshot the benchmark suite emits must satisfy the contract."""
    if not os.path.exists(BENCH_SNAPSHOT):
        pytest.skip("benchmarks/out/BENCH_obs.json not generated yet")
    with open(BENCH_SNAPSHOT) as f:
        document = json.load(f)
    validate_snapshot(document)
    assert any(k.startswith("chain/") for k in document["stages"])
