"""The BENCH_durable.json artifact — tier-1 smoke contract.

Thresholds sit well below what the benchmark actually produces so the
committed artifact keeps passing on noisy hosts; the precise gating is
done by ``benchmarks/check_regression.py`` against the baselines.
"""

from __future__ import annotations

import json
import os

import pytest

BENCH_DURABLE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "benchmarks",
    "out",
    "BENCH_durable.json",
)


@pytest.fixture(scope="module")
def artifact():
    if not os.path.exists(BENCH_DURABLE):
        pytest.skip(
            "benchmarks/out/BENCH_durable.json not generated yet"
        )
    with open(BENCH_DURABLE) as f:
        return json.load(f)


def test_schema_has_every_required_section(artifact):
    assert artifact["schema"] == "bench-durable/1"
    for section in ("wal", "recovery", "compaction", "checkpoint"):
        assert section in artifact, f"missing section {section!r}"


def test_wal_throughput_was_measured_per_policy(artifact):
    wal = artifact["wal"]
    for policy in ("never", "commit"):
        assert wal[policy]["batches_per_s"] > 10
        assert wal[policy]["ops_per_s"] > 100
        assert wal[policy]["wal_mb"] > 0


def test_recovery_scales_with_log_length(artifact):
    points = artifact["recovery"]["points"]
    assert len(points) >= 3
    lengths = [p["wal_batches"] for p in points]
    assert lengths == sorted(lengths)
    assert all(p["seconds"] > 0 for p in points)
    assert all(p["triples_per_s"] > 1000 for p in points)
    assert artifact["recovery"]["longest_seconds"] == points[-1]["seconds"]


def test_compaction_earns_its_keep(artifact):
    compaction = artifact["compaction"]
    assert compaction["ratio"] > 2.0
    assert compaction["wal_mb_before"] > compaction["checkpoint_mb"]
    assert compaction["live_triples"] > 0


def test_checkpoint_of_a_realistic_store_was_measured(artifact):
    checkpoint = artifact["checkpoint"]
    assert checkpoint["triples"] > 20000
    assert checkpoint["terms"] > 0
    assert checkpoint["bytes_per_triple"] == pytest.approx(
        checkpoint["bytes"] / checkpoint["triples"]
    )
    # Compressed term table and id columns: the raw form took ~48.
    assert checkpoint["bytes_per_triple"] < 20.0
    assert checkpoint["write_seconds"] > 0
    assert checkpoint["load_seconds"] > 0
