"""The BENCH_serve.json artifact — tier-1 smoke contract.

Thresholds sit well below what the benchmark actually produces
(zero torn reads, zero HTTP errors) so the committed artifact keeps
passing on noisy hosts.
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.reporting import write_bench_json

BENCH_SERVE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    ))),
    "benchmarks",
    "out",
    "BENCH_serve.json",
)


@pytest.fixture(scope="module")
def artifact():
    if not os.path.exists(BENCH_SERVE):
        pytest.skip("benchmarks/out/BENCH_serve.json not generated yet")
    with open(BENCH_SERVE) as f:
        return json.load(f)


def test_schema_has_every_required_section(artifact):
    assert artifact["schema"] == "bench-serve/2"
    for section in (
        "workload", "http_load", "consistency", "shard_scaling",
    ):
        assert section in artifact, f"missing section {section!r}"
    assert artifact["workload"]["ingested_acquisitions"] > 0
    assert artifact["workload"]["snapshot_triples"] > 0


def test_http_load_was_clean(artifact):
    load = artifact["http_load"]
    assert load["errors"] == 0
    assert load["throughput_rps"] > 0
    assert 0 < load["p50_ms"] <= load["p99_ms"]


def test_sharded_tier_met_its_bars(artifact):
    scaling = artifact["shard_scaling"]
    assert scaling["differential_ok"] is True
    assert scaling["speedup_4_vs_1"] >= 2.0, (
        f"committed artifact shows only "
        f"{scaling['speedup_4_vs_1']:.2f}x at 4 shards"
    )


def test_no_torn_reads_were_observed(artifact):
    consistency = artifact["consistency"]
    assert consistency["torn_reads"] == 0
    assert consistency["polls"] > 0
    assert consistency["sequence_monotonic"] is True
    assert consistency["generation_monotonic"] is True


def test_write_bench_json_mirrors_to_root(tmp_path):
    payload = {"schema": "bench-selftest/1", "value": 42}
    out_path = write_bench_json(
        "selftest", payload, root=str(tmp_path)
    )
    try:
        mirror = tmp_path / "BENCH_selftest.json"
        assert mirror.exists()
        with open(out_path) as f:
            committed = f.read()
        assert committed == mirror.read_text()
        assert json.loads(committed) == payload
        # Deterministic serialisation: sorted keys, trailing newline.
        assert committed.endswith("\n")
        assert committed.index('"schema"') < committed.index('"value"')
    finally:
        os.remove(out_path)


@pytest.mark.parametrize("value", ["0", "false", "off", "no", ""])
def test_mirror_disabled_by_env(tmp_path, monkeypatch, value):
    """REPRO_BENCH_MIRROR=0 (and friends) must suppress the root
    mirror entirely — a smoke run of the benchmarks cannot clobber a
    committed root artifact (ISSUE 10 satellite)."""
    monkeypatch.setenv("REPRO_BENCH_MIRROR", value)
    out_path = write_bench_json(
        "selftest", {"schema": "bench-selftest/1"}
    )
    try:
        repo_root = os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        ))
        assert not os.path.exists(
            os.path.join(repo_root, "BENCH_selftest.json")
        )
        assert os.path.exists(out_path)  # the out/ copy still lands
    finally:
        os.remove(out_path)


def test_mirror_redirected_by_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_MIRROR", str(tmp_path))
    out_path = write_bench_json(
        "selftest", {"schema": "bench-selftest/1"}
    )
    try:
        assert (tmp_path / "BENCH_selftest.json").exists()
    finally:
        os.remove(out_path)


def test_explicit_root_beats_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_MIRROR", "0")
    target = tmp_path / "explicit"
    target.mkdir()
    out_path = write_bench_json(
        "selftest", {"schema": "bench-selftest/1"}, root=str(target)
    )
    try:
        assert (target / "BENCH_selftest.json").exists()
    finally:
        os.remove(out_path)
