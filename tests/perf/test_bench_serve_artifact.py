"""``benchmarks.reporting.write_bench_json`` — the artifact writer.

Every ``BENCH_*.json`` lands in ``benchmarks/out/`` and, unless
``REPRO_BENCH_MIRROR`` says otherwise, a byte-identical mirror at the
repository root.  (The module keeps the name of the serving artifact
it once also checked, so the writer tests' ids stay stable.)
"""

from __future__ import annotations

import json
import os

import pytest

from benchmarks.reporting import write_bench_json


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
