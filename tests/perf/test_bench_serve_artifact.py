"""``benchmarks.reporting.write_bench_json`` — the artifact writer.

Every ``BENCH_*.json`` lands in ``benchmarks/out/`` only.  (The module
keeps the name of the serving artifact it once also checked, so the
writer test's id stays stable.)
"""

from __future__ import annotations

import json
import os

from benchmarks.reporting import write_bench_json


def test_write_bench_json_is_deterministic():
    payload = {"value": 42, "schema": "bench-selftest/1"}
    out_path = write_bench_json("selftest", payload)
    out_dir = os.path.dirname(out_path)
    try:
        assert out_dir.endswith(os.path.join("benchmarks", "out"))
        with open(out_path) as f:
            committed = f.read()
        assert json.loads(committed) == payload
        # Deterministic serialisation: sorted keys, trailing newline.
        assert committed.endswith("\n")
        assert committed.index('"schema"') < committed.index('"value"')
        repo_root = os.path.dirname(os.path.dirname(out_dir))
        root_copy = os.path.join(repo_root, "BENCH_selftest.json")
        assert not os.path.exists(root_copy)
    finally:
        os.remove(out_path)
