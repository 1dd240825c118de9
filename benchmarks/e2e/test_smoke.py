"""Smoke test of the end-to-end benchmark (``--quick`` mode).

Not collected by tier-1 (``testpaths = tests``); run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py -q

Each workload — the ones ``BENCHMARK.json`` registers and the ones
only the command line runs — does one round of 3 timed acquisitions
and 1 s of reads, untraced and traced, and must emit exactly the metric
names ``BENCHMARK.json`` declares, pass its oracle and fail no
operation.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

with open(os.path.join(REPO, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable,
            os.path.join(HERE, "run.py"),
            "--workload",
            workload,
            "--seed",
            "3",
            "--quick",
            "--trace",
            str(trace),
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_spec_shape():
    assert set(SPEC) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    names = [
        m["name"]
        for m in SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s"
        for m in SPEC["end_to_end"]
    )
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} <= set(
        workloads.WORKLOADS
    )


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_quick(workload, trace):
    last = _run(workload, trace)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert last["failed"] == 0 and last["attempted"] >= 1
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in section}
    for meta in section:
        metric = last["metrics"][meta["name"]]
        assert metric["unit"] == meta["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in last["metrics"].values())
