"""Benchmark result reporting.

Module teardowns route their paper-style tables to
``benchmarks/out/<name>.txt`` (always) and to stdout (visible when pytest
runs with ``-s``; captured otherwise).

Machine-readable ``BENCH_*.json`` artifacts go through
:func:`write_bench_json`, which writes them under ``benchmarks/out/`` —
the committed copies are the baselines CI's regression gate compares
fresh runs against.
"""

from __future__ import annotations

import json
import os

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def report(name: str, text: str) -> str:
    """Persist and display a regenerated table/figure; returns the path."""
    out_dir = os.path.join(_BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{name}.txt")
    with open(path, "w") as f:
        f.write(text + "\n")
    print("\n" + text)
    return path


def write_bench_json(name: str, payload: dict) -> str:
    """Write ``BENCH_<name>.json`` under ``benchmarks/out/``; returns
    the path.  The payload is written deterministically (sorted keys,
    trailing newline) so committed baselines diff cleanly."""
    out_dir = os.path.join(_BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w") as f:
        f.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
