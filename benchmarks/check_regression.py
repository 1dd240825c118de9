"""Benchmark-regression gate for CI.

Compares freshly produced ``BENCH_*.json`` artifacts against the
committed baselines (``benchmarks/out/`` in the repository) and fails —
exit code 1 — when a watched metric regresses beyond its allowed
threshold.  Usage::

    python benchmarks/check_regression.py --current <dir> \
        [--baseline benchmarks/out] [--threshold 0.25]

Watched metrics are dotted paths into each artifact, each with a
direction (``higher`` / ``lower`` is better, or ``absolute`` — the
current value itself must not exceed the threshold, no baseline
involved) and an optional per-metric threshold.  Ratio-style metrics (speedups, hit ratios, error counts)
use the strict default threshold; absolute wall-clock metrics carry a
wider one, because the committed baselines come from a different
machine than the CI runner and only *gross* regressions there are
meaningful.

Zero baselines are exact gates: when the baseline of a lower-is-better
metric is 0 (torn reads, HTTP errors, deadline misses), any non-zero
current value is a regression regardless of threshold.

A missing *current* artifact fails the gate (the benchmark did not
run); a missing *baseline* artifact or metric is reported and skipped
(a brand-new benchmark has no baseline yet — commit its artifact to
establish one).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

#: Default allowed relative regression (the ISSUE's 25% bar).
DEFAULT_THRESHOLD = 0.25
#: Wider bar for absolute wall-clock numbers measured on CI hardware
#: that differs from the machine the baselines were committed from.
TIMING_THRESHOLD = 0.60

#: (dotted path, direction, threshold or None for the default).
WATCHED = {
    "BENCH_obs.json": [
        ("deadline.miss_ratio", "lower", None),
        ("stages.acquisition/total.p50_s", "lower", TIMING_THRESHOLD),
        # The tracing acceptance bar: p50 per-acquisition overhead with
        # tracing on must stay under 5% of the tracing-off latency.
        ("tracing.overhead_p50_ratio", "absolute", 0.05),
        (
            "tracing.span_throughput_per_s",
            "higher",
            TIMING_THRESHOLD,
        ),
    ],
    "BENCH_serve.json": [
        ("http_load.throughput_rps", "higher", TIMING_THRESHOLD),
        ("http_load.p99_ms", "lower", TIMING_THRESHOLD),
        ("http_load.errors", "lower", None),
        ("consistency.torn_reads", "lower", None),
        # Sharded serving tier: the ISSUE-8 acceptance bar (>= 2x
        # aggregate read throughput at 4 shards).  The speedup is a
        # ratio of *measured* per-shard rates, so it gets the wider
        # wall-clock bar; the >= 2x floor is asserted in the benchmark.
        ("shard_scaling.speedup_4_vs_1", "higher", TIMING_THRESHOLD),
        (
            "shard_scaling.series.1.aggregate_qps_scaling_law",
            "higher",
            TIMING_THRESHOLD,
        ),
        (
            "shard_scaling.series.4.aggregate_qps_scaling_law",
            "higher",
            TIMING_THRESHOLD,
        ),
    ],
    "BENCH_subscribe.json": [
        # The ISSUE-9 acceptance bar (incremental >= 10x a full re-run
        # at 100k geofenced subscriptions) is asserted inside
        # bench_subscribe.py; the gate guards against drift, and the
        # incremental/full differential must stay exact.
        (
            "headline.speedup_incremental_vs_full",
            "higher",
            TIMING_THRESHOLD,
        ),
        ("headline.incremental_ms", "lower", TIMING_THRESHOLD),
        (
            "headline.registration_subs_per_s",
            "higher",
            TIMING_THRESHOLD,
        ),
        ("headline.differential_mismatches", "absolute", 0.0),
    ],
    "BENCH_sources.json": [
        # Order invariance of the fusion dedup is a correctness
        # contract, not a performance number: any mismatch between the
        # arrival order and a shuffled re-run fails the gate exactly.
        ("headline.order_mismatches", "absolute", 0.0),
        ("headline.dedup_detections_per_s", "higher", TIMING_THRESHOLD),
        (
            "dedup.series.10000.detections_per_s",
            "higher",
            TIMING_THRESHOLD,
        ),
        (
            "ingest.polar.observations_per_s",
            "higher",
            TIMING_THRESHOLD,
        ),
        (
            "ingest.weather.observations_per_s",
            "higher",
            TIMING_THRESHOLD,
        ),
    ],
    "BENCH_durable.json": [
        ("wal.never.batches_per_s", "higher", TIMING_THRESHOLD),
        ("wal.commit.batches_per_s", "higher", TIMING_THRESHOLD),
        (
            "recovery.triples_per_s",
            "higher",
            TIMING_THRESHOLD,
        ),
        (
            "recovery.longest_seconds",
            "lower",
            TIMING_THRESHOLD,
        ),
        ("compaction.ratio", "higher", None),
    ],
}


def resolve(payload: dict, path: str) -> Optional[float]:
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def judge(
    baseline: float,
    current: float,
    direction: str,
    threshold: float,
) -> Tuple[bool, float]:
    """(regressed?, signed relative delta vs baseline)."""
    delta = (
        0.0 if baseline == 0 else (current - baseline) / abs(baseline)
    )
    if direction == "higher":
        if baseline == 0:
            return False, delta
        return current < baseline * (1.0 - threshold), delta
    if baseline == 0:
        return current > 0, delta
    return current > baseline * (1.0 + threshold), delta


def check(
    baseline_dir: str,
    current_dir: str,
    default_threshold: float,
    only: Optional[List[str]] = None,
) -> int:
    watched = WATCHED
    if only:
        unknown = sorted(set(only) - set(WATCHED))
        if unknown:
            print(f"unknown artifact(s) in --only: {unknown}")
            return 2
        watched = {name: WATCHED[name] for name in only}
    rows: List[Tuple[str, str, str, str, str, str]] = []
    failures = 0
    for filename, metrics in sorted(watched.items()):
        current_path = os.path.join(current_dir, filename)
        baseline_path = os.path.join(baseline_dir, filename)
        if not os.path.exists(current_path):
            rows.append(
                (filename, "<artifact>", "-", "-", "-", "MISSING")
            )
            failures += 1
            continue
        with open(current_path) as f:
            current_payload = json.load(f)
        if not os.path.exists(baseline_path):
            rows.append(
                (filename, "<artifact>", "-", "-", "-", "NO-BASELINE")
            )
            continue
        with open(baseline_path) as f:
            baseline_payload = json.load(f)
        for path, direction, threshold in metrics:
            threshold = (
                default_threshold if threshold is None else threshold
            )
            if direction == "absolute":
                cur = resolve(current_payload, path)
                if cur is None:
                    rows.append(
                        (filename, path, "-", "-", "-", "MISSING")
                    )
                    failures += 1
                    continue
                regressed = cur > threshold
                if regressed:
                    failures += 1
                rows.append(
                    (
                        filename,
                        f"{path} (<= {_fmt(threshold)})",
                        "-",
                        _fmt(cur),
                        "-",
                        "REGRESSED" if regressed else "ok",
                    )
                )
                continue
            base = resolve(baseline_payload, path)
            cur = resolve(current_payload, path)
            if base is None:
                rows.append(
                    (filename, path, "-", _fmt(cur), "-", "NO-BASELINE")
                )
                continue
            if cur is None:
                rows.append(
                    (filename, path, _fmt(base), "-", "-", "MISSING")
                )
                failures += 1
                continue
            regressed, delta = judge(base, cur, direction, threshold)
            status = "REGRESSED" if regressed else "ok"
            if regressed:
                failures += 1
            arrow = "^" if direction == "higher" else "v"
            rows.append(
                (
                    filename,
                    f"{path} ({arrow})",
                    _fmt(base),
                    _fmt(cur),
                    f"{delta:+.1%}",
                    status,
                )
            )
    _print_table(rows)
    if failures:
        print(
            f"\n{failures} benchmark metric(s) regressed beyond their "
            f"threshold (default {default_threshold:.0%})."
        )
        return 1
    print("\nAll watched benchmark metrics within thresholds.")
    return 0


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == int(value) and abs(value) < 1e6:
        return str(int(value))
    return f"{value:.4g}"


def _print_table(rows) -> None:
    header = (
        "artifact",
        "metric",
        "baseline",
        "current",
        "delta",
        "status",
    )
    table = [header, *rows]
    widths = [
        max(len(str(row[i])) for row in table)
        for i in range(len(header))
    ]
    for index, row in enumerate(table):
        print(
            "  ".join(
                str(cell).ljust(width)
                for cell, width in zip(row, widths)
            )
        )
        if index == 0:
            print("  ".join("-" * width for width in widths))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fail when benchmark artifacts regress vs baselines"
    )
    parser.add_argument(
        "--baseline",
        default=os.path.join(os.path.dirname(__file__), "out"),
        help="directory holding baseline BENCH_*.json (default: the "
        "committed benchmarks/out/)",
    )
    parser.add_argument(
        "--current",
        required=True,
        help="directory holding freshly produced BENCH_*.json",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="default allowed relative regression (0.25 = 25%%)",
    )
    parser.add_argument(
        "--only",
        action="append",
        metavar="BENCH_x.json",
        help="restrict the gate to the named artifact(s); repeatable",
    )
    args = parser.parse_args(argv)
    return check(
        args.baseline, args.current, args.threshold, only=args.only
    )


if __name__ == "__main__":
    sys.exit(main())
