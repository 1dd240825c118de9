"""The ``BENCH_obs.json`` snapshot: a machine-readable perf baseline.

Benchmarks call :func:`build_snapshot` after an instrumented run and
persist the result; future PRs diff their own snapshot against the
committed one, so per-stage latency regressions become visible in
review.  :func:`validate_snapshot` is the schema contract, enforced by
a tier-1 smoke test.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Sequence

from repro.obs.budget import budget_summary
from repro.obs.metrics import MetricsRegistry

__all__ = ["SNAPSHOT_SCHEMA", "build_snapshot", "validate_snapshot",
           "write_snapshot"]

SNAPSHOT_SCHEMA = "repro.obs/bench-snapshot/v1"

#: Histograms whose label sets become per-stage entries in the snapshot.
_STAGE_HISTOGRAMS = {
    "chain_stage_seconds": ("chain", "stage"),
    "refine_operation_seconds": ("operation",),
    "acquisition_stage_seconds": ("stage",),
}


def _stage_key(histogram: str, labels: Dict[str, str]) -> str:
    label_keys = _STAGE_HISTOGRAMS[histogram]
    parts = [labels.get(k, "?") for k in label_keys]
    prefix = histogram.split("_", 1)[0]
    return "/".join([prefix] + parts)


def build_snapshot(
    metrics: MetricsRegistry,
    outcomes: Sequence = (),
) -> Dict[str, Any]:
    """Summarise an instrumented run — its metrics and the service's
    acquisition outcomes — as the BENCH_obs.json document."""
    stages: Dict[str, Dict[str, float]] = {}
    for metric in metrics.collect():
        if metric["kind"] != "histogram":
            continue
        name = metric["name"]
        if name not in _STAGE_HISTOGRAMS:
            continue
        for labels, summary in metric["samples"]:
            stages[_stage_key(name, labels)] = {
                "count": int(summary["count"]),
                "p50_s": float(summary["p50"]),
                "p95_s": float(summary["p95"]),
                "max_s": float(summary["max"]),
            }
    budget = budget_summary(outcomes)
    deadline = {
        "window_seconds": float(budget["window_seconds"]),
        "acquisitions": int(budget["acquisitions"]),
        "miss_ratio": float(budget["deadline_miss_ratio"]),
        "total_avg_s": float(budget["total_avg_s"]),
        "total_max_s": float(budget["total_max_s"]),
    }
    return {
        "schema": SNAPSHOT_SCHEMA,
        "stages": stages,
        "deadline": deadline,
    }


def validate_snapshot(document: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``document`` matches the schema."""
    if not isinstance(document, dict):
        raise ValueError("snapshot must be a JSON object")
    if document.get("schema") != SNAPSHOT_SCHEMA:
        raise ValueError(
            f"snapshot schema must be {SNAPSHOT_SCHEMA!r}, "
            f"got {document.get('schema')!r}"
        )
    stages = document.get("stages")
    if not isinstance(stages, dict):
        raise ValueError("snapshot 'stages' must be an object")
    for key, stage in stages.items():
        if not isinstance(stage, dict):
            raise ValueError(f"stage {key!r} must be an object")
        for field, kind in (
            ("count", int),
            ("p50_s", float),
            ("p95_s", float),
            ("max_s", float),
        ):
            value = stage.get(field)
            if not isinstance(value, (int, float)) or isinstance(
                value, bool
            ):
                raise ValueError(
                    f"stage {key!r} field {field!r} must be numeric"
                )
            if kind is int and int(value) != value:
                raise ValueError(
                    f"stage {key!r} field {field!r} must be integral"
                )
            if value < 0:
                raise ValueError(
                    f"stage {key!r} field {field!r} must be >= 0"
                )
    deadline = document.get("deadline")
    if not isinstance(deadline, dict):
        raise ValueError("snapshot 'deadline' must be an object")
    for field in (
        "window_seconds",
        "acquisitions",
        "miss_ratio",
        "total_avg_s",
        "total_max_s",
    ):
        value = deadline.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"deadline field {field!r} must be numeric")
    ratio = deadline["miss_ratio"]
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("deadline miss_ratio must lie in [0, 1]")


def write_snapshot(
    path: str,
    metrics: MetricsRegistry,
    outcomes: Sequence = (),
) -> Dict[str, Any]:
    """Build, validate and persist a snapshot; returns the document."""
    document = build_snapshot(metrics, outcomes)
    validate_snapshot(document)
    with open(path, "w") as f:
        json.dump(document, f, indent=2, sort_keys=True)
        f.write("\n")
    return document
