"""Budget accounting over service outcomes and Table 2 regeneration
from spans."""

from __future__ import annotations

import io
from datetime import timedelta
from types import SimpleNamespace

import pytest

from repro.core import (
    FaultPolicy,
    FireMonitoringService,
    RunOptions,
)
from repro.faults import FaultPlan, inject
from repro.obs import (
    MetricsRegistry,
    Tracer,
    budget_report,
    budget_summary,
    build_snapshot,
    read_spans_jsonl,
    table2_from_spans,
    write_spans_jsonl,
)
from tests.conftest import CRISIS_START


def _outcome(chain, refinement=0.0, window=300.0):
    return SimpleNamespace(
        chain_seconds=chain,
        refinement_seconds=refinement,
        window_seconds=window,
    )


def test_record_and_miss_ratio():
    summary = budget_summary([_outcome(2.0, 1.0), _outcome(250.0, 100.0)])
    assert summary["total_avg_s"] == 176.5
    assert summary["headroom_min_s"] == -50.0
    assert summary["deadline_misses"] == 1
    assert summary["deadline_miss_ratio"] == 0.5


def test_rolling_window_limits_miss_ratio():
    # One miss, then 96 on-time acquisitions: the miss rolls out of the
    # ratio (the last 96 = 8 h of MSG1) but stays in the all-time count.
    outcomes = [_outcome(400.0)] + [_outcome(1.0)] * 96
    summary = budget_summary(outcomes)
    assert summary["deadline_misses"] == 1
    assert summary["deadline_miss_ratio"] == 0.0
    assert budget_summary(outcomes[:3])["deadline_miss_ratio"] == (
        pytest.approx(1 / 3)
    )


def test_record_outcome_duck_types_service_outcomes():
    # Each outcome is held to the window of the run that produced it.
    summary = budget_summary([_outcome(1.5, 0.5, window=1.0)])
    assert summary["deadline_misses"] == 1
    assert summary["headroom_min_s"] == -1.0


def test_summary_and_report():
    assert budget_report([]) == (
        "Acquisition budget: 300 s window, 0 acquisition(s)\n"
        "  (no acquisitions recorded)"
    )
    outcomes = [_outcome(4.0, 2.0), _outcome(400.0)]
    summary = budget_summary(outcomes)
    assert summary["acquisitions"] == 2.0
    assert summary["chain_avg_s"] == pytest.approx(202.0)
    assert summary["refinement_avg_s"] == pytest.approx(1.0)
    assert summary["total_max_s"] == 400.0
    assert budget_report(outcomes) == (
        "Acquisition budget: 300 s window, 2 acquisition(s)\n"
        "  chain       avg  202.000 s\n"
        "  refinement  avg    1.000 s\n"
        "  total       avg  203.000 s   max  400.000 s\n"
        "  headroom    min -100.000 s\n"
        "  deadline misses: 1/2 (rolling ratio 50.0% over last 2)"
    )


def test_report_health_and_snapshot_agree_on_the_service_outcomes(
    greece, season
):
    when = CRISIS_START + timedelta(hours=12)
    with FireMonitoringService(greece=greece) as service:
        service.run([when], RunOptions(season=season))
        service.run(
            [when + timedelta(minutes=15)],
            RunOptions(
                season=season,
                fault_policy=FaultPolicy(window_seconds=0.001),
            ),
        )
        with inject(FaultPlan().raise_in("stage.chain", times=99)):
            service.run(
                [when + timedelta(minutes=30)], RunOptions(season=season)
            )
        assert [o.status for o in service.outcomes] == [
            "ok", "degraded", "error",
        ]
        deadline = build_snapshot(MetricsRegistry(), service.outcomes)[
            "deadline"
        ]
        misses = service.health()["deadline_misses"]
        report = service.budget_report()
    # Only the 1 ms window is missed; the error outcome spent nothing.
    assert misses == 1
    assert deadline["acquisitions"] == 3
    assert deadline["window_seconds"] == 300.0
    assert deadline["miss_ratio"] == pytest.approx(1 / 3)
    assert report.splitlines()[0] == (
        "Acquisition budget: 300 s window, 3 acquisition(s)"
    )
    assert (
        f"max {deadline['total_max_s']:8.3f} s" in report
    )
    assert report.endswith(
        f"deadline misses: {misses}/3 (rolling ratio "
        f"{deadline['miss_ratio']:.1%} over last 3)"
    )


def _chain_trace(tracer: Tracer, chain: str) -> None:
    with tracer.span("chain.process", chain=chain):
        for stage in ("decode", "crop", "georeference", "classify",
                      "vectorize"):
            with tracer.span(f"chain.{stage}"):
                pass


def test_table2_from_spans_groups_by_chain_and_stage():
    tracer = Tracer(enabled=True)
    _chain_trace(tracer, "sciql")
    _chain_trace(tracer, "sciql")
    _chain_trace(tracer, "legacy")
    # Unrelated spans must not disturb the table.
    with tracer.span("acquisition"):
        with tracer.span("stsparql.query"):
            pass
    breakdown = table2_from_spans(tracer.spans())
    assert breakdown.acquisition_count == 3
    assert set(breakdown.chains) == {"sciql", "legacy"}
    sciql = breakdown.chains["sciql"]
    assert sciql["TOTAL"].count == 2
    for stage in ("decode", "crop", "georeference", "classify",
                  "vectorize"):
        assert sciql[stage].count == 2
        assert sciql[stage].min <= sciql[stage].avg <= sciql[stage].max
    assert breakdown.chains["legacy"]["TOTAL"].count == 1
    text = breakdown.format()
    assert "3 acquisition(s)" in text
    assert "sciql" in text and "legacy" in text
    # Stages render in the paper's §3.1 order, TOTAL last.
    legacy_rows = [line for line in text.splitlines()
                   if line.startswith("legacy")]
    assert [row.split()[1] for row in legacy_rows] == [
        "decode", "crop", "georeference", "classify", "vectorize",
        "TOTAL",
    ]


def test_table2_from_reloaded_jsonl_records():
    tracer = Tracer(enabled=True)
    _chain_trace(tracer, "sciql")
    buffer = io.StringIO()
    write_spans_jsonl(tracer.spans(), buffer)
    buffer.seek(0)
    records = read_spans_jsonl(buffer)
    breakdown = table2_from_spans(records)
    assert breakdown.acquisition_count == 1
    assert breakdown.chains["sciql"]["classify"].count == 1
