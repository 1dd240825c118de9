"""The fault matrix: every fault class against a crisis-day batch.

The contract under test (the crisis-day contract): with
``on_error="degrade"`` no exception escapes
:meth:`FireMonitoringService.run`, outcomes come back in request order,
acquisitions hit by a fault carry non-``ok`` statuses that say what was
sacrificed, and two runs with the same seeds produce identical outcomes.

Timing-derived message fragments ("12.3s left of the 300s window") are
not run-deterministic, so cross-run comparisons normalise digits out of
the error strings.
"""

from __future__ import annotations

import re
from datetime import timedelta

import pytest

from repro.core import (
    FaultPolicy,
    FireMonitoringService,
    RunOptions,
    ServiceConfig,
)
from repro.faults import FaultInjected, FaultPlan, inject
from tests.conftest import CRISIS_START

N = 6


def _whens():
    return [
        CRISIS_START + timedelta(hours=12, minutes=15 * k)
        for k in range(N)
    ]


def _policy(**kwargs):
    kwargs.setdefault("seed", 7)
    kwargs.setdefault("retry_base_delay_s", 0.001)
    kwargs.setdefault("retry_max_delay_s", 0.005)
    return FaultPolicy(**kwargs)


_DIGITS = re.compile(r"\d+(?:\.\d+)?")


def _signature(outcomes):
    """What must be identical across same-seed runs."""
    return [
        (
            outcome.status,
            outcome.timestamp,
            outcome.refined_count,
            None
            if outcome.raw_product is None
            else len(outcome.raw_product),
            tuple(_DIGITS.sub("#", e) for e in outcome.errors),
        )
        for outcome in outcomes
    ]


@pytest.fixture()
def run_batch(greece, season):
    """Run the 6-acquisition crisis batch under a fault plan.

    Returns ``(service, outcomes)``; every service is closed (workdir
    removed) at teardown.
    """
    services = []

    def _run(plan, *, policy=None, on_error="degrade"):
        service = FireMonitoringService(
            greece=greece, config=ServiceConfig(use_files=True)
        )
        services.append(service)
        options = RunOptions(
            season=season,
            fault_policy=policy if policy is not None else _policy(),
            on_error=on_error,
        )
        with inject(plan):
            outcomes = service.run(_whens(), options)
        return service, outcomes

    yield _run
    for service in services:
        service.close()


def _assert_in_order(outcomes):
    assert [o.timestamp for o in outcomes] == _whens()


def test_corrupt_segment_quarantines_and_degrades(run_batch):
    plan = FaultPlan(seed=7).corrupt_segment(index=1)
    service, outcomes = run_batch(plan)
    _assert_in_order(outcomes)
    hit = outcomes[1]
    assert hit.status == "degraded"
    assert hit.raw_product is not None
    text = " ".join(hit.errors)
    assert "quarantined" in text
    assert "single-band" in text
    for other in outcomes[:1] + outcomes[2:]:
        assert other.ok, other.errors
    records = service.dead_letters.records()
    assert len(records) == 1
    assert records[0].reason == "undecodable-segment"
    assert records[0].site.startswith("prepare.")


def test_dropped_detection_band_suppresses_hotspots(run_batch):
    plan = FaultPlan(seed=7).drop_band(index=2, band="IR_039")
    _service, outcomes = run_batch(plan)
    _assert_in_order(outcomes)
    hit = outcomes[2]
    assert hit.status == "degraded"
    assert "IR_039" in " ".join(hit.errors)
    # Without the 3.9 um band fire detection is suppressed: the product
    # exists (the acquisition completed) but finds nothing.
    assert hit.raw_product is not None
    assert len(hit.raw_product) == 0
    assert hit.refined_count == 0
    for other in outcomes[:2] + outcomes[3:]:
        assert other.ok, other.errors


def test_stage_timeout_skips_refinement(run_batch):
    plan = FaultPlan(seed=7).delay("stage.chain", seconds=2.5, index=3)
    _service, outcomes = run_batch(
        plan, policy=_policy(window_seconds=2.0)
    )
    _assert_in_order(outcomes)
    hit = outcomes[3]
    assert hit.status == "degraded"
    assert hit.stage_one_seconds > 2.0
    assert any("refinement skipped" in e for e in hit.errors)
    assert hit.raw_product is not None  # the product still shipped


def test_transient_faults_are_retried_to_success(run_batch):
    plan = FaultPlan(seed=7).raise_in("stage.chain", index=3, times=2)
    _service, outcomes = run_batch(plan, policy=_policy(max_attempts=3))
    _assert_in_order(outcomes)
    assert all(o.ok for o in outcomes)


def test_retry_exhaustion_yields_error_outcome(run_batch):
    plan = FaultPlan(seed=7).raise_in("stage.chain", index=3, times=5)
    _service, outcomes = run_batch(plan, policy=_policy(max_attempts=2))
    _assert_in_order(outcomes)
    hit = outcomes[3]
    assert hit.status == "error"
    assert hit.raw_product is None
    assert any("FaultInjected" in e for e in hit.errors)
    for other in outcomes[:3] + outcomes[4:]:
        assert other.ok, other.errors


def test_on_error_raise_propagates(run_batch):
    plan = FaultPlan(seed=7).raise_in("stage.chain", index=3, times=5)
    with pytest.raises(FaultInjected):
        run_batch(plan, policy=_policy(max_attempts=2), on_error="raise")


def _combined_plan():
    return (
        FaultPlan(seed=7)
        .corrupt_segment(index=1)
        .drop_band(index=2, band="IR_039")
        .raise_in("stage.chain", index=3, times=2)
        .delay("refine.municipalities", seconds=0.05, index=4)
    )


def test_combined_plan_is_deterministic_everywhere(run_batch):
    """One fault of each class at once: two runs produce the same
    outcomes."""
    signatures = [
        _signature(run_batch(_combined_plan())[1]) for _ in range(2)
    ]
    assert signatures[0] == signatures[1]
    statuses = [sig[0] for sig in signatures[0]]
    assert statuses == ["ok", "degraded", "degraded", "ok", "ok", "ok"]
