"""Source-outage fault matrix (ISSUE 10 tentpole harness, part b).

Every federated source is dropped at every acquisition phase.  Losing a source must be a *degradation*:
the acquisition completes, the served confirmed-hotspot set is a
labelled subset of the no-fault oracle's, the degraded outcome names
the missing source, and ``health()`` reports the gap.  A repeated
outage must open the per-source circuit breaker, which then
short-circuits the driver (``breaker-open`` gaps) instead of hammering
it.
"""

from __future__ import annotations

import json
from datetime import timedelta

import pytest

from repro.core import FireMonitoringService, RunOptions, ServiceConfig
from repro.faults import FaultPlan, inject
from repro.serve.hotspots import query_hotspots

from tests.sources.conftest import CRISIS_START, N_ACQUISITIONS

SOURCES = ("polar", "weather")
SEASON_SEED = 7


def _requests():
    base = CRISIS_START + timedelta(hours=13)
    return [
        base + timedelta(minutes=15 * k)
        for k in range(N_ACQUISITIONS)
    ]


def _build(greece, breaker_threshold=2):
    return FireMonitoringService(
        greece=greece,
        config=ServiceConfig(
            seed=42,
            sources={
                "seed": SEASON_SEED,
                "polar_revisit_minutes": 15,
                "breaker_threshold": breaker_threshold,
            },
        ),
    )


def _served(service):
    """(confirmed URI set, full canonical feature JSON)."""
    collection = query_hotspots(service.publisher.require_latest())
    confirmed = {
        f["properties"]["hotspot"]
        for f in collection["features"]
        if f["properties"]["confirmation"] == "confirmed"
    }
    return confirmed, json.dumps(
        collection["features"], sort_keys=True
    )


@pytest.fixture(scope="module")
def oracle(sources_greece):
    """Confirmed set + features of a run that loses nothing."""
    from repro.seviri.fires import FireSeason

    season = FireSeason(
        sources_greece, CRISIS_START, days=1, seed=SEASON_SEED
    )
    service = _build(sources_greece)
    try:
        outcomes = service.run(_requests(), RunOptions(season=season))
        assert [o.status for o in outcomes] == ["ok"] * N_ACQUISITIONS
        return _served(service)
    finally:
        service.close()


@pytest.mark.parametrize("fault_index", range(N_ACQUISITIONS))
@pytest.mark.parametrize("source", SOURCES)
def test_outage_cell(
    source, fault_index, sources_greece, make_season, oracle
):
    season = make_season(seed=SEASON_SEED)
    service = _build(sources_greece)
    plan = FaultPlan(seed=fault_index).raise_in(
        f"source.{source}", index=fault_index
    )
    try:
        with inject(plan):
            outcomes = service.run(_requests(), RunOptions(season=season))
        statuses = [o.status for o in outcomes]
        expected = ["ok"] * N_ACQUISITIONS
        expected[fault_index] = "degraded"
        assert statuses == expected

        # The degraded outcome is labelled: it names the lost source,
        # and its per-source reports carry the outage.
        degraded = outcomes[fault_index]
        assert any(
            f"source {source} unavailable" in error
            for error in degraded.errors
        )
        by_source = {
            r["source"]: r for r in degraded.source_reports
        }
        assert by_source[source]["status"] == "outage"
        others = [
            r
            for name, r in by_source.items()
            if name != source
        ]
        assert others and all(
            r["status"] == "ok" for r in others
        ), "the surviving sources must keep flowing"

        # Subset, not divergence: losing corroborating evidence can
        # only shrink the confirmed set (the SEVIRI hotspots
        # themselves all survive).
        oracle_confirmed, oracle_features = oracle
        confirmed, _features = _served(service)
        assert confirmed <= oracle_confirmed
        if source == "weather":
            # Weather never corroborates fire pixels, so the fire
            # data is untouched — byte-identical to the oracle.
            assert _features == oracle_features

        # health() reports the gap.
        report = service.health()
        health = report["sources"][source]
        assert health["outages_total"] == 1
        assert health["breaker"] == "closed"
        expected_last = (
            "ok" if fault_index < N_ACQUISITIONS - 1 else "outage"
        )
        assert health["last_status"] == expected_last
        assert report["acquisitions"].get("degraded") == 1
    finally:
        service.close()


def test_repeated_outage_opens_breaker(sources_greece, make_season):
    season = make_season(seed=SEASON_SEED)
    service = _build(sources_greece, breaker_threshold=1)
    plan = FaultPlan(seed=0).raise_in(
        "source.polar", index=0
    )
    try:
        with inject(plan):
            outcomes = service.run(_requests(), RunOptions(season=season))
        # Acquisition 0 is a real outage; the breaker (threshold 1,
        # 60 s recovery) then short-circuits the remaining slots.
        assert [o.status for o in outcomes] == [
            "degraded"
        ] * N_ACQUISITIONS
        statuses = [
            {
                r["source"]: r["status"]
                for r in o.source_reports
            }["polar"]
            for o in outcomes
        ]
        assert statuses == [
            "outage",
            "breaker-open",
            "breaker-open",
        ]
        health = service.health()["sources"]["polar"]
        assert health["breaker"] == "open"
        assert health["outages_total"] == N_ACQUISITIONS
        # Weather kept flowing throughout.
        assert (
            service.health()["sources"]["weather"][
                "observations_total"
            ]
            > 0
        )
    finally:
        service.close()
