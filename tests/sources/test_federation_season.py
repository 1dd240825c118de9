"""The federation works on its own copy of the caller's season."""

from __future__ import annotations

from repro.core import FireMonitoringService, RunOptions, ServiceConfig


def test_federated_run_leaves_the_season_unchanged(
    sources_greece, make_season, acquisition_requests
):
    season = make_season()
    before = list(season.events)
    service = FireMonitoringService(
        greece=sources_greece,
        config=ServiceConfig(
            seed=42,
            sources={"seed": 7, "polar_revisit_minutes": 15},
        ),
    )
    try:
        service.run(
            acquisition_requests[:1],
            RunOptions(season=season, on_error="raise"),
        )
        # The scenes still carry the static sites' heat: it lives in
        # the federation's copy.
        own = service.sources.season
        assert own is not season
        assert any(e.kind == "industrial" for e in own.events)
    finally:
        service.close()
    assert season.events == before
    assert not any(e.kind == "industrial" for e in season.events)
