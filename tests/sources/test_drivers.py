"""Unit coverage for the per-source drivers and shared records."""

from __future__ import annotations

from datetime import timedelta

import pytest

from repro.core.annotation import (
    annotate_source_batch,
    source_name,
    source_uri,
)
from repro.core.config import ServiceConfig
from repro.errors import ConfigurationError
from repro.rdf import Graph, NOA
from repro.sources import (
    PolarOrbiterDriver,
    SourceBatch,
    SourcesConfig,
    WeatherStationDriver,
    simulate_static_sites,
    simulate_stations,
)
from repro.datasets.corine import FIRE_CONSISTENT_KEYS

from tests.sources.conftest import CRISIS_START


# -- configuration ---------------------------------------------------------


def test_sources_config_roundtrip():
    config = SourcesConfig(seed=9, stations=5, static_sites=2)
    config.validate()
    assert SourcesConfig.from_dict(config.to_dict()) == config


@pytest.mark.parametrize(
    "overrides",
    [
        {"fusion_window_minutes": 0},
        {"fusion_window_degrees": -0.1},
        {"single_source_decay": 0.0},
        {"single_source_decay": 1.5},
        {"stations": -1},
        {"static_sites": -3},
    ],
)
def test_sources_config_rejects_bad_values(overrides):
    with pytest.raises(ValueError):
        SourcesConfig(**overrides).validate()


def test_service_config_normalises_sources():
    config = ServiceConfig(sources=True)
    config.validate()
    assert isinstance(config.sources, SourcesConfig)

    config = ServiceConfig(sources={"seed": 3, "stations": 4})
    config.validate()
    assert config.sources.seed == 3
    assert config.sources.stations == 4

    with pytest.raises(ConfigurationError):
        ServiceConfig(sources="polar").validate()
    with pytest.raises(ConfigurationError):
        ServiceConfig(
            sources={"single_source_decay": 2.0}
        ).validate()


def test_source_uri_roundtrip():
    for name in ("polar", "weather", "seviri"):
        assert source_name(source_uri(name)) == name


# -- polar orbiter ---------------------------------------------------------


def test_polar_revisit_windows(sources_greece):
    driver = PolarOrbiterDriver(
        sources_greece, revisit_minutes=90, pass_minutes=20
    )
    base = CRISIS_START.replace(hour=0, minute=0)
    for minute in (0, 10, 19, 90, 109):
        assert driver.available(base + timedelta(minutes=minute))
    for minute in (20, 45, 89, 110, 170):
        assert not driver.available(
            base + timedelta(minutes=minute)
        )


def test_polar_acquire_deterministic(sources_greece, make_season):
    season = make_season()
    when = CRISIS_START + timedelta(hours=13)
    a = PolarOrbiterDriver(
        sources_greece, seed=5, revisit_minutes=15
    ).acquire(when, season)
    b = PolarOrbiterDriver(
        sources_greece, seed=5, revisit_minutes=15
    ).acquire(when, season)
    assert a.observations == b.observations
    assert a.kind == "fire"
    for obs in a.observations:
        assert 0.0 <= obs.confidence <= 1.0
        assert obs.extras["satellite"]
        assert obs.timestamp == when


# -- weather stations ------------------------------------------------------


def test_station_placement(sources_greece):
    stations = simulate_stations(sources_greece, count=8, seed=3)
    assert stations == simulate_stations(
        sources_greece, count=8, seed=3
    )
    assert len(stations) == 8
    for station in stations:
        assert sources_greece.is_land(station.lon, station.lat)
        assert station.municipality_index >= -1


def test_weather_driver_reports(sources_greece):
    driver = WeatherStationDriver(
        sources_greece, stations=6, seed=3
    )
    when = CRISIS_START + timedelta(hours=13)
    assert driver.available(when)
    batch = driver.acquire(when, None)
    assert batch.kind == "weather"
    assert len(batch) == 6
    again = driver.acquire(when, None)
    assert batch.observations == again.observations
    for obs in batch.observations:
        assert 0.0 <= obs.confidence <= 1.2
        assert "temperature_c" in obs.extras
        assert "relative_humidity" in obs.extras
        assert "wind_speed_ms" in obs.extras


# -- static sites ----------------------------------------------------------


def test_static_sites_on_fire_consistent_cover(sources_greece):
    sites = simulate_static_sites(sources_greece, count=3, seed=5)
    assert sites == simulate_static_sites(
        sources_greece, count=3, seed=5
    )
    for site in sites:
        assert sources_greece.is_land(site.lon, site.lat)
        cover = sources_greece.land_cover_at(site.lon, site.lat)
        assert cover in FIRE_CONSISTENT_KEYS
        envelope = site.footprint.envelope
        assert envelope.contains_point(site.lon, site.lat)


# -- annotation ------------------------------------------------------------


def test_weather_annotation_replaces_station_star(sources_greece):
    driver = WeatherStationDriver(
        sources_greece, stations=4, seed=3
    )
    graph = Graph()
    first = CRISIS_START + timedelta(hours=13)
    second = first + timedelta(minutes=15)
    annotate_source_batch(graph, driver.acquire(first, None))
    size_after_first = len(graph)
    annotate_source_batch(graph, driver.acquire(second, None))
    # Replace, not accumulate: one star per station.
    assert len(graph) == size_after_first
    from repro.rdf import RDF

    subjects = set(
        graph.subjects(RDF.type, NOA.WeatherObservation)
    )
    assert len(subjects) == 4
    for subject in subjects:
        acquired = graph.value(
            subject, NOA.hasAcquisitionDateTime
        )
        assert acquired.lexical.endswith("13:15:00")


def test_fire_annotation_writes_detection_star(
    sources_greece, make_season
):
    from repro.rdf import RDF

    season = make_season()
    when = CRISIS_START + timedelta(hours=13)
    batch = PolarOrbiterDriver(
        sources_greece, seed=5, revisit_minutes=15
    ).acquire(when, season)
    graph = Graph()
    added = annotate_source_batch(graph, batch)
    assert added > 0
    detections = set(
        graph.subjects(RDF.type, NOA.SourceDetection)
    )
    assert len(detections) == len(batch)
    for subject in detections:
        assert graph.value(
            subject, NOA.fromSource
        ) == source_uri("polar")
