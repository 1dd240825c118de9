"""Map composition (Figure 6) and the end-to-end service (Figure 3)."""

from datetime import datetime, timedelta, timezone

import pytest

from repro.core.config import RunOptions
from repro.core.mapping import MapComposer, region_wkt
from repro.core.products import Hotspot, HotspotProduct
from repro.core.refinement import RefinementPipeline
from repro.core.service import FireMonitoringService
from repro.geometry import Polygon
from repro.obs import budget_summary

START = datetime(2007, 8, 24, tzinfo=timezone.utc)


@pytest.fixture
def endpoint_with_hotspots(strabon_with_aux, greece, season):
    pipeline = RefinementPipeline(strabon_with_aux)
    fire = season.forest_fires()[0]
    when = datetime(2007, 8, 24, 15, 0)
    hotspot = Hotspot(
        x=1,
        y=1,
        polygon=Polygon.square(fire.lon, fire.lat, 0.04),
        confidence=1.0,
        timestamp=when,
        sensor="MSG2",
    )
    pipeline.store(
        HotspotProduct(
            sensor="MSG2", timestamp=when, chain="sciql", hotspots=[hotspot]
        )
    )
    return strabon_with_aux, fire


class TestMapComposer:
    def test_all_layers_present(self, endpoint_with_hotspots, greece):
        endpoint, fire = endpoint_with_hotspots
        composer = MapComposer(endpoint)
        region = region_wkt(*greece.bbox)
        result = composer.compose(
            region=region,
            start="2007-08-24T00:00:00",
            end="2007-08-24T23:59:59",
        )
        layers = result["layers"]
        assert set(layers) == {
            "hotspots",
            "land_cover",
            "primary_roads",
            "capitals",
            "municipalities",
            "fire_stations",
        }
        assert len(layers["hotspots"]["features"]) == 1
        assert len(layers["capitals"]["features"]) == len(greece.prefectures)
        assert layers["land_cover"]["features"]

    def test_time_filter_excludes(self, endpoint_with_hotspots, greece):
        endpoint, _ = endpoint_with_hotspots
        composer = MapComposer(endpoint)
        result = composer.compose(
            region=region_wkt(*greece.bbox),
            start="2007-08-25T00:00:00",
            end="2007-08-25T23:59:59",
        )
        assert result["layers"]["hotspots"]["features"] == []

    def test_region_filter(self, endpoint_with_hotspots):
        endpoint, fire = endpoint_with_hotspots
        composer = MapComposer(endpoint)
        far_away = region_wkt(26.5, 41.0, 27.0, 41.4)
        got = composer.hotspots_query(
            far_away, "2007-08-24T00:00:00", "2007-08-24T23:59:59"
        )
        assert len(got) == 0

    def test_geojson_feature_shape(self, endpoint_with_hotspots, greece):
        endpoint, _ = endpoint_with_hotspots
        composer = MapComposer(endpoint)
        result = composer.compose(region=region_wkt(*greece.bbox))
        feature = result["layers"]["capitals"]["features"][0]
        assert feature["type"] == "Feature"
        assert feature["geometry"]["type"] == "Point"
        assert "nName" in feature["properties"]


class TestService:
    def test_teleios_acquisition(self, greece, season):
        service = FireMonitoringService(greece=greece)
        outcome = service.run(
            [START + timedelta(hours=15)],
            RunOptions(season=season, on_error="raise"),
        )[0]
        assert outcome.raw_product is not None
        assert outcome.refined_count is not None
        assert len(outcome.refinement_timings) == 6
        assert outcome.within_budget

    def test_export_product(self, greece, season, tmp_path):
        service = FireMonitoringService(greece=greece)
        outcome = service.run(
            [START + timedelta(hours=15)],
            RunOptions(season=season, on_error="raise"),
        )[0]
        shp = service.export_product(
            outcome.raw_product, str(tmp_path / "prod")
        )
        assert shp.endswith(".shp")
        from repro.shapefile import read_shapefile

        assert len(read_shapefile(shp)) == len(outcome.raw_product)

    def test_timing_summary(self, greece, season):
        service = FireMonitoringService(greece=greece)
        service.run(
            [START + timedelta(hours=15)],
            RunOptions(season=season, on_error="raise"),
        )[0]
        service.run(
            [START + timedelta(hours=15, minutes=15)],
            RunOptions(season=season, on_error="raise"),
        )[0]
        summary = budget_summary(service.outcomes)
        assert summary["acquisitions"] == 2.0
        assert summary["chain_avg_s"] > 0
        assert summary["refinement_avg_s"] > 0

    def test_refinement_removes_sea_false_alarms(self, greece, season):
        # Find an acquisition with smoke-over-sea false alarms; the
        # refined count must never exceed the raw count.
        service = FireMonitoringService(greece=greece)
        outcome = service.run(
            [START + timedelta(hours=17)],
            RunOptions(season=season, on_error="raise"),
        )[0]
        assert outcome.refined_count <= len(outcome.raw_product)
