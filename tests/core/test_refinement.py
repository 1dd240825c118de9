"""The six refinement operations (§3.2.4 / Figure 8)."""

from datetime import datetime, timedelta

import pytest

from repro.core import FireMonitoringService, RunOptions, ServiceConfig
from repro.core.products import Hotspot, HotspotProduct
from repro.core.refinement import (
    _PREFIXES,
    _SURVIVORS_AT_QUERY,
    RefinementPipeline,
    _ts_param,
)
from repro.geometry import Polygon
from repro.rdf import NOA, RDF
from repro.seviri.fires import FireSeason
from tests.conftest import CRISIS_START

TS = datetime(2007, 8, 24, 15, 0)


def hotspot_at(lon, lat, when=TS, confidence=1.0, size=0.05):
    return Hotspot(
        x=0,
        y=0,
        polygon=Polygon.square(lon, lat, size),
        confidence=confidence,
        timestamp=when,
        sensor="MSG2",
        chain="sciql",
    )


def product_with(hotspots, when=TS):
    return HotspotProduct(
        sensor="MSG2", timestamp=when, chain="sciql", hotspots=hotspots
    )


@pytest.fixture
def pipeline(strabon_with_aux):
    return RefinementPipeline(strabon_with_aux)


def surviving(pipeline, when=TS):
    return {
        row["h"] for row in pipeline.surviving_hotspots(when)
    }


class TestDeleteInSea:
    def test_sea_hotspot_removed(self, pipeline, greece):
        sea = hotspot_at(20.55, 34.55)  # far SW corner: open sea
        c = greece.mainland.representative_point()
        land = hotspot_at(c.x, c.y)
        pipeline.store(product_with([sea, land]))
        before = surviving(pipeline)
        assert len(before) == 2
        timing = pipeline.delete_in_sea(TS)
        assert timing.detail["removed"] > 0
        assert len(surviving(pipeline)) == 1

    def test_land_hotspot_kept(self, pipeline, greece):
        c = greece.mainland.representative_point()
        pipeline.store(product_with([hotspot_at(c.x, c.y)]))
        pipeline.delete_in_sea(TS)
        assert len(surviving(pipeline)) == 1


class TestInvalidForFires:
    def test_urban_hotspot_removed(self, pipeline, greece):
        capital = greece.prefectures[0].capital
        urban = hotspot_at(capital.x, capital.y, size=0.02)
        pipeline.store(product_with([urban]))
        cover = greece.land_cover_at(capital.x, capital.y)
        assert cover == "continuousUrbanFabric"
        timing = pipeline.invalid_for_fires(TS)
        # The urban pixel survives only if it also touches forest cover.
        remaining = surviving(pipeline)
        if remaining:
            # Acceptable: capital core adjacent to forest; check op ran.
            assert timing.operation == "Invalid For Fires"
        else:
            assert len(remaining) == 0

    def test_forest_hotspot_kept(self, pipeline, greece, season):
        fire = season.forest_fires()[0]
        pipeline.store(product_with([hotspot_at(fire.lon, fire.lat)]))
        timing = pipeline.invalid_for_fires(TS)
        assert len(surviving(pipeline)) == 1
        assert timing.detail["removed"] == 0


class TestRefineInCoast:
    def test_partially_sea_geometry_clipped(self, pipeline, greece):
        # Find a coastal point: walk west from a land point until sea.
        c = greece.mainland.representative_point()
        lon = c.x
        while greece.is_land(lon, c.y):
            lon -= 0.02
        straddling = hotspot_at(lon + 0.01, c.y, size=0.2)
        pipeline.store(product_with([straddling]))
        original_area = straddling.polygon.area
        pipeline.refine_in_coast(TS)
        rows = pipeline.surviving_hotspots(TS)
        assert len(rows) == 1
        refined = rows.rows[0]["hGeo"].value
        assert 0 < refined.area < original_area

    def test_inland_geometry_untouched(self, pipeline, greece):
        c = greece.mainland.representative_point()
        inland = hotspot_at(c.x, c.y, size=0.02)
        pipeline.store(product_with([inland]))
        pipeline.refine_in_coast(TS)
        rows = pipeline.surviving_hotspots(TS)
        assert rows.rows[0]["hGeo"].value.area == pytest.approx(
            inland.polygon.area, rel=1e-9
        )


class TestTimePersistence:
    def test_repeated_detection_confirmed(self, pipeline, greece):
        c = greece.mainland.representative_point()
        for k in range(4):
            when = TS - timedelta(minutes=15 * (3 - k))
            pipeline.store(product_with([hotspot_at(c.x, c.y, when)], when))
        timing = pipeline.time_persistence(TS)
        assert timing.detail["confirmed"] == 1
        rows = pipeline.surviving_hotspots(TS)
        confirmation = rows.rows[0].get("confirmation")
        assert confirmation == NOA.confirmed

    def test_isolated_detection_unconfirmed(self, pipeline, greece):
        c = greece.mainland.representative_point()
        pipeline.store(product_with([hotspot_at(c.x, c.y)]))
        pipeline.time_persistence(TS)
        rows = pipeline.surviving_hotspots(TS)
        assert rows.rows[0].get("confirmation") == NOA.unconfirmed

    def test_old_detections_outside_window_ignored(self, pipeline, greece):
        c = greece.mainland.representative_point()
        stale = TS - timedelta(hours=5)
        for k in range(4):
            when = stale - timedelta(minutes=15 * k)
            pipeline.store(product_with([hotspot_at(c.x, c.y, when)], when))
        pipeline.store(product_with([hotspot_at(c.x, c.y)]))
        timing = pipeline.time_persistence(TS)
        assert timing.detail["confirmed"] == 0


class TestFullPipeline:
    def test_refine_acquisition_runs_all_ops(self, pipeline, greece, season):
        fire = season.forest_fires()[0]
        product = product_with(
            [hotspot_at(fire.lon, fire.lat), hotspot_at(20.55, 34.55)]
        )
        timings = pipeline.refine_acquisition(product)
        assert [t.operation for t in timings] == list(
            RefinementPipeline.OPERATIONS
        )
        assert all(t.seconds >= 0 for t in timings)
        # Sea false alarm eliminated, forest detection kept.
        assert len(surviving(pipeline)) == 1


#: The survivors template as it was: ``?t`` matched over every hotspot,
#: then compared as a string.  Kept as the oracle of the bound form.
SURVIVORS_BY_STRING = _PREFIXES + """
SELECT ?h ?hGeo ?conf ?confirmation
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?t ;
     strdf:hasGeometry ?hGeo ;
     noa:hasConfidence ?conf .
  OPTIONAL { ?h noa:hasConfirmation ?confirmation }
  FILTER( str(?t) = str(?__ts) ) . }
"""


def _row_set(rows):
    return sorted(
        tuple(
            str(row.get(var))
            for var in ("h", "hGeo", "conf", "confirmation")
        )
        for row in rows
    )


def test_survivors_at_binds_the_acquisition_time(greece):
    """The bound template answers what the string comparison did, and
    its plan starts from this acquisition's subjects (or from the
    hotspots, while those are fewer), never from the whole archive."""
    # A season of its own: a service run advances the season it is
    # given, and the session one must stay fresh for other tests.
    season = FireSeason(greece, CRISIS_START, days=1, seed=7)
    service = FireMonitoringService(
        greece=greece, config=ServiceConfig(sources={"seed": 7})
    )
    base = CRISIS_START + timedelta(hours=12)
    try:
        for k in range(6):
            (outcome,) = service.run(
                [base + timedelta(minutes=15 * k)],
                RunOptions(season=season, on_error="raise"),
            )
            assert outcome.status == "ok"
            refinement = service.refinement
            when = outcome.raw_product.timestamp
            params = {"__ts": _ts_param(when)}
            got = refinement.surviving_hotspots(when)
            want = refinement.strabon.select(SURVIVORS_BY_STRING, params)
            assert _row_set(got) == _row_set(want), f"acquisition {k}"
            assert outcome.refined_count == len(got)
            bgp = refinement.strabon.query(
                _SURVIVORS_AT_QUERY, params, explain=True
            )["plan"][0]
            graph = refinement.strabon.graph
            this_acquisition = graph.count(
                None, NOA.hasAcquisitionDateTime, params["__ts"]
            )
            archive = graph.count(None, RDF.type, NOA.Hotspot)
            assert bgp["actual_rows"][0] == min(this_acquisition, archive)
        # By now the archive outgrew one acquisition's subjects.
        assert this_acquisition < archive
        assert bgp["join_order"][0].endswith("?__ts")
    finally:
        service.close()
