"""Geometries, RDF terms and products must survive a pickle round trip.

The immutable ``__slots__`` value classes need explicit state handling
for that to work.
"""

from __future__ import annotations

import pickle
from datetime import datetime, timezone

from repro.core.products import Hotspot, HotspotProduct
from repro.geometry import (
    LineString,
    MultiPolygon,
    Point,
    Polygon,
    loads_wkt,
)
from repro.rdf import Literal, URI, XSD
from repro.rdf.term import BNode


def _roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


def test_geometries_roundtrip():
    square = Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    for geom in (
        Point(21.5, 37.2),
        LineString([(0, 0), (1, 1), (2, 0)]),
        square,
        MultiPolygon([square]),
        loads_wkt("POLYGON ((20 36, 21 36, 21 37, 20 37, 20 36))"),
    ):
        copy = _roundtrip(geom)
        assert copy == geom
        assert copy.wkt == geom.wkt
        assert copy.envelope == geom.envelope


def test_polygon_with_hole_keeps_structure():
    holed = Polygon(
        [(0, 0), (4, 0), (4, 4), (0, 4)],
        holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]],
    )
    copy = _roundtrip(holed)
    assert copy == holed
    assert abs(copy.area - holed.area) < 1e-12


def test_rdf_terms_roundtrip():
    uri = URI("http://teleios.di.uoa.gr/ontologies/noaOntology.owl#h1")
    plain = Literal("hello")
    typed = Literal("2007-08-24T12:00:00", datatype=XSD.base + "dateTime")
    geo = Literal(
        "POINT (21.0 37.0)",
        datatype="http://strdf.di.uoa.gr/ontology#geometry",
    )
    for term in (uri, plain, typed, geo):
        copy = _roundtrip(term)
        assert copy == term
        assert hash(copy) == hash(term)
    assert _roundtrip(BNode("b42")).label == "b42"
    # The lazily parsed geometry value survives too.
    assert _roundtrip(geo).value == geo.value


def test_hotspot_product_roundtrips():
    when = datetime(2007, 8, 24, 12, 0, tzinfo=timezone.utc)
    square = Polygon([(21, 37), (21.04, 37), (21.04, 37.04), (21, 37.04)])
    product = HotspotProduct(
        sensor="MSG2",
        timestamp=when,
        chain="sciql",
        hotspots=[
            Hotspot(
                x=3, y=4, polygon=square, confidence=1.0,
                timestamp=when, sensor="MSG2", chain="sciql",
            )
        ],
        processing_seconds=0.25,
    )
    copy = _roundtrip(product)
    assert len(copy) == 1
    assert copy.timestamp == product.timestamp
    assert copy.hotspots[0].polygon == square
    assert copy.processing_seconds == 0.25
