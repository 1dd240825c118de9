"""Property-style WKT fixpoint tests (seeded stdlib ``random``).

For any generated geometry ``g``: serialising, parsing and serialising
again must reach a fixpoint after one round —
``dumps(loads(dumps(g))) == dumps(g)`` — and the reparsed geometry must
be structurally identical to the first parse.  Constructors are allowed
one normalisation pass (ring orientation), which is why the property is
stated on the serialised text rather than on the raw input.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.geometry import (
    GeometryCollection,
    LineString,
    MultiLineString,
    MultiPoint,
    MultiPolygon,
    Point,
    Polygon,
    dumps_wkt,
    loads_wkt,
)
from repro.geometry.errors import WKTParseError


def _coord(rng: random.Random):
    # Mix of integers (exercise the ".0"-stripping in the serialiser),
    # short decimals, and full-precision doubles (exercise repr
    # round-tripping).
    roll = rng.random()
    if roll < 0.3:
        return float(rng.randrange(-180, 181))
    if roll < 0.6:
        return round(rng.uniform(-180, 180), 6)
    return rng.uniform(-180, 180)


def _point(rng):
    return Point(_coord(rng), _coord(rng))


def _linestring(rng):
    return LineString(
        [(_coord(rng), _coord(rng)) for _ in range(rng.randrange(2, 8))]
    )


def _polygon(rng):
    # A star-convex shell (random radii sorted by angle) is always a
    # valid simple ring; a small square hole near the centroid stays
    # inside it.
    cx, cy = _coord(rng), _coord(rng)
    n = rng.randrange(3, 9)
    angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(n))
    if len(set(angles)) < 3:
        angles = [k * 2 * math.pi / n for k in range(n)]
    shell = [
        (cx + rng.uniform(2.0, 4.0) * math.cos(a),
         cy + rng.uniform(2.0, 4.0) * math.sin(a))
        for a in angles
    ]
    holes = None
    if rng.random() < 0.4:
        h = rng.uniform(0.1, 0.5)
        holes = [[(cx - h, cy - h), (cx + h, cy - h),
                  (cx + h, cy + h), (cx - h, cy + h)]]
    return Polygon(shell, holes)


def _geometry(rng, depth=0):
    makers = [_point, _linestring, _polygon]
    if depth == 0:
        makers += [_multipoint, _multilinestring, _multipolygon,
                   _collection]
    return rng.choice(makers)(rng)


def _multipoint(rng):
    return MultiPoint([_point(rng) for _ in range(rng.randrange(1, 5))])


def _multilinestring(rng):
    return MultiLineString(
        [_linestring(rng) for _ in range(rng.randrange(1, 4))]
    )


def _multipolygon(rng):
    return MultiPolygon(
        [_polygon(rng) for _ in range(rng.randrange(1, 4))]
    )


def _collection(rng):
    return GeometryCollection(
        [_geometry(rng, depth=1) for _ in range(rng.randrange(1, 4))]
    )


def _structure(geom):
    """A comparable structural key: type + exact coordinates."""
    if isinstance(geom, Point):
        return ("POINT", geom.x, geom.y)
    if isinstance(geom, Polygon):
        return (
            "POLYGON",
            tuple(tuple(ring.coords) for ring in geom.rings),
        )
    if isinstance(geom, LineString):
        return ("LINESTRING", tuple(geom.coords))
    if isinstance(geom, (MultiPoint, MultiLineString, MultiPolygon,
                         GeometryCollection)):
        return (
            geom.geom_type,
            tuple(_structure(g) for g in geom.geoms),
        )
    raise TypeError(type(geom).__name__)


@pytest.mark.parametrize("seed", range(40))
def test_wkt_parse_serialize_parse_fixpoint(seed):
    rng = random.Random(seed)
    for _ in range(10):
        geom = _geometry(rng)
        text1 = dumps_wkt(geom)
        parsed1 = loads_wkt(text1)
        text2 = dumps_wkt(parsed1)
        assert text2 == text1
        parsed2 = loads_wkt(text2)
        assert _structure(parsed2) == _structure(parsed1)
        assert type(parsed1) is type(geom)


@pytest.mark.parametrize(
    "text",
    [
        "MULTIPOINT EMPTY",
        "MULTILINESTRING EMPTY",
        "MULTIPOLYGON EMPTY",
        "GEOMETRYCOLLECTION EMPTY",
    ],
)
def test_empty_forms_are_fixpoints(text):
    assert dumps_wkt(loads_wkt(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "POINT (1e999 0)",
        "POINT (0 -1e999)",
        "POINT (1 2 1e999)",
        "LINESTRING (0 0, 1e400 1)",
        "POLYGON ((-1e999 -1e999, 1e999 -1e999, 1e999 1e999, "
        "-1e999 1e999, -1e999 -1e999))",
        "MULTIPOINT ((1 1), (2 1e309))",
        "GEOMETRYCOLLECTION (POINT (1 1), POINT (-1e999 1))",
    ],
)
def test_non_finite_coordinates_are_rejected(text):
    # float("1e999") is inf: accepting it gave POINT (inf 0), NaN areas
    # and envelopes the parser itself could not read back.
    with pytest.raises(WKTParseError, match="not finite"):
        loads_wkt(text)


def test_extreme_finite_coordinates_roundtrip():
    text = "POINT (1.7976931348623157e+308 -1e-320)"
    p = loads_wkt(text)
    assert (p.x, p.y) == (1.7976931348623157e308, -1e-320)
    assert loads_wkt(dumps_wkt(p)).x == p.x


def test_full_precision_floats_roundtrip_exactly():
    rng = random.Random(4242)
    for _ in range(200):
        p = Point(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
        q = loads_wkt(dumps_wkt(p))
        assert (q.x, q.y) == (p.x, p.y)
