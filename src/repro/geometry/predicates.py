"""Spatial predicates over geometry pairs.

These implement the semantics stSPARQL exposes through ``strdf:anyInteract``
(= intersects), ``strdf:contains``, ``strdf:inside`` (within),
``strdf:disjoint``, ``strdf:touch``, ``strdf:overlap``, ``strdf:crosses``
and ``strdf:equals``.  Dispatch is by topological dimension; every predicate
first runs an envelope fast-path.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro.geometry import algorithms as alg
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.linestring import LineString
from repro.geometry.multi import _Multi, flatten
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon

Coordinate = Tuple[float, float]


def _segments(line: LineString) -> Iterator[Tuple[Coordinate, Coordinate]]:
    yield from line.segments()


def _poly_segments(poly: Polygon) -> Iterator[Tuple[Coordinate, Coordinate]]:
    for ring in poly.rings:
        coords = ring.coords
        for i in range(len(coords) - 1):
            yield (coords[i], coords[i + 1])


def _pairs(a: Geometry, b: Geometry) -> Iterator[Tuple[Geometry, Geometry]]:
    for ga in flatten(a):
        for gb in flatten(b):
            yield ga, gb


# -- prepared polygons --------------------------------------------------------
#
# ``segments_intersect`` is tolerant: two segments whose envelopes do not
# meet can still test true, but only if one of its four ``orientation``
# calls returns 0, i.e. an endpoint of one segment lies within tolerance
# of the other's supporting line.  No distance bounds that case (nearly
# collinear edges far apart can test true), so besides the envelope
# filter, which keeps every proper crossing, every polygon vertex is
# tested against every probe line and every probe endpoint against every
# edge line, with a tolerance no ``orientation`` call on these operands
# can exceed.  A pair outside all three filters tests false, so the
# prepared path returns what the all-pairs loop returns.

#: Edge pairs from which the boundary test uses the polygon's edge table;
#: below it the all-pairs loop is cheaper than the array set-up.
PREPARED_MIN_PAIRS = 20

#: Cells per candidate mask (probe segments x polygon edges), bounding
#: the temporary arrays when both operands are large.
_MASK_CELLS = 1 << 16


def _prepared_boundaries_meet(
    poly: Polygon,
    probe: List[Tuple[Coordinate, Coordinate]],
    probe_env: Envelope,
) -> bool:
    """``any(segments_intersect(p, e))`` over ``probe`` x the boundary of
    ``poly``, testing only the pairs the edge table cannot rule out."""
    table = poly.edge_table
    env = poly.envelope.union(probe_env)
    # Every orientation() scale here is an L1 distance inside ``env``;
    # the factor of four absorbs rounding in the scales.
    scale = max(1.0, env.width + env.height)
    tol = 4.0 * alg.EPS * scale * scale
    near_box = (
        (table.minx <= probe_env.maxx)
        & (table.maxx >= probe_env.minx)
        & (table.miny <= probe_env.maxy)
        & (table.maxy >= probe_env.miny)
    )
    n = len(table)
    step = max(1, _MASK_CELLS // n)
    for start in range(0, len(probe), step):
        chunk = probe[start:start + step]
        seg = np.array(chunk, dtype=np.float64).reshape(-1, 4)
        sx, sy, ex, ey = (seg[:, c:c + 1] for c in range(4))
        vertex_on_probe = _near_line(
            sx, sy, ex - sx, ey - sy, table.vx, table.vy, tol
        )
        probe_on_edge = _near_line(
            table.x1, table.y1, table.dx, table.dy,
            np.concatenate([sx, ex]), np.concatenate([sy, ey]), tol,
        )
        k = len(chunk)
        keep = (
            near_box
            | vertex_on_probe[:, :n]
            | vertex_on_probe[:, n:]
            | probe_on_edge[:k]
            | probe_on_edge[k:]
        )
        rows, cols = np.nonzero(keep)
        for i, j in zip(rows.tolist(), cols.tolist()):
            s1, e1 = chunk[i]
            s2, e2 = table.segment(j)
            if alg.segments_intersect(s1, e1, s2, e2):
                return True
    return False


def _near_line(ox, oy, dx, dy, px, py, tol: float) -> "np.ndarray":
    """``|cross|`` of ``orientation(o, o + d, p)`` within ``tol``,
    broadcast over the arrays."""
    return np.abs(dx * (py - oy) - dy * (px - ox)) <= tol


# -- intersects ---------------------------------------------------------------


def intersects(a: Geometry, b: Geometry) -> bool:
    """True when the geometries share at least one point (anyInteract)."""
    if a.is_empty or b.is_empty:
        return False
    if not a.envelope.intersects(b.envelope):
        return False
    return any(_intersects_simple(ga, gb) for ga, gb in _pairs(a, b))


def _intersects_simple(a: Geometry, b: Geometry) -> bool:
    if not a.envelope.intersects(b.envelope):
        return False
    if isinstance(a, Point):
        return _point_intersects(a, b)
    if isinstance(b, Point):
        return _point_intersects(b, a)
    if isinstance(a, LineString) and isinstance(b, LineString):
        return _line_line_intersects(a, b)
    if isinstance(a, LineString) and isinstance(b, Polygon):
        return _line_polygon_intersects(a, b)
    if isinstance(a, Polygon) and isinstance(b, LineString):
        return _line_polygon_intersects(b, a)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        return _polygon_polygon_intersects(a, b)
    raise TypeError(
        f"unsupported geometry pair {type(a).__name__}/{type(b).__name__}"
    )


def _point_intersects(p: Point, other: Geometry) -> bool:
    if isinstance(other, Point):
        return alg.coords_equal(p.coords, other.coords)
    if isinstance(other, LineString):
        return any(alg.on_segment(p.coords, s, e) for s, e in _segments(other))
    if isinstance(other, Polygon):
        return other.locate_point(p.coords) >= 0
    raise TypeError(type(other).__name__)


def _line_line_intersects(a: LineString, b: LineString) -> bool:
    return any(
        alg.segments_intersect(s1, e1, s2, e2)
        for s1, e1 in _segments(a)
        for s2, e2 in _segments(b)
    )


def _line_polygon_intersects(line: LineString, poly: Polygon) -> bool:
    if any(poly.locate_point(c) >= 0 for c in line.coords):
        return True
    segments = list(_segments(line))
    n = poly.edge_count
    if n >= len(segments) and n * len(segments) >= PREPARED_MIN_PAIRS:
        return _prepared_boundaries_meet(poly, segments, line.envelope)
    return any(
        alg.segments_intersect(s1, e1, s2, e2)
        for s1, e1 in segments
        for s2, e2 in _poly_segments(poly)
    )


def _polygon_polygon_intersects(a: Polygon, b: Polygon) -> bool:
    # Any boundary crossing?
    na, nb = a.edge_count, b.edge_count
    if na * nb >= PREPARED_MIN_PAIRS:
        big, small = (a, b) if na >= nb else (b, a)
        if _prepared_boundaries_meet(
            big, list(_poly_segments(small)), small.envelope
        ):
            return True
    elif any(
        alg.segments_intersect(s1, e1, s2, e2)
        for s1, e1 in _poly_segments(a)
        for s2, e2 in _poly_segments(b)
    ):
        return True
    # Containment without boundary contact.
    if b.locate_point(next(a.coordinates())) >= 0:
        return True
    if a.locate_point(next(b.coordinates())) >= 0:
        return True
    return False


def disjoint(a: Geometry, b: Geometry) -> bool:
    return not intersects(a, b)


# -- containment --------------------------------------------------------------


def contains(a: Geometry, b: Geometry) -> bool:
    """True when every point of ``b`` lies in ``a`` (boundary included).

    This matches ``strdf:contains`` as the paper's queries use it (e.g. a
    bounding rectangle containing hotspot pixel polygons); the OGC "no
    boundary-only contact" subtlety is intentionally relaxed to the more
    useful covers() semantics.
    """
    if a.is_empty or b.is_empty:
        return False
    if not a.envelope.contains(b.envelope):
        return False
    return all(
        any(_covers_simple(ga, gb) for ga in flatten(a)) for gb in flatten(b)
    )


def within(a: Geometry, b: Geometry) -> bool:
    return contains(b, a)


def _covers_simple(a: Geometry, b: Geometry) -> bool:
    """``a`` covers ``b`` for primitive geometries."""
    if isinstance(b, Point):
        return _point_intersects(b, a)
    if isinstance(a, Point):
        return False
    if isinstance(a, LineString):
        if isinstance(b, Polygon):
            return False
        assert isinstance(b, LineString)
        return _line_covers_line(a, b)
    assert isinstance(a, Polygon)
    if isinstance(b, LineString):
        return _polygon_covers_line(a, b)
    assert isinstance(b, Polygon)
    return _polygon_covers_polygon(a, b)


def _line_covers_line(a: LineString, b: LineString) -> bool:
    def on_a(p: Coordinate) -> bool:
        return any(alg.on_segment(p, s, e) for s, e in _segments(a))

    if not all(on_a(c) for c in b.coords):
        return False
    # Also check segment midpoints to catch b jumping off a between vertices.
    for s, e in _segments(b):
        mid = ((s[0] + e[0]) / 2.0, (s[1] + e[1]) / 2.0)
        if not on_a(mid):
            return False
    return True


def _polygon_covers_line(poly: Polygon, line: LineString) -> bool:
    if not all(poly.locate_point(c) >= 0 for c in line.coords):
        return False
    # Segments may exit and re-enter; test midpoints of sub-segments split
    # at boundary crossings.
    for s, e in _segments(line):
        for t in _crossing_parameters(s, e, poly):
            mid = ((s[0] + e[0]) / 2.0, (s[1] + e[1]) / 2.0)
            del mid  # midpoint checks below are per sub-interval
        params = sorted({0.0, 1.0, *_crossing_parameters(s, e, poly)})
        for t0, t1 in zip(params, params[1:]):
            tm = (t0 + t1) / 2.0
            p = (s[0] + tm * (e[0] - s[0]), s[1] + tm * (e[1] - s[1]))
            if poly.locate_point(p) < 0:
                return False
    return True


def _crossing_parameters(
    s: Coordinate, e: Coordinate, poly: Polygon
) -> List[float]:
    params: List[float] = []
    for ps, pe in _poly_segments(poly):
        got = alg.segment_line_parameters(s, e, ps, pe)
        if got is None:
            continue
        t, u = got
        if -alg.EPS <= t <= 1 + alg.EPS and -alg.EPS <= u <= 1 + alg.EPS:
            params.append(min(1.0, max(0.0, t)))
    return params


def _polygon_covers_polygon(a: Polygon, b: Polygon) -> bool:
    if not all(a.locate_point(c) >= 0 for c in b.shell.coords):
        return False
    # Boundaries may interleave: any proper crossing disproves containment.
    for s1, e1 in _poly_segments(b):
        for s2, e2 in _poly_segments(a):
            if alg.segments_properly_cross(s1, e1, s2, e2):
                return False
    # A hole of `a` inside `b` disproves containment.
    for hole in a.holes:
        probe = alg.ring_centroid(hole.open_coords)
        if b.locate_point(probe) > 0 and alg.point_in_ring(
            probe, hole.open_coords
        ) > 0:
            return False
    return True


# -- refined relations --------------------------------------------------------


def touches(a: Geometry, b: Geometry) -> bool:
    """True when the geometries intersect but their interiors do not."""
    if not intersects(a, b):
        return False
    return not _interiors_intersect(a, b)


def overlaps(a: Geometry, b: Geometry) -> bool:
    """Same-dimension geometries whose interiors intersect, neither
    containing the other."""
    if a.dimension != b.dimension:
        return False
    if not intersects(a, b):
        return False
    if contains(a, b) or contains(b, a):
        return False
    return _interiors_intersect(a, b)


def crosses(a: Geometry, b: Geometry) -> bool:
    """Interiors intersect and the intersection has lower dimension than
    the higher-dimensional operand (typical case: a road crossing an area)."""
    if not intersects(a, b):
        return False
    if a.dimension == b.dimension and a.dimension != 1:
        return False
    if contains(a, b) or contains(b, a):
        return False
    return _interiors_intersect(a, b)


def equals(a: Geometry, b: Geometry) -> bool:
    """Topological equality via mutual coverage."""
    if a.is_empty and b.is_empty:
        return True
    if a.is_empty or b.is_empty:
        return False
    return contains(a, b) and contains(b, a)


def _interiors_intersect(a: Geometry, b: Geometry) -> bool:
    for ga, gb in _pairs(a, b):
        if _interiors_intersect_simple(ga, gb):
            return True
    return False


def _interiors_intersect_simple(a: Geometry, b: Geometry) -> bool:
    if isinstance(a, Point) and isinstance(b, Point):
        return alg.coords_equal(a.coords, b.coords)
    if isinstance(a, Point):
        return _point_in_interior(a, b)
    if isinstance(b, Point):
        return _point_in_interior(b, a)
    if isinstance(a, Polygon) and isinstance(b, Polygon):
        # Any proper boundary crossing implies interior overlap for simple
        # polygons; otherwise test representative containment.
        for s1, e1 in _poly_segments(a):
            for s2, e2 in _poly_segments(b):
                if alg.segments_properly_cross(s1, e1, s2, e2):
                    return True
        if b.locate_point(_interior_probe(a)) > 0:
            return True
        if a.locate_point(_interior_probe(b)) > 0:
            return True
        # Fall back to a clipped-area test for shells sharing boundaries.
        from repro.geometry import ops

        inter = ops.intersection(a, b)
        return inter.area > 1e-12 * min(a.area, b.area)
    if isinstance(a, Polygon) or isinstance(b, Polygon):
        poly, line = (a, b) if isinstance(a, Polygon) else (b, a)
        assert isinstance(line, LineString)
        for s, e in _segments(line):
            params = sorted({0.0, 1.0, *_crossing_parameters(s, e, poly)})
            for t0, t1 in zip(params, params[1:]):
                tm = (t0 + t1) / 2.0
                p = (s[0] + tm * (e[0] - s[0]), s[1] + tm * (e[1] - s[1]))
                if poly.locate_point(p) > 0:
                    return True
        return False
    assert isinstance(a, LineString) and isinstance(b, LineString)
    for s1, e1 in _segments(a):
        for s2, e2 in _segments(b):
            if alg.segments_properly_cross(s1, e1, s2, e2):
                return True
            # Collinear overlap also counts as interior intersection.
            if (
                alg.orientation(s1, e1, s2) == 0
                and alg.orientation(s1, e1, e2) == 0
            ):
                if alg.on_segment(s2, s1, e1) or alg.on_segment(e2, s1, e1) \
                        or alg.on_segment(s1, s2, e2):
                    lo = max(min(s1[0], e1[0]), min(s2[0], e2[0]))
                    hi = min(max(s1[0], e1[0]), max(s2[0], e2[0]))
                    lo_y = max(min(s1[1], e1[1]), min(s2[1], e2[1]))
                    hi_y = min(max(s1[1], e1[1]), max(s2[1], e2[1]))
                    if hi - lo > alg.EPS or hi_y - lo_y > alg.EPS:
                        return True
    return False


def _point_in_interior(p: Point, other: Geometry) -> bool:
    if isinstance(other, Polygon):
        return other.locate_point(p.coords) > 0
    if isinstance(other, LineString):
        if not any(alg.on_segment(p.coords, s, e) for s, e in _segments(other)):
            return False
        if other.is_closed:
            return True
        return not (
            alg.coords_equal(p.coords, other.coords[0])
            or alg.coords_equal(p.coords, other.coords[-1])
        )
    return False


def _interior_probe(poly: Polygon) -> Coordinate:
    try:
        p = poly.representative_point()
        return (p.x, p.y)
    except Exception:
        c = poly.centroid
        return (c.x, c.y)


# -- distance -----------------------------------------------------------------


def distance(a: Geometry, b: Geometry) -> float:
    """Minimum euclidean distance between the geometries (0 if they touch)."""
    if a.is_empty or b.is_empty:
        raise ValueError("distance to an empty geometry is undefined")
    if intersects(a, b):
        return 0.0
    best = math.inf
    for ga, gb in _pairs(a, b):
        d = _distance_simple(ga, gb)
        if d < best:
            best = d
    return best


def _distance_simple(a: Geometry, b: Geometry) -> float:
    a_segs = list(_boundary_segments(a))
    b_segs = list(_boundary_segments(b))
    if not a_segs and not b_segs:
        pa = next(a.coordinates())
        pb = next(b.coordinates())
        return math.dist(pa, pb)
    if not a_segs:
        p = next(a.coordinates())
        return min(alg.point_segment_distance(p, s, e) for s, e in b_segs)
    if not b_segs:
        p = next(b.coordinates())
        return min(alg.point_segment_distance(p, s, e) for s, e in a_segs)
    return min(
        alg.segment_segment_distance(s1, e1, s2, e2)
        for s1, e1 in a_segs
        for s2, e2 in b_segs
    )


def _boundary_segments(
    g: Geometry,
) -> Iterator[Tuple[Coordinate, Coordinate]]:
    if isinstance(g, Polygon):
        yield from _poly_segments(g)
    elif isinstance(g, LineString):
        yield from _segments(g)
