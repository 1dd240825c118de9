"""Edge-indexed ("prepared") polygon predicates.

``intersects`` tests a polygon's boundary through its edge table once the
operands have enough edge pairs.  The reference below is the all-pairs
loop the table replaces; the prepared path must agree with it on every
input, including the inputs where the tolerant segment test says yes
for segments whose envelopes do not meet.
"""

import math
import random

import pytest

from repro.geometry import (
    LineString,
    MultiPolygon,
    Polygon,
    algorithms as alg,
    predicates as P,
)
from repro.geometry.multi import flatten


def reference_intersects(a, b):
    """``intersects`` with every boundary tested against every boundary."""
    if a.is_empty or b.is_empty or not a.envelope.intersects(b.envelope):
        return False
    return any(
        _reference_simple(ga, gb) for ga in flatten(a) for gb in flatten(b)
    )


def _edges(g):
    if isinstance(g, Polygon):
        return list(P._poly_segments(g))
    return list(g.segments())


def _reference_simple(a, b):
    if not a.envelope.intersects(b.envelope):
        return False
    if isinstance(a, Polygon) and isinstance(b, LineString):
        a, b = b, a
    if isinstance(a, LineString) and isinstance(b, Polygon):
        if any(b.locate_point(c) >= 0 for c in a.coords):
            return True
    elif not (isinstance(a, Polygon) and isinstance(b, Polygon)):
        return P._intersects_simple(a, b)
    if any(
        alg.segments_intersect(s1, e1, s2, e2)
        for s1, e1 in _edges(a)
        for s2, e2 in _edges(b)
    ):
        return True
    if isinstance(a, LineString):
        return False
    return (
        b.locate_point(next(a.coordinates())) >= 0
        or a.locate_point(next(b.coordinates())) >= 0
    )


def star(rng, cx, cy, radius, n, jitter=0.4):
    pts = []
    for i in range(n):
        angle = 2 * math.pi * i / n
        r = radius * (1 - jitter + 2 * jitter * rng.random())
        pts.append((cx + r * math.cos(angle), cy + r * math.sin(angle)))
    return pts


def polygon(rng, cx, cy, radius, n, hole=False):
    holes = [star(rng, cx, cy, radius * 0.3, max(3, n // 4), 0.1)] if hole else []
    return Polygon(star(rng, cx, cy, radius, n), holes)


def quad(rng, cx, cy, side):
    """A skewed pixel footprint."""
    h = side / 2
    return Polygon([
        (cx - h + rng.uniform(-0.1, 0.1) * side, cy - h),
        (cx + h, cy - h + rng.uniform(-0.1, 0.1) * side),
        (cx + h + rng.uniform(-0.1, 0.1) * side, cy + h),
        (cx - h, cy + h + rng.uniform(-0.1, 0.1) * side),
    ])


def offset_segment(s, e, t0, t1, off):
    """The part [t0, t1] of segment s-e, shifted ``off`` along its normal."""
    dx, dy = e[0] - s[0], e[1] - s[1]
    norm = math.hypot(dx, dy)
    nx, ny = -dy / norm * off, dx / norm * off
    return [
        (s[0] + t * dx + nx, s[1] + t * dy + ny) for t in (t0, t1)
    ]


def probes_near(rng, target):
    """Probe geometries placed on, near and around ``target``'s boundary."""
    edges = list(P._poly_segments(target))
    vertices = [s for s, _ in edges]
    env = target.envelope
    size = max(env.width, env.height)
    out = []
    for _ in range(6):
        s, e = rng.choice(edges)
        t = rng.random()
        mid = (s[0] + t * (e[0] - s[0]), s[1] + t * (e[1] - s[1]))
        out.append(quad(rng, mid[0], mid[1], size * rng.uniform(0.005, 0.05)))
        # Shared vertex: a triangle hanging off one of target's vertices.
        v = rng.choice(vertices)
        out.append(Polygon([v, (v[0] + size * 0.01, v[1] + size * 0.03),
                            (v[0] - size * 0.02, v[1] + size * 0.02)]))
        # Collinear overlap with an edge: on it, 1e-10 off either side
        # of it, and clearly off it.
        for off in (0.0, 1e-10, -1e-10, 1e-6):
            a, b = offset_segment(s, e, 0.2, 0.7, off)
            out.append(LineString([a, b]))
            c, d = offset_segment(s, e, 0.2, 0.7, off + size * 0.01)
            out.append(Polygon([a, b, d, c]))
        # A line leaving a point of an edge: a single-point touch or a
        # crossing, depending on the side it leaves to.
        out.append(LineString([mid, (mid[0] + size * 0.1, mid[1])]))
        # Containment without boundary contact, either way round.
        cx, cy = env.center
        out.append(quad(rng, cx, cy, size * 0.01))
        out.append(quad(rng, cx, cy, size * 4))
        # Anywhere in (and a little beyond) the envelope.
        x = rng.uniform(env.minx - size * 0.1, env.maxx + size * 0.1)
        y = rng.uniform(env.miny - size * 0.1, env.maxy + size * 0.1)
        out.append(quad(rng, x, y, size * 0.03))
        out.append(polygon(rng, x, y, size * 0.2, rng.randint(5, 30)))
        out.append(LineString(star(rng, x, y, size * 0.1, 12)))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_prepared_matches_all_pairs(seed):
    rng = random.Random(seed)
    targets = [
        polygon(rng, 22.0, 38.0, 0.5, rng.choice([8, 20, 80, 300])),
        polygon(rng, 22.0, 38.0, 0.5, 60, hole=True),
        MultiPolygon([
            polygon(rng, 21.5, 38.0, 0.3, 40),
            polygon(rng, 22.5, 38.2, 0.3, 25, hole=True),
        ]),
    ]
    checked = 0
    for target in targets:
        for part in flatten(target):
            for probe in probes_near(rng, part):
                expected = reference_intersects(probe, target)
                assert P.intersects(probe, target) == expected
                assert P.intersects(target, probe) == expected
                checked += expected
    assert checked > 0


def test_far_collinear_segments_that_test_true():
    # segments_intersect reports these nearly collinear segments 8 units
    # apart as touching; the prepared path must reproduce that answer.
    h = 9e-11
    assert alg.segments_intersect((0, 0), (1, 0), (10, h), (9, h))
    # Counter-clockwise with (10, h) -> (9, h) as its first edge.
    shell = [(10, h), (9, h)] + [
        (9.5 + math.cos(a) * 0.5, h + math.sin(a) * 0.5)
        for a in (math.pi + i * math.pi / 30 for i in range(1, 30))
    ]
    target = Polygon(shell)
    assert list(P._poly_segments(target))[0] == ((10, h), (9, h))
    # Probes starting with (0, 0) -> (1, 0) whose envelopes reach the
    # target's while the rest of them stays clear of it.
    line = LineString([(0, 0), (1, 0), (1, 5), (9.7, 5)])
    hook = Polygon([(0, 0), (1, 0), (1, 5), (9.7, 5), (9.7, 6), (0, 6)])
    assert target.edge_count >= P.PREPARED_MIN_PAIRS
    for probe in (line, hook):
        assert reference_intersects(probe, target)
        assert P.intersects(probe, target)
        assert P.intersects(target, probe)


def _triangle_on(e1, e2):
    """A counter-clockwise triangle with ``e1 -> e2`` as its first edge."""
    dx, dy = e2[0] - e1[0], e2[1] - e1[1]
    apex = ((e1[0] + e2[0]) / 2 - dy, (e1[1] + e2[1]) / 2 + dx)
    return Polygon([e1, e2, apex])


def _tolerant_pair(rng):
    """A probe segment and a polygon edge placed where orientation()'s
    tolerance decides: nearly collinear, or a short segment crossing the
    other's line just beyond its end."""
    tiny = [0.0, 1e-12, -1e-12, 5e-12, -5e-12, 2e-11, -3e-11, 9e-11, 1e-9]
    length = rng.choice([0.04, 0.5, 1.0, 2.0])
    short = rng.choice([1e-5, 1e-4, 1e-3])
    beyond = length + rng.choice([1e-10, 1e-9, 5e-9, 2e-8])
    kind = rng.choice(["collinear", "edge-past-probe", "probe-past-edge"])
    if kind == "collinear":
        probe = ((0.0, 0.0), (length, 0.0))
        x, side = rng.uniform(-3, 3), rng.choice([0.04, 0.5, 1.0, 3.0])
        angle, off = rng.choice(tiny), rng.choice(tiny)
        edge = ((x, off), (
            x + rng.choice([1, -1]) * side * math.cos(angle),
            off + side * math.sin(angle),
        ))
    elif kind == "edge-past-probe":
        probe = ((0.0, 0.0), (length, 0.0))
        edge = ((beyond, -short / 2), (beyond, short / 2))
    else:
        edge = ((0.0, 0.0), (length, 0.0))
        probe = ((beyond, -short / 2), (beyond, short / 2))
    if rng.random() < 0.5:
        probe = probe[::-1]
    if rng.random() < 0.5:
        edge = edge[::-1]
    return probe, edge


@pytest.mark.parametrize("seed", range(4))
def test_boundary_filter_keeps_every_tolerant_pair(seed):
    rng = random.Random(seed)
    apart = 0
    for _ in range(3000):
        probe, edge = _tolerant_pair(rng)
        poly = _triangle_on(*edge)
        expected = any(
            alg.segments_intersect(*probe, s, e)
            for s, e in P._poly_segments(poly)
        )
        probe_env = LineString(probe).envelope
        got = P._prepared_boundaries_meet(poly, [probe], probe_env)
        assert got == expected, (probe, edge)
        apart += expected and not probe_env.intersects(
            LineString(edge).envelope
        )
    assert apart > 0  # true pairs the envelope filter alone would lose


@pytest.mark.parametrize(
    "where", ["centre", "inside", "outside", "crossing", "vertex"]
)
def test_pixel_against_large_polygon_tests_few_edge_pairs(
    monkeypatch, where
):
    rng = random.Random(5)
    big = Polygon(star(rng, 22.0, 38.0, 1.0, 2000, jitter=0.05))
    assert big.edge_count >= 1000
    vertex = big.shell.coords[17]
    centre = {
        "centre": (22.0, 38.0),
        "inside": (22.0 + 0.64, 38.0 + 0.64),
        "outside": (22.0 + 0.85, 38.0 + 0.85),
        "crossing": vertex,
        "vertex": (vertex[0] + 0.021, vertex[1]),
    }[where]
    pixel = Polygon.square(centre[0], centre[1], 0.04)
    assert pixel.envelope.intersects(big.envelope)
    expected = reference_intersects(pixel, big)
    calls = [0]
    original = alg.segments_intersect

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(alg, "segments_intersect", counting)
    assert P.intersects(pixel, big) == expected
    # Four pixel edges against the handful of edges near the pixel,
    # not against all 2000.
    assert calls[0] <= 32


def test_small_pairs_keep_the_all_pairs_loop(monkeypatch):
    monkeypatch.setattr(
        Polygon, "edge_table", property(lambda self: pytest.fail("built"))
    )
    viewport = Polygon.from_envelope(Polygon.square(0, 0, 10).envelope)
    pixel = Polygon.square(1, 1, 0.5)
    assert P.intersects(pixel, viewport)
    assert not P.intersects(pixel, Polygon.square(20, 20, 1))


def test_edge_table_lives_on_the_polygon_and_is_not_pickled():
    import pickle

    poly = polygon(random.Random(1), 0, 0, 1, 50)
    table = poly.edge_table
    assert poly.edge_table is table
    assert len(table) == poly.edge_count == 50
    assert table.segment(49) == list(P._poly_segments(poly))[49]
    clone = pickle.loads(pickle.dumps(poly))
    assert clone == poly
    assert not hasattr(clone, "_edges")
