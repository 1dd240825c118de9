"""Low-level planar geometry primitives.

Everything here operates on plain ``(x, y)`` float tuples (and sequences of
them) so that the predicate and clipping layers above can stay purely
combinatorial. Tolerances follow the usual practice for double precision
cartographic coordinates: a relative epsilon around 1e-12.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

Coordinate = Tuple[float, float]

EPS = 1e-12


def almost_equal(a: float, b: float, eps: float = 1e-9) -> bool:
    """Approximate float equality with absolute + relative tolerance."""
    return abs(a - b) <= eps * max(1.0, abs(a), abs(b))


def coords_equal(p: Coordinate, q: Coordinate, eps: float = 1e-9) -> bool:
    return almost_equal(p[0], q[0], eps) and almost_equal(p[1], q[1], eps)


def cross(o: Coordinate, a: Coordinate, b: Coordinate) -> float:
    """The z-component of ``(a - o) x (b - o)``.

    Positive when o->a->b turns counter-clockwise.
    """
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def orientation(o: Coordinate, a: Coordinate, b: Coordinate) -> int:
    """-1 clockwise, 0 collinear, +1 counter-clockwise (with tolerance)."""
    c = cross(o, a, b)
    scale = max(
        1.0,
        abs(a[0] - o[0]) + abs(a[1] - o[1]),
        abs(b[0] - o[0]) + abs(b[1] - o[1]),
    )
    if abs(c) <= EPS * scale * scale:
        return 0
    return 1 if c > 0 else -1


def on_segment(p: Coordinate, a: Coordinate, b: Coordinate) -> bool:
    """True when point ``p`` lies on the closed segment ``a-b``."""
    if orientation(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) - EPS <= p[0] <= max(a[0], b[0]) + EPS
        and min(a[1], b[1]) - EPS <= p[1] <= max(a[1], b[1]) + EPS
    )


def segments_intersect(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> bool:
    """True when closed segments ``a1-a2`` and ``b1-b2`` share a point."""
    d1 = orientation(b1, b2, a1)
    d2 = orientation(b1, b2, a2)
    d3 = orientation(a1, a2, b1)
    d4 = orientation(a1, a2, b2)
    if d1 != d2 and d3 != d4:
        return True
    if d1 == 0 and on_segment(a1, b1, b2):
        return True
    if d2 == 0 and on_segment(a2, b1, b2):
        return True
    if d3 == 0 and on_segment(b1, a1, a2):
        return True
    if d4 == 0 and on_segment(b2, a1, a2):
        return True
    return False


def segments_properly_cross(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> bool:
    """True when the two segments cross at a single interior point of both."""
    d1 = orientation(b1, b2, a1)
    d2 = orientation(b1, b2, a2)
    d3 = orientation(a1, a2, b1)
    d4 = orientation(a1, a2, b2)
    return d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0 and d1 != d2 and d3 != d4


def segment_line_parameters(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> Optional[Tuple[float, float]]:
    """Parameters ``(t, u)`` of the crossing on each segment, or None."""
    r = (a2[0] - a1[0], a2[1] - a1[1])
    s = (b2[0] - b1[0], b2[1] - b1[1])
    denom = r[0] * s[1] - r[1] * s[0]
    if abs(denom) < EPS:
        return None
    qp = (b1[0] - a1[0], b1[1] - a1[1])
    t = (qp[0] * s[1] - qp[1] * s[0]) / denom
    u = (qp[0] * r[1] - qp[1] * r[0]) / denom
    return (t, u)


def ring_signed_area(ring: Sequence[Coordinate]) -> float:
    """Shoelace signed area; positive for counter-clockwise rings.

    The ring may be given open or closed (first == last); both work.
    """
    n = len(ring)
    if n < 3:
        return 0.0
    total = 0.0
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return total / 2.0


def is_ccw(ring: Sequence[Coordinate]) -> bool:
    return ring_signed_area(ring) > 0.0


def ensure_open(ring: Sequence[Coordinate]) -> List[Coordinate]:
    """Drop a duplicated closing coordinate if present."""
    ring = list(ring)
    if len(ring) >= 2 and coords_equal(ring[0], ring[-1]):
        ring = ring[:-1]
    return ring


def point_in_ring(p: Coordinate, ring: Sequence[Coordinate]) -> int:
    """Locate ``p`` relative to the (open or closed) ring.

    Returns +1 inside, 0 on the boundary, -1 outside. Uses the winding
    crossing-number algorithm with explicit boundary detection.
    """
    pts = ensure_open(ring)
    n = len(pts)
    if n < 3:
        return -1
    x, y = p
    inside = False
    for i in range(n):
        a = pts[i]
        b = pts[(i + 1) % n]
        if on_segment(p, a, b):
            return 0
        ay, by = a[1], b[1]
        if (ay > y) != (by > y):
            # Edge straddles the horizontal ray; compute crossing x.
            t = (y - ay) / (by - ay)
            xi = a[0] + t * (b[0] - a[0])
            if xi > x:
                inside = not inside
    return 1 if inside else -1


def polyline_length(coords: Sequence[Coordinate]) -> float:
    total = 0.0
    for i in range(len(coords) - 1):
        total += math.dist(coords[i], coords[i + 1])
    return total


def point_segment_distance(
    p: Coordinate, a: Coordinate, b: Coordinate
) -> float:
    """Euclidean distance from point ``p`` to the closed segment ``a-b``."""
    ax, ay = a
    bx, by = b
    px, py = p
    dx, dy = bx - ax, by - ay
    seg_len_sq = dx * dx + dy * dy
    if seg_len_sq < EPS:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg_len_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def segment_segment_distance(
    a1: Coordinate, a2: Coordinate, b1: Coordinate, b2: Coordinate
) -> float:
    if segments_intersect(a1, a2, b1, b2):
        return 0.0
    return min(
        point_segment_distance(a1, b1, b2),
        point_segment_distance(a2, b1, b2),
        point_segment_distance(b1, a1, a2),
        point_segment_distance(b2, a1, a2),
    )


def convex_hull(points: Sequence[Coordinate]) -> List[Coordinate]:
    """Andrew's monotone-chain convex hull, returned counter-clockwise."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return list(pts)
    lower: List[Coordinate] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Coordinate] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def is_convex_ring(ring: Sequence[Coordinate]) -> bool:
    """True for a (possibly closed) ring whose interior angles never reflex."""
    pts = ensure_open(ring)
    n = len(pts)
    if n < 3:
        return False
    sign = 0
    for i in range(n):
        o = orientation(pts[i], pts[(i + 1) % n], pts[(i + 2) % n])
        if o == 0:
            continue
        if sign == 0:
            sign = o
        elif o != sign:
            return False
    return True


def ring_centroid(ring: Sequence[Coordinate]) -> Coordinate:
    """Area-weighted centroid of a simple ring."""
    pts = ensure_open(ring)
    a = ring_signed_area(pts)
    if abs(a) < EPS:
        # Degenerate ring: fall back to the vertex mean.
        n = len(pts)
        return (sum(p[0] for p in pts) / n, sum(p[1] for p in pts) / n)
    cx = cy = 0.0
    n = len(pts)
    for i in range(n):
        x1, y1 = pts[i]
        x2, y2 = pts[(i + 1) % n]
        f = x1 * y2 - x2 * y1
        cx += (x1 + x2) * f
        cy += (y1 + y2) * f
    return (cx / (6.0 * a), cy / (6.0 * a))
