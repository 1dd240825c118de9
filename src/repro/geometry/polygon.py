"""Polygon geometry (exterior shell plus optional interior holes)."""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import algorithms as alg
from repro.geometry.base import Geometry
from repro.geometry.envelope import Envelope
from repro.geometry.errors import GeometryError
from repro.geometry.linestring import LinearRing
from repro.geometry.point import Point

Coordinate = Tuple[float, float]


class Polygon(Geometry):
    """A simple-features polygon.

    Shells are normalised counter-clockwise and holes clockwise at
    construction, matching the orientation convention the clipping code
    expects.
    """

    __slots__ = ("_shell", "_holes", "_envelope", "_edges")

    geom_type = "POLYGON"

    def __init__(
        self,
        shell: Iterable[Coordinate] | LinearRing,
        holes: Optional[Sequence[Iterable[Coordinate] | LinearRing]] = None,
    ) -> None:
        shell_ring = shell if isinstance(shell, LinearRing) else LinearRing(shell)
        hole_rings = tuple(
            (h if isinstance(h, LinearRing) else LinearRing(h)).oriented(False)
            for h in (holes or ())
        )
        object.__setattr__(self, "_shell", shell_ring.oriented(True))
        object.__setattr__(self, "_holes", hole_rings)
        object.__setattr__(self, "_envelope", shell_ring.envelope)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polygon is immutable")

    @classmethod
    def from_envelope(cls, env: Envelope) -> "Polygon":
        """Axis-aligned rectangle polygon covering ``env``."""
        return cls(list(env.corners()))

    @classmethod
    def square(cls, cx: float, cy: float, side: float) -> "Polygon":
        """Axis-aligned square centred at ``(cx, cy)`` — a sensor pixel."""
        h = side / 2.0
        return cls(
            [(cx - h, cy - h), (cx + h, cy - h), (cx + h, cy + h), (cx - h, cy + h)]
        )

    @property
    def shell(self) -> LinearRing:
        return self._shell

    @property
    def holes(self) -> Tuple[LinearRing, ...]:
        return self._holes

    @property
    def rings(self) -> Tuple[LinearRing, ...]:
        return (self._shell, *self._holes)

    @property
    def envelope(self) -> Envelope:
        return self._envelope

    @property
    def edge_count(self) -> int:
        """Number of boundary segments, holes included."""
        return sum(len(ring.coords) - 1 for ring in self.rings)

    @property
    def edge_table(self) -> "EdgeTable":
        """The boundary segments as arrays, built on first use and kept
        for the polygon's lifetime (see :mod:`repro.geometry.predicates`)."""
        try:
            return self._edges
        except AttributeError:
            table = EdgeTable(self.rings)
            object.__setattr__(self, "_edges", table)
            return table

    @property
    def is_empty(self) -> bool:
        return False

    @property
    def dimension(self) -> int:
        return 2

    @property
    def area(self) -> float:
        return self._shell.area - sum(h.area for h in self._holes)

    @property
    def length(self) -> float:
        """Total perimeter, holes included."""
        return sum(r.length for r in self.rings)

    @property
    def is_convex(self) -> bool:
        return not self._holes and alg.is_convex_ring(self._shell.open_coords)

    def coordinates(self) -> Iterator[Coordinate]:
        for ring in self.rings:
            yield from ring.coords

    @property
    def centroid(self) -> Point:
        """Area-weighted centroid accounting for holes."""
        ax = ay = total = 0.0
        for ring, sign in [(self._shell, 1.0)] + [
            (h, -1.0) for h in self._holes
        ]:
            a = ring.area
            cx, cy = alg.ring_centroid(ring.open_coords)
            ax += sign * a * cx
            ay += sign * a * cy
            total += sign * a
        if total == 0.0:
            return Point(*alg.ring_centroid(self._shell.open_coords))
        return Point(ax / total, ay / total)

    def locate_point(self, p: Coordinate) -> int:
        """+1 interior, 0 boundary, -1 exterior (holes handled)."""
        where = self._shell.contains_point(p)
        if where <= 0:
            return where
        for hole in self._holes:
            inside_hole = hole.contains_point(p)
            if inside_hole == 0:
                return 0
            if inside_hole > 0:
                return -1
        return 1

    def contains_point(self, p: Coordinate) -> bool:
        """True for interior or boundary points."""
        return self.locate_point(p) >= 0

    def representative_point(self) -> Point:
        """A point guaranteed to lie in the polygon's interior.

        Tries the centroid first, then scans midpoints of horizontal lines
        through the envelope.
        """
        c = self.centroid
        if self.locate_point((c.x, c.y)) > 0:
            return c
        env = self._envelope
        steps = 17
        for i in range(1, steps):
            y = env.miny + env.height * i / steps
            xs = sorted(
                x
                for ring in self.rings
                for x in _ring_scanline_crossings(ring, y)
            )
            for j in range(0, len(xs) - 1, 2):
                mx = (xs[j] + xs[j + 1]) / 2.0
                if self.locate_point((mx, y)) > 0:
                    return Point(mx, y)
        raise GeometryError("could not find an interior point")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polygon)
            and self._shell == other._shell
            and self._holes == other._holes
        )

    def __hash__(self) -> int:
        return hash((self.geom_type, self._shell, self._holes))

    def __getstate__(self) -> dict:
        state = super().__getstate__()
        state.pop("_edges", None)  # derived; rebuilt on first use
        return state


class EdgeTable:
    """A polygon's boundary segments as float64 arrays, one row each.

    Rows follow ring order (shell, then holes) and, within a ring, the
    stored coordinate order.  Row ``j`` starts at ``(x1, y1)`` with
    direction ``(dx, dy)`` and has envelope ``minx, miny, maxx, maxy``;
    ``vx, vy`` list every row's start and then every row's end.
    :meth:`segment` returns row ``j`` as the ring's own coordinate
    tuples.
    """

    __slots__ = (
        "x1", "y1", "dx", "dy", "vx", "vy",
        "minx", "miny", "maxx", "maxy", "_rings", "_starts",
    )

    def __init__(self, rings: Sequence[LinearRing]) -> None:
        self._rings = tuple(rings)
        starts = []
        total = 0
        for ring in self._rings:
            starts.append(total)
            total += len(ring.coords) - 1
        self._starts = starts
        pts = [np.asarray(ring.coords, dtype=np.float64) for ring in rings]
        head = np.concatenate([p[:-1] for p in pts])
        tail = np.concatenate([p[1:] for p in pts])
        x1, y1, x2, y2 = head[:, 0], head[:, 1], tail[:, 0], tail[:, 1]
        self.x1, self.y1 = x1.copy(), y1.copy()
        self.dx, self.dy = x2 - x1, y2 - y1
        self.vx = np.concatenate([x1, x2])
        self.vy = np.concatenate([y1, y2])
        self.minx, self.maxx = np.minimum(x1, x2), np.maximum(x1, x2)
        self.miny, self.maxy = np.minimum(y1, y2), np.maximum(y1, y2)

    def __len__(self) -> int:
        return len(self.x1)

    def segment(self, j: int) -> Tuple[Coordinate, Coordinate]:
        r = bisect_right(self._starts, j) - 1
        coords = self._rings[r].coords
        i = j - self._starts[r]
        return coords[i], coords[i + 1]


def _ring_scanline_crossings(ring: LinearRing, y: float) -> Iterator[float]:
    """X coordinates where the ring crosses the horizontal line at ``y``."""
    pts = ring.open_coords
    n = len(pts)
    for i in range(n):
        a = pts[i]
        b = pts[(i + 1) % n]
        if (a[1] > y) != (b[1] > y):
            t = (y - a[1]) / (b[1] - a[1])
            yield a[0] + t * (b[0] - a[0])
