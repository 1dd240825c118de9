"""Axis-aligned bounding boxes.

Envelopes are the workhorse of the R-tree index and of every predicate
fast-path: two geometries whose envelopes are disjoint cannot interact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

Coordinate = Tuple[float, float]


@dataclass(frozen=True)
class Envelope:
    """An immutable axis-aligned rectangle ``[minx, maxx] x [miny, maxy]``."""

    minx: float
    miny: float
    maxx: float
    maxy: float

    def __post_init__(self) -> None:
        if self.minx > self.maxx or self.miny > self.maxy:
            raise ValueError(
                f"degenerate envelope: ({self.minx}, {self.miny}, "
                f"{self.maxx}, {self.maxy})"
            )

    @classmethod
    def of_coords(cls, coords: Iterable[Coordinate]) -> "Envelope":
        """Build the tightest envelope around an iterable of ``(x, y)`` pairs."""
        it = iter(coords)
        try:
            x0, y0 = next(it)
        except StopIteration:
            raise ValueError("cannot build an envelope from zero coordinates")
        minx = maxx = x0
        miny = maxy = y0
        for x, y in it:
            if x < minx:
                minx = x
            if x > maxx:
                maxx = x
            if y < miny:
                miny = y
            if y > maxy:
                maxy = y
        return cls(minx, miny, maxx, maxy)

    @classmethod
    def union_all(cls, envelopes: Iterable["Envelope"]) -> "Envelope":
        """The smallest envelope covering every envelope in ``envelopes``."""
        it = iter(envelopes)
        try:
            first = next(it)
        except StopIteration:
            raise ValueError("cannot union zero envelopes")
        minx, miny = first.minx, first.miny
        maxx, maxy = first.maxx, first.maxy
        for env in it:
            minx = min(minx, env.minx)
            miny = min(miny, env.miny)
            maxx = max(maxx, env.maxx)
            maxy = max(maxy, env.maxy)
        return cls(minx, miny, maxx, maxy)

    @property
    def width(self) -> float:
        return self.maxx - self.minx

    @property
    def height(self) -> float:
        return self.maxy - self.miny

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Coordinate:
        return ((self.minx + self.maxx) / 2.0, (self.miny + self.maxy) / 2.0)

    def intersects(self, other: "Envelope") -> bool:
        """True when the two rectangles share at least one point."""
        return not (
            other.minx > self.maxx
            or other.maxx < self.minx
            or other.miny > self.maxy
            or other.maxy < self.miny
        )

    def contains(self, other: "Envelope") -> bool:
        """True when ``other`` lies entirely inside (or on) this envelope."""
        return (
            self.minx <= other.minx
            and self.miny <= other.miny
            and self.maxx >= other.maxx
            and self.maxy >= other.maxy
        )

    def contains_point(self, x: float, y: float) -> bool:
        return self.minx <= x <= self.maxx and self.miny <= y <= self.maxy

    def intersection(self, other: "Envelope") -> "Envelope | None":
        """The overlapping rectangle, or ``None`` when disjoint."""
        if not self.intersects(other):
            return None
        return Envelope(
            max(self.minx, other.minx),
            max(self.miny, other.miny),
            min(self.maxx, other.maxx),
            min(self.maxy, other.maxy),
        )

    def union(self, other: "Envelope") -> "Envelope":
        return Envelope(
            min(self.minx, other.minx),
            min(self.miny, other.miny),
            max(self.maxx, other.maxx),
            max(self.maxy, other.maxy),
        )

    def expand(self, margin: float) -> "Envelope":
        """A copy grown by ``margin`` on every side (negative shrinks)."""
        return Envelope(
            self.minx - margin,
            self.miny - margin,
            self.maxx + margin,
            self.maxy + margin,
        )

    def corners(self) -> Iterator[Coordinate]:
        yield (self.minx, self.miny)
        yield (self.maxx, self.miny)
        yield (self.maxx, self.maxy)
        yield (self.minx, self.maxy)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        return (self.minx, self.miny, self.maxx, self.maxy)
