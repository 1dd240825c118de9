"""Abstract geometry base class.

The public surface mirrors the subset of the Simple Features model that the
paper's stSPARQL workloads use. Concrete classes live in :mod:`point`,
:mod:`linestring`, :mod:`polygon` and :mod:`multi`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator, Tuple

from repro.geometry.envelope import Envelope

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.geometry.point import Point

Coordinate = Tuple[float, float]


class Geometry(ABC):
    """Base class of all geometry value objects.

    Geometries are immutable and hashable on their coordinate content, so
    they can be used directly as RDF literal values and dictionary keys in
    the triple store.
    """

    __slots__ = ()

    #: Simple-features type name, e.g. ``"POLYGON"``.
    geom_type: str = "GEOMETRY"

    @property
    @abstractmethod
    def envelope(self) -> Envelope:
        """The tightest axis-aligned bounding box."""

    @property
    @abstractmethod
    def is_empty(self) -> bool:
        """True when the geometry contains no coordinates."""

    @abstractmethod
    def coordinates(self) -> Iterator[Coordinate]:
        """Yield every coordinate of the geometry (in definition order)."""

    @property
    def area(self) -> float:
        """Planar area (0 for points and lines)."""
        return 0.0

    @property
    def length(self) -> float:
        """Total boundary / polyline length (0 for points)."""
        return 0.0

    @property
    def dimension(self) -> int:
        """Topological dimension: 0 points, 1 lines, 2 polygons."""
        return 0

    @property
    def wkt(self) -> str:
        from repro.geometry.wkt import dumps_wkt

        return dumps_wkt(self)

    # -- derived convenience -------------------------------------------------

    @property
    def centroid(self) -> "Point":
        from repro.geometry.point import Point

        coords = list(self.coordinates())
        if not coords:
            raise ValueError("empty geometry has no centroid")
        n = len(coords)
        return Point(
            sum(c[0] for c in coords) / n, sum(c[1] for c in coords) / n
        )

    def distance(self, other: "Geometry") -> float:
        from repro.geometry import predicates

        return predicates.distance(self, other)

    def intersects(self, other: "Geometry") -> bool:
        from repro.geometry import predicates

        return predicates.intersects(self, other)

    def contains(self, other: "Geometry") -> bool:
        from repro.geometry import predicates

        return predicates.contains(self, other)

    def within(self, other: "Geometry") -> bool:
        from repro.geometry import predicates

        return predicates.within(self, other)

    def disjoint(self, other: "Geometry") -> bool:
        from repro.geometry import predicates

        return predicates.disjoint(self, other)

    def touches(self, other: "Geometry") -> bool:
        from repro.geometry import predicates

        return predicates.touches(self, other)

    def overlaps(self, other: "Geometry") -> bool:
        from repro.geometry import predicates

        return predicates.overlaps(self, other)

    def crosses(self, other: "Geometry") -> bool:
        from repro.geometry import predicates

        return predicates.crosses(self, other)

    def equals(self, other: "Geometry") -> bool:
        from repro.geometry import predicates

        return predicates.equals(self, other)

    def intersection(self, other: "Geometry") -> "Geometry":
        from repro.geometry import ops

        return ops.intersection(self, other)

    def union(self, other: "Geometry") -> "Geometry":
        from repro.geometry import ops

        return ops.union(self, other)

    def difference(self, other: "Geometry") -> "Geometry":
        from repro.geometry import ops

        return ops.difference(self, other)

    def boundary(self) -> "Geometry":
        from repro.geometry import ops

        return ops.boundary(self)

    def buffer(self, radius: float, resolution: int = 16) -> "Geometry":
        from repro.geometry import ops

        return ops.buffer(self, radius, resolution=resolution)

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Collect slot values across the class hierarchy.

        Geometries are ``__slots__`` classes whose ``__setattr__`` enforces
        immutability, so the default slot-state restore would raise; an
        explicit state round-trip keeps them picklable like any other
        value object.
        """
        state = {}
        for klass in type(self).__mro__:
            for slot in getattr(klass, "__slots__", ()):
                if hasattr(self, slot):
                    state[slot] = getattr(self, slot)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        wkt = self.wkt
        if len(wkt) > 80:
            wkt = wkt[:77] + "..."
        return f"<{type(self).__name__} {wkt}>"
