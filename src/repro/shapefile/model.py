"""In-memory model of a shapefile layer."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.geometry import Geometry

SHAPE_TYPE_NULL = 0
SHAPE_TYPE_POINT = 1
SHAPE_TYPE_POLYGON = 5

SHAPE_TYPES = {
    "POINT": SHAPE_TYPE_POINT,
    "POLYGON": SHAPE_TYPE_POLYGON,
    "MULTIPOLYGON": SHAPE_TYPE_POLYGON,
}


@dataclass(frozen=True)
class Field:
    """A DBF attribute column."""

    name: str  # max 10 chars (DBF limit)
    field_type: str  # "C" character, "N" numeric, "F" float, "D" date, "L" bool
    length: int = 32
    decimals: int = 0

    def __post_init__(self) -> None:
        if len(self.name) > 10:
            raise ValueError(f"DBF field name too long: {self.name!r}")
        if self.field_type not in ("C", "N", "F", "D", "L"):
            raise ValueError(f"bad DBF field type {self.field_type!r}")
        # dBase fixes the storage width of dates (YYYYMMDD) and logicals.
        if self.field_type == "D":
            object.__setattr__(self, "length", 8)
        elif self.field_type == "L":
            object.__setattr__(self, "length", 1)


@dataclass
class ShapeRecord:
    """One feature: a geometry plus its attribute values."""

    geometry: Geometry
    attributes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Shapefile:
    """A shapefile layer: homogeneous shape type + attribute schema."""

    fields: List[Field]
    records: List[ShapeRecord]

    def __len__(self) -> int:
        return len(self.records)
