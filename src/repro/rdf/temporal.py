"""stRDF valid time: period literals and Allen-style relations.

The paper introduces stRDF as "an extension of RDF that allows the
representation of geospatial data that changes over time" [14].  The
temporal half of that model is the *valid-time period*: a half-open
interval ``[start, end)`` attached to a triple via a literal of datatype
``strdf:period``.  This module provides the period value type, its lexical
form, and the Allen-algebra relations the stSPARQL temporal functions
expose.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Union

#: Datatype URI for period literals.
PERIOD_DATATYPE = "http://strdf.di.uoa.gr/ontology#period"

_PERIOD_RE = re.compile(
    r"^\s*\[\s*([0-9T:.+\-]+)\s*,\s*([0-9T:.+\-]+)\s*\)\s*$"
)


class PeriodError(ValueError):
    """Raised for malformed or degenerate periods."""


@dataclass(frozen=True, order=True)
class Period:
    """A half-open validity interval ``[start, end)``."""

    start: datetime
    end: datetime

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise PeriodError(
                f"period end {self.end} must be after start {self.start}"
            )

    # -- lexical form ------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Period":
        """Parse ``[2007-08-24T15:00:00, 2007-08-24T16:00:00)``."""
        m = _PERIOD_RE.match(text)
        if m is None:
            raise PeriodError(f"bad period literal {text!r}")
        try:
            start = datetime.fromisoformat(m.group(1))
            end = datetime.fromisoformat(m.group(2))
        except ValueError as exc:
            raise PeriodError(str(exc)) from exc
        return cls(start, end)

    def lexical(self) -> str:
        return f"[{self.start.isoformat()}, {self.end.isoformat()})"

    # -- Allen-style relations ------------------------------------------------

    def contains_instant(self, when: datetime) -> bool:
        return self.start <= when < self.end

    def contains_period(self, other: "Period") -> bool:
        return self.start <= other.start and other.end <= self.end

    def during(self, other: "Period") -> bool:
        return other.contains_period(self)

    def overlaps(self, other: "Period") -> bool:
        """True when the interiors share at least one instant."""
        return self.start < other.end and other.start < self.end

    def before(self, other: "Period") -> bool:
        return self.end <= other.start

    def after(self, other: "Period") -> bool:
        return other.end <= self.start

    def meets(self, other: "Period") -> bool:
        return self.end == other.start

    # -- constructive ------------------------------------------------------

    def intersection(self, other: "Period") -> Optional["Period"]:
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if end <= start:
            return None
        return Period(start, end)

    def union(self, other: "Period") -> "Period":
        """Smallest period covering both (they need not touch)."""
        return Period(
            min(self.start, other.start), max(self.end, other.end)
        )

    def extend(self, other: Union["Period", datetime]) -> "Period":
        if isinstance(other, Period):
            return self.union(other)
        start = min(self.start, other)
        end = max(self.end, other)
        if end == start:
            return self
        return Period(start, end)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.lexical()
