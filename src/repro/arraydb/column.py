"""Numpy-backed columns — the BAT analogue of MonetDB.

A column owns a numpy value array and an optional boolean null mask.
Numeric columns use NaN-free storage with the mask carrying nullness, so
integer columns stay integers.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.arraydb.errors import ArrayDBError
from repro.arraydb.types import SQLType, infer_type


class Column:
    """An immutable-by-convention typed column."""

    __slots__ = ("name", "sql_type", "values", "nulls")

    def __init__(
        self,
        name: str,
        sql_type: SQLType,
        values: np.ndarray,
        nulls: Optional[np.ndarray] = None,
    ) -> None:
        self.name = name
        self.sql_type = sql_type
        self.values = values
        self.nulls = nulls  # None means "no nulls anywhere"

    @classmethod
    def from_values(
        cls, name: str, raw: Sequence[Any], sql_type: Optional[SQLType] = None
    ) -> "Column":
        """Build a column from Python values; ``None`` marks SQL NULL."""
        raw = list(raw)
        if sql_type is None:
            probe = next((v for v in raw if v is not None), None)
            sql_type = infer_type(probe) if probe is not None else None
            if sql_type is None:
                from repro.arraydb.types import STRING

                sql_type = STRING
        nulls = np.array([v is None for v in raw], dtype=bool)
        has_nulls = bool(nulls.any())
        if sql_type.dtype == np.dtype(object):
            values = np.array(
                [("" if v is None else v) for v in raw], dtype=object
            )
        else:
            fill: Any = 0
            try:
                values = np.array(
                    [fill if v is None else v for v in raw],
                    dtype=sql_type.dtype,
                )
            except (TypeError, ValueError, OverflowError) as exc:
                raise ArrayDBError(
                    f"column {name!r} cannot hold these values as "
                    f"{sql_type.name}: {exc}"
                ) from exc
        return cls(name, sql_type, values, nulls if has_nulls else None)

    def __len__(self) -> int:
        return len(self.values)

    def is_null(self) -> np.ndarray:
        if self.nulls is None:
            return np.zeros(len(self.values), dtype=bool)
        return self.nulls

    def take(self, indices: np.ndarray) -> "Column":
        return Column(
            self.name,
            self.sql_type,
            self.values[indices],
            None if self.nulls is None else self.nulls[indices],
        )

    def filter(self, mask: np.ndarray) -> "Column":
        return Column(
            self.name,
            self.sql_type,
            self.values[mask],
            None if self.nulls is None else self.nulls[mask],
        )

    def rename(self, name: str) -> "Column":
        return Column(name, self.sql_type, self.values, self.nulls)

    def to_list(self) -> List[Any]:
        """Python values with ``None`` for NULLs."""
        out: List[Any] = []
        nulls = self.is_null()
        for i, v in enumerate(self.values):
            if nulls[i]:
                out.append(None)
            else:
                out.append(v.item() if isinstance(v, np.generic) else v)
        return out

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_list())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Column {self.name} {self.sql_type.name}[{len(self)}]>"


def concat_columns(name: str, columns: Iterable[Column]) -> Column:
    """Vertically concatenate same-typed columns."""
    cols = list(columns)
    if not cols:
        raise ArrayDBError("cannot concatenate zero columns")
    sql_type = cols[0].sql_type
    values = np.concatenate([c.values for c in cols])
    if any(c.nulls is not None for c in cols):
        nulls = np.concatenate([c.is_null() for c in cols])
    else:
        nulls = None
    return Column(name, sql_type, values, nulls)
