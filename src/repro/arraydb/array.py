"""SciQL dimensional arrays.

A :class:`SciQLArray` has named integer dimensions (with start/stop bounds)
and one or more value attributes stored as dense numpy grids, exactly the
model behind ``CREATE ARRAY a (x INTEGER DIMENSION, y INTEGER DIMENSION,
v FLOAT)`` in the paper.  Cells can be NULL (tracked with a mask per
attribute); queries see the array as a flat relation with one row per cell.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arraydb.column import Column
from repro.arraydb.errors import ArrayDBError
from repro.arraydb.table import ResultTable
from repro.arraydb.types import INTEGER, SQLType, type_for_dtype

#: Per-dimension half-open ``(start, stop)`` bounds of an array region.
Bounds = Tuple[Tuple[int, int], ...]

#: How many distinct bounds a :class:`CoordinateCache` keeps columns for.
_CACHED_BOUNDS = 8


def grid_coordinates(bounds: Bounds) -> Tuple[np.ndarray, ...]:
    """One coordinate column per dimension, enumerating every cell of
    ``bounds`` in row-major order."""
    ranges = [np.arange(lo, hi, dtype=np.int64) for lo, hi in bounds]
    return tuple(m.ravel() for m in np.meshgrid(*ranges, indexing="ij"))


class CoordinateCache:
    """Read-only coordinate columns, shared per set of bounds.

    Every scan of a region with the same bounds gets the *same* column
    objects, so an operator proves that two relations hold the same
    cells in the same order by identity alone (:meth:`axis`) — the
    precondition of positional execution.  Bounded LRU: an evicted
    column is simply no longer recognised.  Not thread-safe; each
    executor owns one.
    """

    def __init__(self) -> None:
        self._columns: "OrderedDict[Bounds, Tuple[np.ndarray, ...]]" = (
            OrderedDict()
        )
        self._axes: Dict[int, Tuple[Bounds, int]] = {}

    def __call__(self, bounds: Bounds) -> Tuple[np.ndarray, ...]:
        columns = self._columns.get(bounds)
        if columns is not None:
            self._columns.move_to_end(bounds)
            return columns
        columns = grid_coordinates(bounds)
        for k, column in enumerate(columns):
            column.flags.writeable = False
            self._axes[id(column)] = (bounds, k)
        self._columns[bounds] = columns
        if len(self._columns) > _CACHED_BOUNDS:
            _, evicted = self._columns.popitem(last=False)
            for column in evicted:
                del self._axes[id(column)]
        return columns

    def axis(self, values: np.ndarray) -> Optional[Tuple[Bounds, int]]:
        """``(bounds, k)`` when ``values`` is the cached coordinate column
        of dimension ``k`` over ``bounds``, else None.  Ids are safe keys:
        the cache keeps every column it recognises alive."""
        return self._axes.get(id(values))


def _cast(values: np.ndarray, dtype: np.dtype) -> np.ndarray:
    try:
        return values.astype(dtype, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ArrayDBError(
            f"cannot store {values.dtype} values as {dtype}: {exc}"
        ) from exc


@dataclass(frozen=True)
class Dimension:
    """A named integer dimension with half-open bounds ``[start, stop)``."""

    name: str
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop, dtype=np.int64)


class SciQLArray:
    """A dense multidimensional array with named value attributes."""

    def __init__(
        self,
        name: str,
        dimensions: Sequence[Dimension],
        attributes: Sequence[Tuple[str, SQLType]],
    ) -> None:
        if not dimensions:
            raise ArrayDBError("an array needs at least one dimension")
        if not attributes:
            raise ArrayDBError("an array needs at least one value attribute")
        for d in dimensions:
            if d.stop < d.start:
                raise ArrayDBError(
                    f"dimension {d.name!r} of {name!r} ends before it "
                    f"starts: [{d.start}:{d.stop}]"
                )
        self.name = name
        self.dimensions = list(dimensions)
        self.attribute_types: Dict[str, SQLType] = dict(attributes)
        shape = tuple(d.size for d in dimensions)
        self.values: Dict[str, np.ndarray] = {}
        self.null_masks: Dict[str, np.ndarray] = {}
        try:
            for attr, sql_type in attributes:
                self.values[attr] = np.zeros(shape, dtype=sql_type.dtype)
                # All cells start NULL, as in SciQL.
                self.null_masks[attr] = np.ones(shape, dtype=bool)
        except (ValueError, MemoryError) as exc:
            raise ArrayDBError(
                f"cannot allocate array {name!r} of shape {shape}: {exc}"
            ) from exc

    # -- metadata ----------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(d.size for d in self.dimensions)

    @property
    def bounds(self) -> Bounds:
        return tuple((d.start, d.stop) for d in self.dimensions)

    @property
    def dimension_names(self) -> List[str]:
        return [d.name for d in self.dimensions]

    @property
    def attribute_names(self) -> List[str]:
        return list(self.values)

    @property
    def column_names(self) -> List[str]:
        return self.dimension_names + self.attribute_names

    def dimension(self, name: str) -> Dimension:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise ArrayDBError(f"array {self.name} has no dimension {name!r}")

    # -- bulk data ---------------------------------------------------------

    @classmethod
    def from_numpy(
        cls,
        name: str,
        grid: np.ndarray,
        dim_names: Sequence[str] = ("x", "y"),
        attr_name: str = "v",
    ) -> "SciQLArray":
        """Wrap a dense numpy grid as a fully non-NULL array."""
        dims = [
            Dimension(dim_names[i], 0, grid.shape[i])
            for i in range(grid.ndim)
        ]
        sql_type = type_for_dtype(grid.dtype)
        arr = cls(name, dims, [(attr_name, sql_type)])
        arr.values[attr_name] = grid.astype(sql_type.dtype)
        arr.null_masks[attr_name] = np.zeros(grid.shape, dtype=bool)
        return arr

    def set_attribute(self, attr: str, grid: np.ndarray) -> None:
        """Replace an attribute's full grid (marks all cells non-NULL)."""
        if attr not in self.values:
            raise ArrayDBError(f"array {self.name} has no attribute {attr!r}")
        if grid.shape != self.shape:
            raise ArrayDBError(
                f"grid shape {grid.shape} does not match array shape {self.shape}"
            )
        self.values[attr] = grid.astype(self.attribute_types[attr].dtype)
        self.null_masks[attr] = np.zeros(grid.shape, dtype=bool)

    def attribute_grid(self, attr: str) -> np.ndarray:
        if attr not in self.values:
            raise ArrayDBError(f"array {self.name} has no attribute {attr!r}")
        return self.values[attr]

    def attribute_nulls(self, attr: str) -> np.ndarray:
        return self.null_masks[attr]

    # -- cell updates from query results -------------------------------------

    def assign_cells(
        self,
        dim_columns: Sequence[np.ndarray],
        attr: str,
        values: np.ndarray,
        nulls: Optional[np.ndarray] = None,
    ) -> int:
        """Write ``values`` into the cells addressed by ``dim_columns``.

        Out-of-bounds cell addresses are ignored (SciQL semantics for
        sparse inserts into a bounded array).
        """
        if len(dim_columns) != len(self.dimensions):
            raise ArrayDBError("dimension column count mismatch")
        index_arrays: List[np.ndarray] = []
        in_bounds = np.ones(len(values), dtype=bool)
        for dim, col in zip(self.dimensions, dim_columns):
            idx = col.astype(np.int64) - dim.start
            in_bounds &= (idx >= 0) & (idx < dim.size)
            index_arrays.append(idx)
        selector = tuple(idx[in_bounds] for idx in index_arrays)
        target_dtype = self.attribute_types[attr].dtype
        self.values[attr][selector] = _cast(values[in_bounds], target_dtype)
        if nulls is not None:
            self.null_masks[attr][selector] = nulls[in_bounds]
        else:
            self.null_masks[attr][selector] = False
        return int(in_bounds.sum())

    def assign_grid(
        self,
        attr: str,
        values: np.ndarray,
        nulls: Optional[np.ndarray] = None,
        where: Optional[np.ndarray] = None,
    ) -> None:
        """The positional twin of :meth:`assign_cells`: ``values``,
        ``nulls`` and ``where`` are row-major columns over every cell of
        the array, and the cells ``where`` selects (all when None) take
        their row's value."""
        shape = self.shape
        cells = Ellipsis if where is None else where.reshape(shape)
        grid = np.asarray(values).reshape(shape)[cells]
        self.values[attr][cells] = _cast(grid, self.attribute_types[attr].dtype)
        self.null_masks[attr][cells] = (
            False if nulls is None else nulls.reshape(shape)[cells]
        )

    # -- relational view -----------------------------------------------------

    def scan(
        self,
        slices: Optional[Sequence[Tuple[int, int]]] = None,
        coordinates: Callable[[Bounds], Tuple[np.ndarray, ...]] = (
            grid_coordinates
        ),
    ) -> ResultTable:
        """Flatten (a slice of) the array into a relation.

        ``slices`` gives per-dimension ``[lo, hi)`` bounds in *dimension
        coordinates* (not zero-based offsets).  Rows whose every attribute
        is NULL are kept — SciQL arrays are dense relations, in row-major
        cell order.  ``coordinates`` makes the dimension columns of the
        scanned bounds (a :class:`CoordinateCache` shares them).
        """
        bounds: List[Tuple[int, int]] = []
        for i, dim in enumerate(self.dimensions):
            if slices is not None and slices[i] is not None:
                lo, hi = slices[i]
                lo = max(lo, dim.start)
                hi = min(hi, dim.stop)
                if lo >= hi:
                    lo, hi = dim.start, dim.start  # empty
            else:
                lo, hi = dim.start, dim.stop
            bounds.append((lo, hi))
        columns: List[Column] = [
            Column(dim.name, INTEGER, values, None)
            for dim, values in zip(self.dimensions, coordinates(tuple(bounds)))
        ]
        selector = tuple(
            slice(lo - dim.start, hi - dim.start)
            for dim, (lo, hi) in zip(self.dimensions, bounds)
        )
        for attr, grid in self.values.items():
            nulls = self.null_masks[attr][selector]
            columns.append(
                Column(
                    attr,
                    self.attribute_types[attr],
                    grid[selector].flatten(),
                    nulls.flatten() if nulls.any() else None,
                )
            )
        return ResultTable(columns)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = ", ".join(
            f"{d.name}[{d.start}:{d.stop}]" for d in self.dimensions
        )
        return f"<SciQLArray {self.name} ({dims}) attrs={self.attribute_names}>"
