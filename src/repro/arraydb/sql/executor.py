"""Vectorised, column-at-a-time SciQL executor.

Evaluation follows MonetDB's model: every operator consumes and produces
whole columns (numpy arrays) rather than iterating rows.  Structural
grouping reshapes the input relation back into its dense grid and runs
window aggregates over it.

Aligned arrays execute positionally, as MonetDB/SciQL does: array scans
share read-only coordinate columns per set of bounds
(:class:`~repro.arraydb.array.CoordinateCache`), and a relation whose
dimension columns *are* those shared columns holds every cell of the
bounds in row-major order.  On such relations an equi-join of a grid's
dimensions with themselves is the identity, structural grouping needs
no sort, element access into an array with the same bounds is a flat
copy, and INSERT ... SELECT / UPDATE write whole grids.  Anything else
— shifted starts, different slices, duplicate keys, computed
coordinates — takes the general coordinate-matching path.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arraydb.array import Bounds, CoordinateCache, Dimension, SciQLArray
from repro.arraydb.catalog import Catalog
from repro.arraydb.column import Column
from repro.arraydb.errors import SQLRuntimeError
from repro.arraydb.sql import ast
from repro.arraydb.sql.functions import (
    AGGREGATE_NAMES,
    SCALAR_FUNCTIONS,
    VectorValue,
    aggregate_reduce,
    combine_nulls,
    window_aggregate,
)
from repro.arraydb.table import ResultTable, Table
from repro.arraydb.types import (
    BOOLEAN,
    DOUBLE,
    INTEGER,
    SQLType,
    STRING,
    infer_type,
    type_for_dtype,
)


class Frame:
    """An intermediate relation whose columns carry source qualifiers."""

    def __init__(
        self, qualified: Sequence[Tuple[Optional[str], Column]]
    ) -> None:
        self.entries = list(qualified)

    @classmethod
    def from_result(
        cls, result: ResultTable, qualifier: Optional[str]
    ) -> "Frame":
        return cls([(qualifier, col) for col in result.columns])

    @property
    def num_rows(self) -> int:
        return len(self.entries[0][1]) if self.entries else 0

    def resolve(self, name: str, qualifier: Optional[str]) -> Column:
        matches = [
            col
            for qual, col in self.entries
            if col.name == name and (qualifier is None or qual == qualifier)
        ]
        if not matches and qualifier is not None:
            # Qualifier may have been erased by an intermediate projection
            # (e.g. ordering a projected result by o.name): fall back to a
            # bare-name match.
            matches = [
                col for _, col in self.entries if col.name == name
            ]
        if not matches:
            where = f"{qualifier}.{name}" if qualifier else name
            raise SQLRuntimeError(f"unknown column {where!r}")
        if len(matches) > 1 and qualifier is None:
            # Ambiguous bare name: tolerate identical duplicates (a join on
            # x produces equal x columns on both sides).
            pass
        return matches[0]

    def filter(self, mask: np.ndarray) -> "Frame":
        return Frame([(q, c.filter(mask)) for q, c in self.entries])

    def take(self, indices: np.ndarray) -> "Frame":
        return Frame([(q, c.take(indices)) for q, c in self.entries])


class Executor:
    """Executes parsed SciQL statements against a catalog."""

    def __init__(self, catalog: Catalog, vault=None) -> None:
        self.catalog = catalog
        self.vault = vault
        #: Cumulative rows materialised by table/array scans — the
        #: connection layer diffs this around a statement to report
        #: rows-scanned per statement.
        self.rows_scanned = 0
        self.coordinates = CoordinateCache()

    # -- positional execution -------------------------------------------------

    def _axis(self, values: np.ndarray) -> Optional[Tuple[Bounds, int]]:
        """``(bounds, k)`` when ``values`` is the shared coordinate column
        of dimension ``k`` over ``bounds``; every positional path starts
        from this test."""
        return self.coordinates.axis(values)

    def _grid_bounds(self, columns: Sequence[np.ndarray]) -> Optional[Bounds]:
        """The bounds whose every cell ``columns`` enumerate in row-major
        order — column ``k`` being the shared coordinate column of
        dimension ``k`` — else None."""
        axes = [self._axis(values) for values in columns]
        if not axes or axes[0] is None:
            return None
        bounds = axes[0][0]
        if len(bounds) != len(axes) or any(
            axis != (bounds, k) for k, axis in enumerate(axes)
        ):
            return None
        return bounds

    def _same_cells(self, pairs: List[Tuple[Column, Column]]) -> bool:
        """Whether an equi-join pairs every dimension of one grid with
        itself on both sides: both then hold the same cells in the same
        order, so row i matches row i and nothing else."""
        axes = set()
        for lcol, rcol in pairs:
            axis = self._axis(lcol.values)
            if (
                axis is None
                or rcol.values is not lcol.values
                or lcol.nulls is not None
                or rcol.nulls is not None
            ):
                return False
            axes.add(axis)
        bounds = {b for b, _ in axes}
        return len(bounds) == 1 and len(axes) == len(next(iter(bounds)))

    # -- statement dispatch --------------------------------------------------

    def execute(self, stmt: ast.Statement) -> Optional[ResultTable]:
        if isinstance(stmt, ast.Select):
            return self.run_select(stmt)
        if isinstance(stmt, ast.CreateTable):
            self._create(stmt)
            return None
        if isinstance(stmt, ast.DropObject):
            self.catalog.drop(stmt.name, if_exists=stmt.if_exists)
            return None
        if isinstance(stmt, ast.InsertValues):
            self._insert_values(stmt)
            return None
        if isinstance(stmt, ast.InsertSelect):
            self._insert_select(stmt)
            return None
        if isinstance(stmt, ast.DeleteFrom):
            self._delete(stmt)
            return None
        if isinstance(stmt, ast.UpdateStmt):
            self._update(stmt)
            return None
        raise SQLRuntimeError(f"unsupported statement {type(stmt).__name__}")

    # -- DDL / DML ------------------------------------------------------------

    def _create(self, stmt: ast.CreateTable) -> None:
        if stmt.is_array:
            dims: List[Dimension] = []
            attrs: List[Tuple[str, SQLType]] = []
            for col in stmt.columns:
                if col.is_dimension:
                    start = (
                        self._const_int(col.dim_start)
                        if col.dim_start is not None
                        else 0
                    )
                    stop = (
                        self._const_int(col.dim_stop)
                        if col.dim_stop is not None
                        else 0
                    )
                    dims.append(Dimension(col.name, start, stop))
                else:
                    attrs.append((col.name, col.sql_type))
            self.catalog.create(SciQLArray(stmt.name, dims, attrs))
        else:
            schema = [(c.name, c.sql_type) for c in stmt.columns]
            self.catalog.create(Table(stmt.name, schema))

    def _const_int(self, expr: ast.Expr) -> int:
        value = self._eval_constant(expr)
        if not isinstance(value, (int, float)) or (
            isinstance(value, float) and not math.isfinite(value)
        ):
            raise SQLRuntimeError("dimension bounds must be finite numbers")
        return int(value)

    def _eval_constant(self, expr: ast.Expr):
        values, nulls = self._eval(expr, _EMPTY_FRAME, length=1)
        if nulls is not None and nulls[0]:
            return None
        v = values[0]
        return v.item() if isinstance(v, np.generic) else v

    def _insert_values(self, stmt: ast.InsertValues) -> None:
        obj = self.catalog.get(stmt.table)
        rows = [
            tuple(self._eval_constant(e) for e in row) for row in stmt.rows
        ]
        if isinstance(obj, Table):
            if stmt.columns:
                unknown = set(stmt.columns) - set(obj.column_names)
                if unknown:
                    raise SQLRuntimeError(
                        f"table {obj.name!r} has no column(s) "
                        f"{sorted(unknown)}"
                    )
                reordered = []
                for row in rows:
                    if len(row) != len(stmt.columns):
                        raise SQLRuntimeError(
                            f"{len(row)} value(s) for "
                            f"{len(stmt.columns)} column(s)"
                        )
                    provided = dict(zip(stmt.columns, row))
                    reordered.append(
                        tuple(
                            provided.get(name) for name in obj.column_names
                        )
                    )
                rows = reordered
            obj.insert_rows(rows)
            return
        # Array: rows are (dim..., value...).
        ndims = len(obj.dimensions)
        width = ndims + len(obj.attribute_names)
        if any(len(row) != width for row in rows):
            raise SQLRuntimeError(
                f"array {obj.name!r} rows take {width} values"
            )
        try:
            dim_cols = [
                np.array([row[i] for row in rows], dtype=np.int64)
                for i in range(ndims)
            ]
            for j, attr in enumerate(obj.attribute_names):
                values = np.array(
                    [row[ndims + j] for row in rows], dtype=object
                )
                nulls = np.array([v is None for v in values])
                clean = np.where(nulls, 0, values).astype(
                    obj.attribute_types[attr].dtype
                )
                obj.assign_cells(dim_cols, attr, clean, nulls)
        except (TypeError, ValueError, OverflowError) as exc:
            raise SQLRuntimeError(
                f"cannot store the values in array {obj.name!r}: {exc}"
            ) from exc

    def _insert_select(self, stmt: ast.InsertSelect) -> None:
        result = self.run_select(stmt.query)
        obj = self.catalog.get(stmt.table)
        if isinstance(obj, Table):
            if stmt.columns:
                picked = [result.column(c) for c in stmt.columns]
                result = ResultTable(picked)
            obj.insert_result(result)
            return
        dim_names = obj.dimension_names
        by_name = all(result.has_column(d) for d in dim_names)
        if by_name:
            dim_cols = [result.column(d).values for d in dim_names]
            remaining = [
                c for c in result.columns if c.name not in dim_names
            ]
        else:
            dim_cols = [
                result.columns[i].values for i in range(len(dim_names))
            ]
            remaining = result.columns[len(dim_names):]
        whole_grid = self._grid_bounds(dim_cols) == obj.bounds
        for i, attr in enumerate(obj.attribute_names):
            source = None
            for col in remaining:
                if col.name == attr:
                    source = col
                    break
            if source is None:
                if i < len(remaining):
                    source = remaining[i]
                else:
                    continue
            if whole_grid:
                obj.assign_grid(attr, source.values, source.nulls)
            else:
                obj.assign_cells(
                    dim_cols, attr, source.values, source.nulls
                )

    def _delete(self, stmt: ast.DeleteFrom) -> None:
        table = self.catalog.get_table(stmt.table)
        if stmt.where is None:
            table.truncate()
            return
        frame = Frame.from_result(table.scan(), stmt.table)
        mask = self._eval_predicate(stmt.where, frame)
        table.delete_where(mask)

    def _update(self, stmt: ast.UpdateStmt) -> None:
        obj = self.catalog.get(stmt.table)
        targets = (
            obj.attribute_types
            if isinstance(obj, SciQLArray)
            else obj.column_names
        )
        unknown = {attr for attr, _ in stmt.assignments} - set(targets)
        if unknown:
            raise SQLRuntimeError(
                f"cannot assign {sorted(unknown)} in {obj.name!r}"
            )
        if isinstance(obj, SciQLArray):
            # The scan is the whole grid in row-major order, so row r is
            # cell r: the cells whose row passes WHERE take the values.
            frame = Frame.from_result(
                obj.scan(coordinates=self.coordinates), stmt.table
            )
            mask = (
                self._eval_predicate(stmt.where, frame)
                if stmt.where is not None
                else None
            )
            for attr, expr in stmt.assignments:
                values, nulls = self._eval(expr, frame, frame.num_rows)
                obj.assign_grid(attr, values, nulls, where=mask)
            return
        table = obj
        scan = table.scan()
        frame = Frame.from_result(scan, stmt.table)
        mask = (
            self._eval_predicate(stmt.where, frame)
            if stmt.where is not None
            else np.ones(frame.num_rows, dtype=bool)
        )
        new_columns: List[Column] = []
        assigned = dict(stmt.assignments)
        for name, sql_type in table.schema:
            col = scan.column(name)
            if name in assigned:
                values, nulls = self._eval(
                    assigned[name], frame, frame.num_rows
                )
                merged = col.values.copy()
                merged[mask] = np.asarray(values)[mask].astype(
                    merged.dtype, copy=False
                )
                merged_nulls = col.is_null().copy()
                if nulls is not None:
                    merged_nulls[mask] = nulls[mask]
                else:
                    merged_nulls[mask] = False
                col = Column(
                    name,
                    sql_type,
                    merged,
                    merged_nulls if merged_nulls.any() else None,
                )
            new_columns.append(col)
        table.truncate()
        table.insert_result(ResultTable(new_columns))

    # -- SELECT --------------------------------------------------------------

    def run_select(self, query: ast.Select) -> ResultTable:
        frame = (
            self._eval_from(query.source)
            if query.source is not None
            else _EMPTY_FRAME_ONE_ROW
        )
        if query.where is not None:
            mask = self._eval_predicate(query.where, frame)
            frame = frame.filter(mask)
        if query.structural_group is not None:
            result = self._structural_select(query, frame)
        elif query.group_by or self._has_aggregates(query):
            result = self._grouped_select(query, frame)
        else:
            result = self._plain_select(query, frame)
            if query.having is not None:
                raise SQLRuntimeError("HAVING requires GROUP BY or aggregates")
        if query.distinct:
            result = _distinct(result)
        if query.order_by:
            result = self._order(result, query, frame)
        if query.offset:
            start = min(query.offset, result.num_rows)
            result = result.take(np.arange(start, result.num_rows))
        if query.limit is not None:
            result = result.take(
                np.arange(min(query.limit, result.num_rows))
            )
        return result

    def _has_aggregates(self, query: ast.Select) -> bool:
        return any(
            _contains_aggregate(item.expression)
            for item in query.items
            if not item.star
        ) or (query.having is not None and _contains_aggregate(query.having))

    # -- FROM -----------------------------------------------------------------

    def _eval_from(self, source: ast.FromItem) -> Frame:
        if isinstance(source, ast.TableRef):
            return self._scan(source)
        if isinstance(source, ast.SubqueryRef):
            result = self.run_select(source.query)
            return Frame.from_result(result, source.alias)
        if isinstance(source, ast.Join):
            left = self._eval_from(source.left)
            right = self._eval_from(source.right)
            return self._join(left, right, source.condition)
        raise SQLRuntimeError(f"unsupported FROM item {source!r}")

    def _scan(self, ref: ast.TableRef) -> Frame:
        if self.vault is not None:
            self.vault.ensure_loaded(ref.name)
        obj = self.catalog.get(ref.name)
        qualifier = ref.alias or ref.name
        if isinstance(obj, SciQLArray):
            slices = None
            if ref.slices:
                slices = [
                    (self._const_int(lo), self._const_int(hi))
                    for lo, hi in ref.slices
                ]
                while len(slices) < len(obj.dimensions):
                    slices.append(None)  # type: ignore[arg-type]
            frame = Frame.from_result(
                obj.scan(slices, coordinates=self.coordinates), qualifier
            )
        elif ref.slices:
            raise SQLRuntimeError(f"{ref.name!r} is not an array; cannot slice")
        else:
            frame = Frame.from_result(obj.scan(), qualifier)
        self.rows_scanned += frame.num_rows
        return frame

    def _join(
        self, left: Frame, right: Frame, condition: ast.Expr
    ) -> Frame:
        equi, residual = _split_equi_conditions(condition)
        pairs: List[Tuple[Column, Column]] = []
        for lref, rref in equi:
            try:
                lcol = left.resolve(lref.name, lref.qualifier)
                rcol = right.resolve(rref.name, rref.qualifier)
            except SQLRuntimeError:
                lcol = left.resolve(rref.name, rref.qualifier)
                rcol = right.resolve(lref.name, lref.qualifier)
            pairs.append((lcol, rcol))
        if pairs and self._same_cells(pairs):
            joined = Frame(left.entries + right.entries)
        else:
            if not pairs:
                # Cross join then residual filter.
                li = np.repeat(np.arange(left.num_rows), right.num_rows)
                ri = np.tile(np.arange(right.num_rows), left.num_rows)
            else:
                li, ri = _hash_join(pairs)
            joined = Frame(
                [(q, c.take(li)) for q, c in left.entries]
                + [(q, c.take(ri)) for q, c in right.entries]
            )
        if residual is not None:
            joined = joined.filter(self._eval_predicate(residual, joined))
        return joined

    # -- projection paths ----------------------------------------------------

    def _plain_select(self, query: ast.Select, frame: Frame) -> ResultTable:
        columns: List[Column] = []
        for item in query.items:
            if item.star:
                columns.extend(col for _, col in frame.entries)
                continue
            name = item.alias or _default_name(item.expression)
            values, nulls = self._eval(
                item.expression, frame, frame.num_rows
            )
            columns.append(_make_column(name, values, nulls))
        return ResultTable(columns)

    def _grouped_select(self, query: ast.Select, frame: Frame) -> ResultTable:
        n = frame.num_rows
        if query.group_by:
            key_vectors = [
                self._eval(e, frame, n) for e in query.group_by
            ]
            keys = list(zip(*[_key_list(v) for v in key_vectors])) if n else []
            group_index: Dict[tuple, int] = {}
            group_rows: List[List[int]] = []
            for i, key in enumerate(keys):
                idx = group_index.get(key)
                if idx is None:
                    idx = len(group_rows)
                    group_index[key] = idx
                    group_rows.append([])
                group_rows[idx].append(i)
        else:
            group_rows = [list(range(n))]
        columns: List[List[object]] = [[] for _ in query.items]
        names = [
            item.alias or _default_name(item.expression)
            for item in query.items
        ]
        kept_groups: List[List[int]] = []
        for rows in group_rows:
            indices = np.array(rows, dtype=np.int64)
            sub = frame.take(indices)
            if query.having is not None:
                keep = self._eval_group_scalar(query.having, sub)
                if not _truthy(keep):
                    continue
            kept_groups.append(rows)
            for j, item in enumerate(query.items):
                if item.star:
                    raise SQLRuntimeError("SELECT * with GROUP BY")
                columns[j].append(
                    self._eval_group_scalar(item.expression, sub)
                )
        out = [
            Column.from_values(names[j], columns[j])
            for j in range(len(query.items))
        ]
        return ResultTable(out)

    def _eval_group_scalar(self, expr: ast.Expr, group: Frame):
        """Evaluate an expression over one group, reducing aggregates."""
        values, nulls = self._eval(
            expr, group, max(group.num_rows, 1), group_mode=True
        )
        if len(values) == 0:
            return None
        v = values[0]
        if nulls is not None and nulls[0]:
            return None
        return v.item() if isinstance(v, np.generic) else v

    def _structural_select(
        self, query: ast.Select, frame: Frame
    ) -> ResultTable:
        group = query.structural_group
        assert group is not None
        # Identify the two dimension columns from the window expressions.
        dim_names: List[str] = []
        offsets: List[Tuple[int, int]] = []
        for lo_expr, hi_expr in group.windows:
            dim = _window_dimension(lo_expr) or _window_dimension(hi_expr)
            if dim is None:
                raise SQLRuntimeError(
                    "structural window bounds must reference a dimension"
                )
            dim_names.append(dim)
            offsets.append(
                (
                    _window_offset(lo_expr, dim),
                    _window_offset(hi_expr, dim),
                )
            )
        if len(dim_names) != 2:
            raise SQLRuntimeError("structural grouping supports 2-D windows")
        xs = frame.resolve(dim_names[0], None).values
        ys = frame.resolve(dim_names[1], None).values
        bounds = self._grid_bounds([xs, ys])
        order: Optional[np.ndarray] = None  # None: rows are in grid order
        if bounds is not None and frame.num_rows:
            grid_shape = tuple(hi - lo for lo, hi in bounds)
        else:
            grid_shape, order = _grid_order(
                xs.astype(np.int64), ys.astype(np.int64)
            )

        def to_grid(vec: VectorValue) -> Tuple[np.ndarray, Optional[np.ndarray]]:
            values, nulls = vec
            values = np.asarray(values)
            if order is not None:
                values = values[order]
                nulls = None if nulls is None else nulls[order]
            return (
                values.reshape(grid_shape),
                None if nulls is None else nulls.reshape(grid_shape),
            )

        n = frame.num_rows
        columns: List[Column] = []
        for item in query.items:
            if item.star:
                raise SQLRuntimeError("SELECT * with structural grouping")
            name = item.alias or _default_name(item.expression)
            values, nulls = self._eval(
                item.expression,
                frame,
                n,
                window=(to_grid, offsets, order),
            )
            columns.append(_make_column(name, values, nulls))
        result = ResultTable(columns)
        if query.having is not None:
            values, nulls = self._eval(
                query.having, frame, n, window=(to_grid, offsets, order)
            )
            mask = np.asarray(values, dtype=bool)
            if nulls is not None:
                mask &= ~nulls
            result = result.filter(mask)
        return result

    # -- ORDER BY ---------------------------------------------------------

    def _order(
        self, result: ResultTable, query: ast.Select, frame: Frame
    ) -> ResultTable:
        # Order on the result's own columns (aliases visible), falling
        # back to the pre-projection frame for unprojected columns —
        # valid whenever the result rows are still in frame order.
        out_frame = Frame.from_result(result, None)
        if result.num_rows == frame.num_rows:
            out_frame = Frame(out_frame.entries + frame.entries)
        keys: List[np.ndarray] = []
        for item in reversed(query.order_by):
            values, nulls = self._eval(
                item.expression, out_frame, result.num_rows
            )
            arr = np.asarray(values)
            if arr.dtype == object:
                arr = np.array([str(v) for v in arr])
            keys.append(arr if not item.descending else _descending_key(arr))
        order = np.lexsort(keys) if keys else np.arange(result.num_rows)
        return result.take(order)

    # -- expression evaluation ------------------------------------------------

    def _eval_predicate(self, expr: ast.Expr, frame: Frame) -> np.ndarray:
        values, nulls = self._eval(expr, frame, frame.num_rows)
        mask = np.asarray(values, dtype=bool)
        if nulls is not None:
            mask = mask & ~nulls
        return mask

    def _eval(
        self,
        expr: ast.Expr,
        frame: Frame,
        length: int,
        group_mode: bool = False,
        window=None,
    ) -> VectorValue:
        if isinstance(expr, ast.Literal):
            return _literal_vector(expr.value, length)
        if isinstance(expr, (ast.ColumnRef, ast.DimensionRef)):
            col = frame.resolve(expr.name, expr.qualifier)
            return col.values, col.nulls
        if isinstance(expr, ast.Unary):
            values, nulls = self._eval(
                expr.operand, frame, length, group_mode, window
            )
            if expr.op == "not":
                return ~np.asarray(values, dtype=bool), nulls
            if expr.op == "-":
                return -np.asarray(values), nulls
            return values, nulls
        if isinstance(expr, ast.Binary):
            return self._eval_binary(expr, frame, length, group_mode, window)
        if isinstance(expr, ast.IsNull):
            values, nulls = self._eval(
                expr.operand, frame, length, group_mode, window
            )
            is_null = (
                nulls.copy()
                if nulls is not None
                else np.zeros(len(values), dtype=bool)
            )
            return (~is_null if expr.negated else is_null), None
        if isinstance(expr, ast.Between):
            low = ast.Binary(">=", expr.operand, expr.low)
            high = ast.Binary("<=", expr.operand, expr.high)
            combined: ast.Expr = ast.Binary("and", low, high)
            if expr.negated:
                combined = ast.Unary("not", combined)
            return self._eval(combined, frame, length, group_mode, window)
        if isinstance(expr, ast.InList):
            values, nulls = self._eval(
                expr.operand, frame, length, group_mode, window
            )
            arr = np.asarray(values)
            mask = np.zeros(len(arr), dtype=bool)
            for item in expr.items:
                iv, inulls = self._eval(item, frame, length, group_mode, window)
                mask |= arr == np.asarray(iv)
            if expr.negated:
                mask = ~mask
            return mask, nulls
        if isinstance(expr, ast.Case):
            return self._eval_case(expr, frame, length, group_mode, window)
        if isinstance(expr, ast.Cast):
            values, nulls = self._eval(
                expr.operand, frame, length, group_mode, window
            )
            try:
                return np.asarray(values).astype(expr.target.dtype), nulls
            except (TypeError, ValueError) as exc:
                raise SQLRuntimeError(f"bad CAST: {exc}") from exc
        if isinstance(expr, ast.ArrayElement):
            return self._eval_array_element(expr, frame, length, group_mode, window)
        if isinstance(expr, ast.FuncCall):
            return self._eval_function(expr, frame, length, group_mode, window)
        raise SQLRuntimeError(f"unsupported expression {expr!r}")

    def _eval_binary(
        self, expr, frame, length, group_mode, window
    ) -> VectorValue:
        lv, ln = self._eval(expr.left, frame, length, group_mode, window)
        rv, rn = self._eval(expr.right, frame, length, group_mode, window)
        la = np.asarray(lv)
        ra = np.asarray(rv)
        nulls = combine_nulls(
            _broadcast_mask(ln, len(la), len(ra)),
            _broadcast_mask(rn, len(la), len(ra)),
        )
        op = expr.op
        if op == "and":
            return (la.astype(bool) & ra.astype(bool)), nulls
        if op == "or":
            return (la.astype(bool) | ra.astype(bool)), nulls
        if op in ("=", "<>", "<", "<=", ">", ">="):
            if la.dtype == object or ra.dtype == object:
                la = np.array([str(v) for v in np.broadcast_to(la, _blen(la, ra))])
                ra = np.array([str(v) for v in np.broadcast_to(ra, _blen(la, ra))])
            out = {
                "=": la == ra,
                "<>": la != ra,
                "<": la < ra,
                "<=": la <= ra,
                ">": la > ra,
                ">=": la >= ra,
            }[op]
            return out, nulls
        if op in ("+", "-", "*", "/", "%"):
            lf = la.astype(np.float64) if la.dtype != np.float64 else la
            rf = ra.astype(np.float64) if ra.dtype != np.float64 else ra
            if op == "+":
                out = lf + rf
            elif op == "-":
                out = lf - rf
            elif op == "*":
                out = lf * rf
            elif op == "/":
                zero = rf == 0
                out = np.divide(lf, np.where(zero, 1.0, rf))
                nulls = combine_nulls(nulls, zero if zero.any() else None)
            else:
                zero = rf == 0
                out = np.mod(lf, np.where(zero, 1.0, rf))
                nulls = combine_nulls(nulls, zero if zero.any() else None)
            if (
                np.issubdtype(la.dtype, np.integer)
                and np.issubdtype(ra.dtype, np.integer)
                and op in ("+", "-", "*", "%")
            ):
                out = out.astype(np.int64)
            return out, nulls
        raise SQLRuntimeError(f"unknown operator {op!r}")

    def _eval_case(
        self, expr: ast.Case, frame, length, group_mode, window
    ) -> VectorValue:
        n = frame.num_rows if frame.num_rows else length
        chosen = np.zeros(n, dtype=bool)
        out: Optional[np.ndarray] = None
        out_nulls = np.zeros(n, dtype=bool)
        for cond, result in expr.whens:
            cv, cn = self._eval(cond, frame, length, group_mode, window)
            mask = np.asarray(cv, dtype=bool)
            if cn is not None:
                mask = mask & ~cn
            mask = mask & ~chosen
            rv, rn = self._eval(result, frame, length, group_mode, window)
            ra = np.broadcast_to(np.asarray(rv), (n,)) if np.asarray(rv).shape != (n,) else np.asarray(rv)
            if out is None:
                out = np.zeros(n, dtype=_result_dtype(ra.dtype))
            out[mask] = ra[mask]
            if rn is not None:
                out_nulls[mask] = np.broadcast_to(rn, (n,))[mask]
            chosen |= mask
        remaining = ~chosen
        if expr.default is not None:
            dv, dn = self._eval(expr.default, frame, length, group_mode, window)
            da = np.asarray(dv)
            da = np.broadcast_to(da, (n,)) if da.shape != (n,) else da
            if out is None:
                out = np.zeros(n, dtype=_result_dtype(da.dtype))
            out[remaining] = da[remaining]
            if dn is not None:
                out_nulls[remaining] = np.broadcast_to(dn, (n,))[remaining]
        else:
            out_nulls[remaining] = True
        assert out is not None
        return out, (out_nulls if out_nulls.any() else None)

    def _eval_array_element(
        self, expr: ast.ArrayElement, frame, length, group_mode, window
    ) -> VectorValue:
        arr = self.catalog.get_array(expr.array_name)
        attr = expr.attribute or arr.attribute_names[0]
        grid = arr.attribute_grid(attr)
        null_grid = arr.attribute_nulls(attr)
        indices = [
            self._eval(index_expr, frame, length, group_mode, window)
            for index_expr in expr.indices
        ]
        if (
            all(inulls is None for _, inulls in indices)
            and self._grid_bounds([iv for iv, _ in indices]) == arr.bounds
        ):
            # The rows address every cell of ``arr`` in row-major order.
            nulls = null_grid.flatten()
            return grid.flatten(), (nulls if nulls.any() else None)
        index_vectors = []
        in_bounds = None
        for dim, (iv, inulls) in zip(arr.dimensions, indices):
            idx = np.asarray(iv)
            idx = np.round(idx).astype(np.int64) - dim.start
            ok = (idx >= 0) & (idx < dim.size)
            if inulls is not None:
                ok &= ~inulls
            in_bounds = ok if in_bounds is None else (in_bounds & ok)
            index_vectors.append(np.clip(idx, 0, dim.size - 1))
        assert in_bounds is not None
        values = grid[tuple(index_vectors)]
        nulls = null_grid[tuple(index_vectors)] | ~in_bounds
        return values, (nulls if nulls.any() else None)

    def _eval_function(
        self, expr: ast.FuncCall, frame, length, group_mode, window
    ) -> VectorValue:
        name = expr.name
        if name in AGGREGATE_NAMES:
            if window is not None:
                to_grid, offsets, order = window
                if expr.star:
                    arg: VectorValue = (
                        np.ones(frame.num_rows, dtype=np.float64),
                        None,
                    )
                else:
                    arg = self._eval(expr.args[0], frame, length)
                grid, null_grid = to_grid(arg)
                out_grid, out_nulls = window_aggregate(
                    "count" if expr.star else name, grid, null_grid, offsets
                )
                flat = out_grid.reshape(-1)
                flat_nulls = None if out_nulls is None else out_nulls.reshape(-1)
                if order is None:
                    return flat, flat_nulls
                # Back to the frame's original row order.
                inverse = np.empty_like(order)
                inverse[order] = np.arange(len(order))
                return (
                    flat[inverse],
                    None if flat_nulls is None else flat_nulls[inverse],
                )
            if group_mode:
                if expr.star:
                    return np.array([frame.num_rows]), None
                values, nulls = self._eval(
                    expr.args[0], frame, frame.num_rows
                )
                arr = np.asarray(values)
                if expr.distinct:
                    keep = nulls is None or ~nulls
                    uniq = np.unique(arr[keep] if nulls is not None else arr)
                    arr, nulls = uniq, None
                reduced = aggregate_reduce(name, arr, nulls)
                if reduced is None:
                    return np.zeros(1), np.ones(1, dtype=bool)
                return np.array([reduced]), None
            raise SQLRuntimeError(
                f"aggregate {name!r} used outside GROUP BY context"
            )
        impl = SCALAR_FUNCTIONS.get(name)
        if impl is None:
            raise SQLRuntimeError(f"unknown function {name!r}")
        args = [
            self._eval(a, frame, length, group_mode, window)
            for a in expr.args
        ]
        return impl(args)


# -- helpers ------------------------------------------------------------------

_EMPTY_FRAME = Frame([])
_EMPTY_FRAME_ONE_ROW = Frame(
    [(None, Column("dummy", INTEGER, np.zeros(1, dtype=np.int64), None))]
)


def _blen(la: np.ndarray, ra: np.ndarray) -> int:
    return max(len(la), len(ra))


def _broadcast_mask(
    mask: Optional[np.ndarray], left_len: int, right_len: int
) -> Optional[np.ndarray]:
    if mask is None:
        return None
    n = max(left_len, right_len)
    if len(mask) == n:
        return mask
    return np.broadcast_to(mask, (n,)).copy()


def _literal_vector(value, length: int) -> VectorValue:
    if value is None:
        return np.zeros(length), np.ones(length, dtype=bool)
    if isinstance(value, bool):
        return np.full(length, value, dtype=bool), None
    if isinstance(value, int):
        if not -(1 << 63) <= value < (1 << 63):
            raise SQLRuntimeError(f"integer {value} is out of 64-bit range")
        return np.full(length, value, dtype=np.int64), None
    if isinstance(value, float):
        return np.full(length, value, dtype=np.float64), None
    out = np.empty(length, dtype=object)
    out[:] = value
    return out, None


def _make_column(
    name: str, values: np.ndarray, nulls: Optional[np.ndarray]
) -> Column:
    arr = np.asarray(values)
    return Column(name, type_for_dtype(arr.dtype), arr, nulls)


def _result_dtype(dtype: np.dtype) -> np.dtype:
    if np.issubdtype(dtype, np.bool_):
        return np.dtype(np.bool_)
    if np.issubdtype(dtype, np.integer):
        return np.dtype(np.int64)
    if np.issubdtype(dtype, np.floating):
        return np.dtype(np.float64)
    return np.dtype(object)


def _default_name(expr: ast.Expr) -> str:
    if isinstance(expr, (ast.ColumnRef, ast.DimensionRef)):
        return expr.name
    if isinstance(expr, ast.FuncCall):
        return expr.name
    return "col"


def _key_list(vec: VectorValue) -> List[object]:
    values, nulls = vec
    out: List[object] = []
    arr = np.asarray(values)
    null_mask = nulls if nulls is not None else None
    for i in range(len(arr)):
        if null_mask is not None and null_mask[i]:
            out.append(None)
        else:
            v = arr[i]
            out.append(v.item() if isinstance(v, np.generic) else v)
    return out


def _truthy(value) -> bool:
    return bool(value) if value is not None else False


def _distinct(result: ResultTable) -> ResultTable:
    seen = set()
    keep: List[int] = []
    for i, row in enumerate(result.rows()):
        if row not in seen:
            seen.add(row)
            keep.append(i)
    return result.take(np.array(keep, dtype=np.int64))


def _descending_key(arr: np.ndarray) -> np.ndarray:
    if np.issubdtype(arr.dtype, np.number):
        return -arr
    # Invert lexicographic order for strings via rank.
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=np.int64)
    ranks[order] = np.arange(len(arr))
    return -ranks


def _contains_aggregate(expr: ast.Expr) -> bool:
    if isinstance(expr, ast.FuncCall):
        if expr.name in AGGREGATE_NAMES:
            return True
        return any(_contains_aggregate(a) for a in expr.args)
    if isinstance(expr, ast.Unary):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Binary):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.Case):
        for cond, result in expr.whens:
            if _contains_aggregate(cond) or _contains_aggregate(result):
                return True
        return expr.default is not None and _contains_aggregate(expr.default)
    if isinstance(expr, ast.Cast):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, (ast.IsNull,)):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.Between):
        return any(
            _contains_aggregate(e) for e in (expr.operand, expr.low, expr.high)
        )
    if isinstance(expr, ast.InList):
        return _contains_aggregate(expr.operand) or any(
            _contains_aggregate(e) for e in expr.items
        )
    return False


def _split_equi_conditions(expr: ast.Expr):
    """Split an ON condition into equi-join column pairs + residual."""
    equi: List[Tuple[ast.ColumnRef, ast.ColumnRef]] = []
    residual: List[ast.Expr] = []

    def walk(e: ast.Expr) -> None:
        if isinstance(e, ast.Binary) and e.op == "and":
            walk(e.left)
            walk(e.right)
            return
        if (
            isinstance(e, ast.Binary)
            and e.op == "="
            and isinstance(e.left, ast.ColumnRef)
            and isinstance(e.right, ast.ColumnRef)
        ):
            equi.append((e.left, e.right))
            return
        residual.append(e)

    walk(expr)
    residual_expr: Optional[ast.Expr] = None
    for e in residual:
        residual_expr = (
            e if residual_expr is None else ast.Binary("and", residual_expr, e)
        )
    return equi, residual_expr


def _hash_join(
    pairs: List[Tuple[Column, Column]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Multi-key inner hash join; returns (left_indices, right_indices)."""
    if all(
        np.issubdtype(l.values.dtype, np.integer)
        and np.issubdtype(r.values.dtype, np.integer)
        and l.nulls is None
        and r.nulls is None
        for l, r in pairs
    ):
        return _integer_merge_join(pairs)
    left_keys = list(zip(*[p[0].to_list() for p in pairs]))
    right_keys = list(zip(*[p[1].to_list() for p in pairs]))
    table: Dict[tuple, List[int]] = {}
    for i, key in enumerate(left_keys):
        table.setdefault(key, []).append(i)
    li: List[int] = []
    ri: List[int] = []
    for j, key in enumerate(right_keys):
        for i in table.get(key, ()):
            li.append(i)
            ri.append(j)
    return np.array(li, dtype=np.int64), np.array(ri, dtype=np.int64)


def _integer_merge_join(
    pairs: List[Tuple[Column, Column]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised sort-merge join for all-integer join keys."""
    # Shared packing parameters so equal logical keys pack equally.
    offsets = []
    spans = []
    for l, r in pairs:
        lo_v = min(int(l.values.min(initial=0)), int(r.values.min(initial=0)))
        hi_v = max(int(l.values.max(initial=0)), int(r.values.max(initial=0)))
        offsets.append(lo_v)
        spans.append(hi_v - lo_v + 1)
    left_key = _pack_keys(
        [p[0].values for p in pairs], offsets, spans
    )
    right_key = _pack_keys(
        [p[1].values for p in pairs], offsets, spans
    )
    right_order = np.argsort(right_key, kind="stable")
    sorted_right = right_key[right_order]
    lo = np.searchsorted(sorted_right, left_key, side="left")
    hi = np.searchsorted(sorted_right, left_key, side="right")
    counts = hi - lo
    li = np.repeat(np.arange(len(left_key)), counts)
    if counts.max(initial=0) <= 1:
        ri = right_order[lo[counts > 0]]
    else:
        ri = np.concatenate(
            [right_order[a:b] for a, b in zip(lo, hi) if b > a]
        ) if len(li) else np.empty(0, dtype=np.int64)
    return li.astype(np.int64), np.asarray(ri, dtype=np.int64)


def _pack_keys(
    columns: List[np.ndarray], offsets: List[int], spans: List[int]
) -> np.ndarray:
    """Pack multiple integer key columns into one int64 key using shared
    per-column offsets and spans."""
    packed = columns[0].astype(np.int64) - offsets[0]
    for col, offset, span in zip(columns[1:], offsets[1:], spans[1:]):
        packed = packed * span + (col.astype(np.int64) - offset)
    return packed


def _window_dimension(expr: ast.Expr) -> Optional[str]:
    if isinstance(expr, ast.ColumnRef):
        return expr.name
    if isinstance(expr, ast.Binary):
        return _window_dimension(expr.left) or _window_dimension(expr.right)
    if isinstance(expr, ast.Unary):
        return _window_dimension(expr.operand)
    return None


def _window_offset(expr: ast.Expr, dim: str) -> int:
    """Evaluate a window bound like ``x-1`` with the dimension set to 0."""

    def ev(e: ast.Expr) -> float:
        if isinstance(e, ast.ColumnRef):
            if e.name != dim:
                raise SQLRuntimeError(
                    f"window bound references {e.name!r}, expected {dim!r}"
                )
            return 0.0
        if isinstance(e, ast.Literal):
            if not isinstance(e.value, (int, float)):
                raise SQLRuntimeError("window bounds must be numeric")
            return float(e.value)
        if isinstance(e, ast.Unary) and e.op in ("-", "+"):
            v = ev(e.operand)
            return -v if e.op == "-" else v
        if isinstance(e, ast.Binary) and e.op in ("+", "-"):
            lv, rv = ev(e.left), ev(e.right)
            return lv + rv if e.op == "+" else lv - rv
        raise SQLRuntimeError(f"unsupported window bound {e!r}")

    return int(ev(expr))


def _grid_order(
    xs: np.ndarray, ys: np.ndarray
) -> Tuple[Tuple[int, int], np.ndarray]:
    """The dense (nx, ny) grid shape and the row order that sorts the
    rows into it."""
    ux = np.unique(xs)
    uy = np.unique(ys)
    nx, ny = len(ux), len(uy)
    if nx * ny != len(xs):
        raise SQLRuntimeError(
            "structural grouping requires a dense rectangular grid "
            f"({nx}x{ny} != {len(xs)} rows)"
        )
    return (nx, ny), np.lexsort((ys, xs))
