"""The MonetDB facade: catalog + vault + SciQL executor in one object."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.arraydb.array import SciQLArray
from repro.arraydb.catalog import Catalog
from repro.arraydb.sql import ast
from repro.arraydb.sql.executor import Executor
from repro.arraydb.sql.parser import parse_statement
from repro.arraydb.table import ResultTable, Table
from repro.arraydb.vault import DataVault
from repro.obs import get_metrics, get_tracer, is_enabled
from repro.perf.lru import LRUCache

_tracer = get_tracer()
_metrics = get_metrics()

#: Parsed statements a connection keeps, keyed on their text: the chain
#: runs the same few statements on every acquisition.
_PARSED_STATEMENTS = 64


@dataclass
class ExecStats:
    """Timing of the most recent :meth:`MonetDB.execute` call."""

    parse_seconds: float = 0.0
    exec_seconds: float = 0.0
    rows_scanned: int = 0
    rows_out: int = 0

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.exec_seconds


class MonetDB:
    """An embedded array database speaking the SciQL subset.

    >>> db = MonetDB()
    >>> db.execute("CREATE TABLE t (a INTEGER, b FLOAT)")
    >>> db.execute("INSERT INTO t VALUES (1, 2.5), (2, 5.0)")
    >>> db.execute("SELECT a, b * 2 AS twice FROM t").to_dicts()
    [{'a': 1, 'twice': 5.0}, {'a': 2, 'twice': 10.0}]
    """

    def __init__(self) -> None:
        self.catalog = Catalog()
        self.vault = DataVault(self.catalog)
        self._executor = Executor(self.catalog, vault=self.vault)
        self._executor_kind = ""
        self.last_stats = ExecStats()
        self._parsed = LRUCache(_PARSED_STATEMENTS)

    def _parse(self, sql: str) -> ast.Statement:
        """The statement ``sql`` parses to, reused across calls (ASTs
        are frozen dataclasses); text that fails to parse raises on
        every call and is never cached."""
        stmt = self._parsed.get(sql)
        if stmt is None:
            stmt = parse_statement(sql)
            self._parsed.put(sql, stmt)
        return stmt

    def execute(self, sql: str) -> Optional[ResultTable]:
        """Run one statement; returns a result for SELECTs, else None."""
        if not is_enabled():
            return self._execute_plain(sql)
        with _tracer.span("arraydb.execute") as span:
            result = self._execute_plain(sql)
            stats = self.last_stats
            span.set(
                kind=self._executor_kind,
                parse_seconds=stats.parse_seconds,
                exec_seconds=stats.exec_seconds,
                rows_scanned=stats.rows_scanned,
                rows_out=stats.rows_out,
            )
        if _metrics.enabled:
            _metrics.histogram(
                "arraydb_statement_seconds",
                "Wall seconds per SciQL statement (parse + execute)",
            ).observe(stats.total_seconds, kind=self._executor_kind)
            _metrics.counter(
                "arraydb_rows_scanned_total",
                "Rows materialised by table/array scans",
            ).inc(stats.rows_scanned)
        return result

    def _execute_plain(self, sql: str) -> Optional[ResultTable]:
        t0 = time.perf_counter()
        stmt = self._parse(sql)
        t1 = time.perf_counter()
        scanned_before = self._executor.rows_scanned
        result = self._executor.execute(stmt)
        t2 = time.perf_counter()
        self._executor_kind = type(stmt).__name__
        self.last_stats = ExecStats(
            t1 - t0,
            t2 - t1,
            rows_scanned=self._executor.rows_scanned - scanned_before,
            rows_out=len(result) if result is not None else 0,
        )
        return result

    def register_array(
        self,
        name: str,
        grid: np.ndarray,
        dim_names=("x", "y"),
        attr_name: str = "v",
        replace: bool = True,
    ) -> SciQLArray:
        """Wrap a numpy grid as a catalog array (bypasses SQL)."""
        arr = SciQLArray.from_numpy(name, grid, dim_names, attr_name)
        self.catalog.create(arr, replace=replace)
        return arr

    def get_array(self, name: str) -> SciQLArray:
        return self.catalog.get_array(name)

    def get_table(self, name: str) -> Table:
        return self.catalog.get_table(name)
