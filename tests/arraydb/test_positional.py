"""Positional execution over aligned arrays.

Every fast path — the identity equi-join, sort-free structural
grouping, flat element access, whole-grid INSERT ... SELECT and UPDATE —
is run against the general coordinate-matching path (positional
execution switched off by making no column a shared coordinate column)
over arrays with identical bounds, shifted starts, sliced sub-ranges and
NULL cells.  A spy checks which path each case actually took.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arraydb import MonetDB, connection
from repro.arraydb.array import SciQLArray
from repro.arraydb.sql import executor as executor_module
from repro.arraydb.sql.executor import Executor
from repro.core.sciql_chain import SciQLChain

SHAPE = (5, 6)


def _grid(seed: int, bounds) -> tuple:
    rng = np.random.default_rng(seed)
    shape = tuple(hi - lo for lo, hi in bounds)
    values = rng.integers(0, 20, size=shape).astype(float)
    nulls = rng.random(shape) < 0.2
    return values, nulls


def _setup(db: MonetDB, layout: dict) -> None:
    """``layout`` maps array name -> per-dimension bounds."""
    for seed, (name, bounds) in enumerate(sorted(layout.items())):
        (x0, x1), (y0, y1) = bounds
        db.execute(
            f"CREATE ARRAY {name} (x INTEGER DIMENSION [{x0}:{x1}], "
            f"y INTEGER DIMENSION [{y0}:{y1}], v FLOAT)"
        )
        values, nulls = _grid(seed, bounds)
        arr = db.get_array(name)
        arr.values["v"][...] = values
        arr.null_masks["v"][...] = nulls


def _state(db: MonetDB, layout) -> dict:
    out = {}
    for name in sorted(layout):
        arr = db.get_array(name)
        out[name] = (arr.values["v"].tolist(), arr.null_masks["v"].tolist())
    return out


def _run(layout, statements):
    db = MonetDB()
    _setup(db, layout)
    results = []
    for sql in statements:
        result = db.execute(sql)
        results.append(None if result is None else result.to_dicts())
    return results, _state(db, layout)


class _Spy:
    """Counts the general-path primitives a run calls."""

    def __init__(self, monkeypatch):
        self.calls = {"merge_join": 0, "grid_order": 0, "scatter": 0}
        for attr, key in (
            ("_integer_merge_join", "merge_join"),
            ("_grid_order", "grid_order"),
        ):
            monkeypatch.setattr(
                executor_module, attr, self._counting(getattr(executor_module, attr), key)
            )
        monkeypatch.setattr(
            SciQLArray,
            "assign_cells",
            self._counting(SciQLArray.assign_cells, "scatter"),
        )

    def _counting(self, fn, key):
        def wrapper(*args, **kwargs):
            self.calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper


def _both(monkeypatch, layout, statements):
    """(positional results, general results, positional spy counts)."""
    with monkeypatch.context() as m:
        spy = _Spy(m)
        fast = _run(layout, statements)
    with monkeypatch.context() as m:
        m.setattr(Executor, "_axis", lambda self, values: None)
        slow = _run(layout, statements)
    return fast, slow, spy.calls


SAME = {"a": ((0, 5), (0, 6)), "b": ((0, 5), (0, 6)), "c": ((0, 5), (0, 6))}
SHIFTED = {"a": ((0, 5), (0, 6)), "b": ((1, 6), (0, 6)), "c": ((2, 7), (1, 7))}

JOIN = (
    "SELECT [A.x], [A.y], A.v AS av, B.v AS bv FROM a AS A "
    "JOIN b AS B ON A.x = B.x AND A.y = B.y"
)
THREE_WAY = (
    "SELECT [A.x], [A.y], A.v + B.v + C.v AS s FROM a AS A "
    "JOIN b AS B ON A.x = B.x AND A.y = B.y "
    "JOIN c AS C ON A.x = C.x AND A.y = C.y"
)
RESIDUAL = (
    "SELECT [A.x], [A.y], A.v AS av FROM a AS A "
    "JOIN b AS B ON A.x = B.x AND A.y = B.y AND A.v > B.v"
)
WINDOW = (
    "SELECT [x], [y], v, AVG(v) AS m, COUNT(*) AS n, MIN(v) AS lo, "
    "SUM(v * v) AS sq FROM a GROUP BY a[x-1:x+2][y-1:y+2]"
)
WINDOW_OVER_JOIN = (
    "SELECT [x], [y], AVG(av) AS m, MAX(bv) AS hi FROM ("
    + JOIN
    + ") AS j GROUP BY j[x-1:x+2][y-1:y+2]"
)
ELEMENT = "SELECT [x], [y], b[x][y] AS w FROM a"
INSERT = "INSERT INTO c SELECT [x], [y], v * 2 FROM a"
INSERT_JOINED = (
    "INSERT INTO c SELECT [A.x], [A.y], A.v - B.v FROM a AS A "
    "JOIN b AS B ON A.x = B.x AND A.y = B.y"
)
UPDATE_WHERE = "UPDATE c SET v = NULL WHERE b[x][y] < 8"
UPDATE_SELF = "UPDATE a SET v = v + 100 WHERE v > 10"
READ_BACK = "SELECT [x], [y], v FROM c"


@pytest.mark.parametrize(
    "statements",
    [
        [JOIN],
        [THREE_WAY],
        [RESIDUAL],
        [WINDOW],
        [WINDOW_OVER_JOIN],
        [ELEMENT],
        [INSERT, READ_BACK],
        [INSERT_JOINED, READ_BACK],
        [UPDATE_WHERE, READ_BACK],
        [UPDATE_SELF, WINDOW],
    ],
    ids=[
        "join", "three-way", "residual", "window", "window-over-join",
        "element", "insert", "insert-joined", "update-where", "update-self",
    ],
)
@pytest.mark.parametrize("layout", [SAME, SHIFTED], ids=["same", "shifted"])
def test_positional_paths_match_the_general_path(monkeypatch, layout, statements):
    fast, slow, calls = _both(monkeypatch, layout, statements)
    assert fast == slow
    if layout is SAME:
        # Aligned arrays never match coordinates, sort or scatter.
        assert calls == {"merge_join": 0, "grid_order": 0, "scatter": 0}


def test_misaligned_inputs_take_the_general_path(monkeypatch):
    cases = [
        # Shifted starts: the same coordinates name different cells.
        (SHIFTED, [JOIN], "merge_join"),
        (SHIFTED, [INSERT], "scatter"),
        # A slice of one side only.
        (
            SAME,
            [
                "SELECT [A.x], [A.y], A.v AS av, B.v AS bv "
                "FROM a[1:4][0:6] AS A JOIN b AS B "
                "ON A.x = B.x AND A.y = B.y"
            ],
            "merge_join",
        ),
        (SAME, ["INSERT INTO c SELECT [x], [y], v FROM a[1:4][2:5]"], "scatter"),
        # One dimension only: not the same cells.
        (
            SAME,
            ["SELECT [A.x], [A.y], B.v AS bv FROM a AS A JOIN b AS B ON A.x = B.x"],
            "merge_join",
        ),
        # Dimensions crossed over.
        (
            {"a": ((0, 5), (0, 5)), "b": ((0, 5), (0, 5))},
            ["SELECT [A.x], [A.y], B.v AS bv FROM a AS A JOIN b AS B "
             "ON A.x = B.y AND A.y = B.x"],
            "merge_join",
        ),
        # A window over the transposed axes.
        (SAME, ["SELECT [x], [y], AVG(v) AS m FROM a GROUP BY a[y-1:y+2][x-1:x+2]"],
         "grid_order"),
        # Rows filtered then rebuilt: not the shared coordinate columns.
        (
            SAME,
            ["SELECT [x], [y], AVG(v) AS m FROM (SELECT [x], [y], v FROM a "
             "ORDER BY y) AS o GROUP BY o[x-1:x+2][y-1:y+2]"],
            "grid_order",
        ),
    ]
    for layout, statements, general in cases:
        fast, slow, calls = _both(monkeypatch, layout, statements)
        assert fast == slow, statements
        assert calls[general] > 0, statements


def test_a_sliced_range_joins_positionally_with_the_same_slice(monkeypatch):
    sql = (
        "SELECT [A.x], [A.y], A.v AS av, B.v AS bv FROM a[1:4][2:5] AS A "
        "JOIN b[1:4][2:5] AS B ON A.x = B.x AND A.y = B.y"
    )
    fast, slow, calls = _both(monkeypatch, SAME, [sql])
    assert fast == slow
    assert calls["merge_join"] == 0
    assert len(fast[0][0]) == 9


def test_duplicate_keys_join_through_the_general_path(monkeypatch):
    statements = [
        "CREATE TABLE d (x INTEGER, y INTEGER, w FLOAT)",
        "INSERT INTO d VALUES (1, 1, 5.0), (1, 1, 6.0), (2, 3, 7.0)",
        "SELECT [A.x], [A.y], A.v AS av, D.w AS w FROM a AS A "
        "JOIN d AS D ON A.x = D.x AND A.y = D.y",
    ]

    def run():
        db = MonetDB()
        _setup(db, SAME)
        return [db.execute(sql) for sql in statements][-1].to_dicts()

    fast = run()
    with monkeypatch.context() as m:
        m.setattr(Executor, "_axis", lambda self, values: None)
        slow = run()
    assert fast == slow and len(fast) == 3


def test_cached_statement_text_reads_the_current_contents():
    db = MonetDB()
    _setup(db, SAME)
    sql = "SELECT [x], [y], v FROM a WHERE v IS NOT NULL"
    first = db.execute(sql)
    before = first.column("v").values.copy()
    db.get_array("a").set_attribute("v", np.full(SHAPE, 7.0))
    assert [d["v"] for d in db.execute(sql).to_dicts()] == [7.0] * 30
    db.execute("UPDATE a SET v = 1.0 WHERE x = 0")
    after = db.execute(sql).to_dicts()
    assert sorted({d["v"] for d in after}) == [1.0, 7.0]
    # A result handed out earlier is not changed by later writes.
    assert np.array_equal(first.column("v").values, before)


def test_shared_coordinate_columns_are_read_only():
    db = MonetDB()
    _setup(db, SAME)
    xs = db.execute("SELECT [x], [y] FROM a").column("x").values
    with pytest.raises(ValueError):
        xs[0] = 99
    assert db.execute("SELECT [x] FROM a").column("x").values[0] == 0


def test_a_chains_second_run_parses_no_statement(
    georeference, noon_scene, monkeypatch
):
    chain = SciQLChain(georeference)
    first = chain.process(noon_scene)
    calls = []
    real = connection.parse_statement
    monkeypatch.setattr(
        connection,
        "parse_statement",
        lambda text: calls.append(text) or real(text),
    )
    second = chain.process(noon_scene)
    assert calls == []
    assert [(h.x, h.y, h.confidence) for h in second.hotspots] == [
        (h.x, h.y, h.confidence) for h in first.hotspots
    ]
