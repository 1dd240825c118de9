"""DML: INSERT, UPDATE, DELETE."""

import numpy as np
import pytest

from repro.arraydb import MonetDB


@pytest.fixture
def db():
    db = MonetDB()
    db.execute("CREATE TABLE t (a INTEGER, b FLOAT)")
    db.execute("INSERT INTO t VALUES (1, 10.0), (2, 20.0), (3, 30.0)")
    return db


class TestDelete:
    def test_delete_where(self, db):
        db.execute("DELETE FROM t WHERE a = 2")
        r = db.execute("SELECT a FROM t ORDER BY a")
        assert [d["a"] for d in r.to_dicts()] == [1, 3]

    def test_delete_all(self, db):
        db.execute("DELETE FROM t")
        assert db.execute("SELECT COUNT(*) AS n FROM t").to_dicts() == [
            {"n": 0}
        ]


class TestUpdate:
    def test_update_where(self, db):
        db.execute("UPDATE t SET b = b * 10 WHERE a >= 2")
        r = db.execute("SELECT b FROM t ORDER BY a")
        assert [d["b"] for d in r.to_dicts()] == [10.0, 200.0, 300.0]

    def test_update_all(self, db):
        db.execute("UPDATE t SET b = 0.0")
        r = db.execute("SELECT SUM(b) AS s FROM t")
        assert r.to_dicts() == [{"s": 0.0}]

    def test_update_array_attribute(self):
        db = MonetDB()
        db.execute(
            "CREATE ARRAY a (x INTEGER DIMENSION [0:3], v FLOAT)"
        )
        db.get_array("a").set_attribute("v", np.array([1.0, 2.0, 3.0]))
        db.execute("UPDATE a SET v = v + 100 WHERE x > 0")
        r = db.execute("SELECT v FROM a")
        assert [d["v"] for d in r.to_dicts()] == [1.0, 102.0, 103.0]


class TestInsertColumnsList:
    def test_named_columns_reordered(self, db):
        db.execute("INSERT INTO t (b, a) VALUES (40.0, 4)")
        r = db.execute("SELECT a, b FROM t WHERE a = 4")
        assert r.to_dicts() == [{"a": 4, "b": 40.0}]

    def test_missing_column_is_null(self, db):
        db.execute("INSERT INTO t (a) VALUES (9)")
        r = db.execute("SELECT b FROM t WHERE a = 9")
        assert r.to_dicts() == [{"b": None}]
