"""SciQL text is an input boundary: a malformed or out-of-range
statement raises a typed :class:`ArrayDBError`, never a bare Python
exception, and a statement that fails to parse is never cached."""

import pytest

from repro.arraydb import MonetDB, connection
from repro.arraydb.errors import ArrayDBError, SQLParseError


@pytest.fixture
def db():
    db = MonetDB()
    db.execute(
        "CREATE ARRAY a (x INTEGER DIMENSION [0:3], "
        "y INTEGER DIMENSION [0:3], v FLOAT)"
    )
    db.execute("CREATE TABLE t (a INTEGER, b FLOAT)")
    return db


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT [x], [y], v FROM a[0:99999999999999999999][0:2]",
        "SELECT [x], [y], v FROM a[0:1e999][0:2]",
        "SELECT v + 99999999999999999999 AS w FROM a",
        "INSERT INTO t VALUES ('abc', 2.0)",
        "INSERT INTO t VALUES (1, 'abc')",
        "INSERT INTO t (a, nosuch) VALUES (1, 2.0)",
        "INSERT INTO t (a) VALUES (1, 2.0)",
        "INSERT INTO a VALUES (0, 'abc', 1.0)",
        "INSERT INTO a VALUES (0, 0)",
        "CREATE ARRAY z (x INTEGER DIMENSION[0:-5], v FLOAT)",
        "CREATE ARRAY z (x INTEGER DIMENSION[0:1e999], v FLOAT)",
        "UPDATE a SET nosuch = 1.0",
        "UPDATE a SET x = 1",
        "UPDATE t SET nosuch = 1.0",
    ],
)
def test_bad_statement_raises_a_typed_error(db, sql):
    with pytest.raises(ArrayDBError):
        db.execute(sql)


def test_a_huge_offset_returns_no_rows(db):
    r = db.execute("SELECT v FROM a OFFSET 99999999999999999999")
    assert r.num_rows == 0


def test_a_statement_that_fails_to_parse_is_never_cached(db, monkeypatch):
    calls = []
    real = connection.parse_statement

    def counting(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(connection, "parse_statement", counting)
    for attempt in range(3):
        with pytest.raises(SQLParseError):
            db.execute("SELEC [x] FROM a")
        assert len(calls) == attempt + 1
    # A statement that parses is parsed once, then reused.
    for _ in range(3):
        db.execute("SELECT [x] FROM a")
    assert len(calls) == 4
