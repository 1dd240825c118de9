"""SciQL parser: AST-level coverage."""

import pytest

from repro.arraydb.errors import SQLParseError
from repro.arraydb.sql import parse_statement
from repro.arraydb.sql import ast


class TestDDL:
    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INTEGER, b VARCHAR(32), c DOUBLE)"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert not stmt.is_array
        assert [c.name for c in stmt.columns] == ["a", "b", "c"]

    def test_create_array_with_ranges(self):
        stmt = parse_statement(
            "CREATE ARRAY img (x INTEGER DIMENSION [0:100], "
            "y INTEGER DIMENSION [10:20], v FLOAT)"
        )
        assert stmt.is_array
        dims = [c for c in stmt.columns if c.is_dimension]
        assert len(dims) == 2
        assert dims[1].dim_start is not None

    def test_create_array_paper_style(self):
        # The exact DDL shape from §3.1.2 (unbounded dimensions).
        stmt = parse_statement(
            "CREATE ARRAY hrit_T039_image_array "
            "(x INTEGER DIMENSION, y INTEGER DIMENSION, v FLOAT)"
        )
        assert stmt.is_array
        assert sum(c.is_dimension for c in stmt.columns) == 2

    def test_drop_if_exists(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert isinstance(stmt, ast.DropObject)
        assert stmt.if_exists


class TestSelectGrammar:
    def test_dimension_projection(self):
        stmt = parse_statement("SELECT [x], [T039.y], v FROM a")
        first, second, third = stmt.items
        assert isinstance(first.expression, ast.DimensionRef)
        assert second.expression.qualifier == "T039"
        assert isinstance(third.expression, ast.ColumnRef)

    def test_structural_group(self):
        stmt = parse_statement(
            "SELECT [x], [y], AVG(v) FROM a GROUP BY a[x-1:x+2][y-1:y+2]"
        )
        group = stmt.structural_group
        assert group is not None
        assert group.source == "a"
        assert len(group.windows) == 2

    def test_value_group_not_structural(self):
        stmt = parse_statement("SELECT station FROM obs GROUP BY station")
        assert stmt.structural_group is None
        assert len(stmt.group_by) == 1

    def test_array_slice_in_from(self):
        stmt = parse_statement("SELECT v FROM img[0:10][20:30]")
        source = stmt.source
        assert isinstance(source, ast.TableRef)
        assert len(source.slices) == 2

    def test_element_access_expression(self):
        stmt = parse_statement("SELECT lut[x][y] FROM img")
        expr = stmt.items[0].expression
        assert isinstance(expr, ast.ArrayElement)
        assert expr.array_name == "lut"
        assert len(expr.indices) == 2

    def test_join_chain(self):
        stmt = parse_statement(
            "SELECT a.v FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y"
        )
        outer = stmt.source
        assert isinstance(outer, ast.Join)
        assert isinstance(outer.left, ast.Join)

    def test_subquery_with_stray_semicolon(self):
        # Figure 4 as printed has `) AS tmp1;` inside the FROM clause.
        stmt = parse_statement(
            "SELECT v FROM ( SELECT v FROM a ); AS tmp1"
        )
        assert isinstance(stmt.source, ast.SubqueryRef)
        assert stmt.source.alias == "tmp1"

    def test_case_expression(self):
        stmt = parse_statement(
            "SELECT CASE WHEN v > 1 THEN 2 WHEN v > 0 THEN 1 ELSE 0 END FROM a"
        )
        expr = stmt.items[0].expression
        assert isinstance(expr, ast.Case)
        assert len(expr.whens) == 2
        assert expr.default is not None

    def test_operator_precedence(self):
        stmt = parse_statement("SELECT a + b * c FROM t")
        expr = stmt.items[0].expression
        assert expr.op == "+"
        assert expr.right.op == "*"

    def test_comparison_and_logic(self):
        stmt = parse_statement(
            "SELECT v FROM t WHERE a > 1 AND b < 2 OR NOT c = 3"
        )
        where = stmt.where
        assert where.op == "or"

    def test_string_escaping(self):
        stmt = parse_statement("SELECT 'it''s fine' FROM t")
        assert stmt.items[0].expression.value == "it's fine"


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT",
            "CREATE TABLE (a INTEGER)",
            "SELECT * FROM t WHERE",
            "INSERT t VALUES (1)",
            "SELECT v FROM t GROUP",
            "SELECT CASE END FROM t",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(SQLParseError):
            parse_statement(bad)

    def test_trailing_garbage(self):
        with pytest.raises(SQLParseError):
            parse_statement("SELECT v FROM t extra garbage here ~~")
