"""Recursive-descent parser for the SciQL subset."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.arraydb.errors import SQLParseError
from repro.arraydb.sql import ast
from repro.arraydb.sql.lexer import Token, tokenize
from repro.arraydb.types import parse_type


class Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.idx = 0

    # -- plumbing ----------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.idx + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def next(self) -> Token:
        tok = self.tokens[self.idx]
        if tok.kind != "eof":
            self.idx += 1
        return tok

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == kind and (value is None or tok.value == value):
            return self.next()
        return None

    def accept_keyword(self, *words: str) -> Optional[Token]:
        tok = self.peek()
        if tok.kind == "keyword" and tok.value in words:
            return self.next()
        return None

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            raise SQLParseError(
                f"expected {value or kind!r}, found {tok.value!r} "
                f"at offset {tok.pos}"
            )
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value in words

    def expect_identifier(self) -> str:
        tok = self.next()
        if tok.kind == "word":
            return tok.value
        raise SQLParseError(
            f"expected an identifier, found {tok.value!r} at offset {tok.pos}"
        )

    # -- entry points --------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        stmt = self._parse_single()
        self.accept("op", ";")
        self.expect("eof")
        return stmt

    def _parse_single(self) -> ast.Statement:
        if self.at_keyword("select"):
            return self._parse_select()
        if self.at_keyword("create"):
            return self._parse_create()
        if self.at_keyword("drop"):
            return self._parse_drop()
        if self.at_keyword("insert"):
            return self._parse_insert()
        if self.at_keyword("delete"):
            return self._parse_delete()
        if self.at_keyword("update"):
            return self._parse_update()
        tok = self.peek()
        raise SQLParseError(f"unexpected statement start {tok.value!r}")

    # -- DDL -----------------------------------------------------------------

    def _parse_create(self) -> ast.CreateTable:
        self.expect("keyword", "create")
        is_array = bool(self.accept_keyword("array"))
        if not is_array:
            self.expect("keyword", "table")
        name = self.expect_identifier()
        self.expect("op", "(")
        columns: List[ast.ColumnDef] = []
        while True:
            col_name = self.expect_identifier()
            type_tok = self.next()
            if type_tok.kind not in ("word", "keyword"):
                raise SQLParseError(f"expected a type, got {type_tok.value!r}")
            type_text = type_tok.value
            if self.accept("op", "("):
                # VARCHAR(32) — swallow the length.
                self.expect("number")
                self.expect("op", ")")
            sql_type = parse_type(type_text)
            is_dim = False
            dim_start = dim_stop = None
            if self.accept_keyword("dimension"):
                is_dim = True
                if self.accept("op", "["):
                    dim_start = self._parse_expression()
                    self.expect("op", ":")
                    dim_stop = self._parse_expression()
                    self.expect("op", "]")
            if self.accept_keyword("default"):
                self._parse_expression()  # accepted, ignored
            columns.append(
                ast.ColumnDef(col_name, sql_type, is_dim, dim_start, dim_stop)
            )
            if self.accept("op", ","):
                continue
            break
        self.expect("op", ")")
        return ast.CreateTable(name, tuple(columns), is_array=is_array)

    def _parse_drop(self) -> ast.DropObject:
        self.expect("keyword", "drop")
        if not self.accept_keyword("table"):
            self.accept_keyword("array")
        if_exists = False
        if self.accept_keyword("if"):
            self.expect("keyword", "exists")
            if_exists = True
        return ast.DropObject(self.expect_identifier(), if_exists)

    # -- DML -----------------------------------------------------------------

    def _parse_insert(self):
        self.expect("keyword", "insert")
        self.expect("keyword", "into")
        table = self.expect_identifier()
        columns: Tuple[str, ...] = ()
        if self.peek().kind == "op" and self.peek().value == "(":
            save = self.idx
            self.next()
            names: List[str] = []
            ok = True
            while True:
                tok = self.peek()
                if tok.kind != "word":
                    ok = False
                    break
                names.append(self.next().value)
                if self.accept("op", ","):
                    continue
                break
            if ok and self.accept("op", ")"):
                columns = tuple(names)
            else:
                self.idx = save
        if self.accept_keyword("values"):
            rows: List[Tuple[ast.Expr, ...]] = []
            while True:
                self.expect("op", "(")
                row: List[ast.Expr] = [self._parse_expression()]
                while self.accept("op", ","):
                    row.append(self._parse_expression())
                self.expect("op", ")")
                rows.append(tuple(row))
                if self.accept("op", ","):
                    continue
                break
            return ast.InsertValues(table, tuple(rows), columns)
        query = self._parse_select()
        return ast.InsertSelect(table, query, columns)

    def _parse_delete(self) -> ast.DeleteFrom:
        self.expect("keyword", "delete")
        self.expect("keyword", "from")
        table = self.expect_identifier()
        where = None
        if self.accept_keyword("where"):
            where = self._parse_expression()
        return ast.DeleteFrom(table, where)

    def _parse_update(self) -> ast.UpdateStmt:
        self.expect("keyword", "update")
        table = self.expect_identifier()
        self.expect("keyword", "set")
        assignments: List[Tuple[str, ast.Expr]] = []
        while True:
            col = self.expect_identifier()
            self.expect("op", "=")
            assignments.append((col, self._parse_expression()))
            if self.accept("op", ","):
                continue
            break
        where = None
        if self.accept_keyword("where"):
            where = self._parse_expression()
        return ast.UpdateStmt(table, tuple(assignments), where)

    # -- SELECT --------------------------------------------------------------

    def _parse_select(self) -> ast.Select:
        self.expect("keyword", "select")
        distinct = bool(self.accept_keyword("distinct"))
        items: List[ast.SelectItem] = []
        while True:
            items.append(self._parse_select_item())
            if self.accept("op", ","):
                continue
            break
        source: Optional[ast.FromItem] = None
        if self.accept_keyword("from"):
            source = self._parse_from()
        where = None
        if self.accept_keyword("where"):
            where = self._parse_expression()
        group_by: Tuple[ast.Expr, ...] = ()
        structural: Optional[ast.StructuralGroup] = None
        if self.accept_keyword("group"):
            self.expect("keyword", "by")
            group_by, structural = self._parse_group_spec()
        having = None
        if self.accept_keyword("having"):
            having = self._parse_expression()
        order_by: List[ast.OrderItem] = []
        if self.accept_keyword("order"):
            self.expect("keyword", "by")
            while True:
                expr = self._parse_expression()
                descending = False
                if self.accept_keyword("desc"):
                    descending = True
                else:
                    self.accept_keyword("asc")
                order_by.append(ast.OrderItem(expr, descending))
                if self.accept("op", ","):
                    continue
                break
        limit = None
        offset = 0
        if self.accept_keyword("limit"):
            limit = int(self.expect("number").value)
        if self.accept_keyword("offset"):
            offset = int(self.expect("number").value)
        return ast.Select(
            items=tuple(items),
            source=source,
            where=where,
            group_by=group_by,
            structural_group=structural,
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def _parse_select_item(self) -> ast.SelectItem:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "*":
            self.next()
            return ast.SelectItem(ast.Literal(None), star=True)
        if tok.kind == "op" and tok.value == "[":
            # Dimension projection [x] or [T039.x].
            self.next()
            first = self.expect_identifier()
            qualifier = None
            name = first
            if self.accept("op", "."):
                qualifier = first
                name = self.expect_identifier()
            self.expect("op", "]")
            expr: ast.Expr = ast.DimensionRef(name, qualifier)
            alias = self._parse_alias()
            return ast.SelectItem(expr, alias)
        expr = self._parse_expression()
        alias = self._parse_alias()
        return ast.SelectItem(expr, alias)

    def _parse_alias(self) -> Optional[str]:
        if self.accept_keyword("as"):
            return self.expect_identifier()
        tok = self.peek()
        if tok.kind == "word":
            return self.next().value
        return None

    def _parse_from(self) -> ast.FromItem:
        left = self._parse_table_ref()
        while True:
            if self.accept_keyword("join"):
                pass
            elif self.at_keyword("inner") and self.peek(1).value == "join":
                self.next()
                self.next()
            else:
                break
            right = self._parse_table_ref()
            self.expect("keyword", "on")
            condition = self._parse_expression()
            left = ast.Join(left, right, condition)
        return left

    def _parse_table_ref(self) -> ast.FromItem:
        if self.accept("op", "("):
            query = self._parse_select()
            self.expect("op", ")")
            self.accept("op", ";")  # tolerate the paper's stray semicolon
            self.accept_keyword("as")
            alias = self.expect_identifier()
            return ast.SubqueryRef(query, alias)
        name = self.expect_identifier()
        slices: List[Tuple[ast.Expr, ast.Expr]] = []
        while self.peek().kind == "op" and self.peek().value == "[":
            self.next()
            lo = self._parse_expression()
            self.expect("op", ":")
            hi = self._parse_expression()
            self.expect("op", "]")
            slices.append((lo, hi))
        alias = None
        if self.accept_keyword("as"):
            alias = self.expect_identifier()
        elif self.peek().kind == "word" and not self.at_keyword():
            alias = self.next().value
        return ast.TableRef(name, alias, tuple(slices) if slices else None)

    def _parse_group_spec(self):
        """Either a value GROUP BY list or a structural window group."""
        tok = self.peek()
        if tok.kind == "word" and self.peek(1).kind == "op" and \
                self.peek(1).value == "[":
            source = self.next().value
            windows: List[Tuple[ast.Expr, ast.Expr]] = []
            while self.accept("op", "["):
                lo = self._parse_expression()
                self.expect("op", ":")
                hi = self._parse_expression()
                self.expect("op", "]")
                windows.append((lo, hi))
            return (), ast.StructuralGroup(source, tuple(windows))
        exprs: List[ast.Expr] = [self._parse_expression()]
        while self.accept("op", ","):
            exprs.append(self._parse_expression())
        return tuple(exprs), None

    # -- expressions ---------------------------------------------------------

    def _parse_expression(self) -> ast.Expr:
        return self._parse_or()

    def _parse_or(self) -> ast.Expr:
        left = self._parse_and()
        while self.accept_keyword("or"):
            left = ast.Binary("or", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expr:
        left = self._parse_not()
        while self.accept_keyword("and"):
            left = ast.Binary("and", left, self._parse_not())
        return left

    def _parse_not(self) -> ast.Expr:
        if self.accept_keyword("not"):
            return ast.Unary("not", self._parse_not())
        return self._parse_predicate()

    def _parse_predicate(self) -> ast.Expr:
        left = self._parse_additive()
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.next()
            op = "<>" if tok.value == "!=" else tok.value
            return ast.Binary(op, left, self._parse_additive())
        if self.at_keyword("is"):
            self.next()
            negated = bool(self.accept_keyword("not"))
            self.expect("keyword", "null")
            return ast.IsNull(left, negated)
        negated = False
        if self.at_keyword("not") and self.peek(1).value in ("between", "in", "like"):
            self.next()
            negated = True
        if self.accept_keyword("between"):
            low = self._parse_additive()
            self.expect("keyword", "and")
            high = self._parse_additive()
            return ast.Between(left, low, high, negated)
        if self.accept_keyword("in"):
            self.expect("op", "(")
            items = [self._parse_expression()]
            while self.accept("op", ","):
                items.append(self._parse_expression())
            self.expect("op", ")")
            return ast.InList(left, tuple(items), negated)
        if self.accept_keyword("like"):
            pattern = self._parse_additive()
            expr = ast.FuncCall("like", (left, pattern))
            return ast.Unary("not", expr) if negated else expr
        return left

    def _parse_additive(self) -> ast.Expr:
        left = self._parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in ("+", "-", "||"):
                self.next()
                op = "concat" if tok.value == "||" else tok.value
                right = self._parse_multiplicative()
                if op == "concat":
                    left = ast.FuncCall("concat", (left, right))
                else:
                    left = ast.Binary(op, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expr:
        left = self._parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in ("*", "/", "%"):
                self.next()
                left = ast.Binary(tok.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("-", "+"):
            self.next()
            return ast.Unary(tok.value, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "(":
            self.next()
            expr = self._parse_expression()
            self.expect("op", ")")
            return expr
        if tok.kind == "number":
            self.next()
            text = tok.value
            if any(c in text for c in ".eE"):
                return ast.Literal(float(text))
            return ast.Literal(int(text))
        if tok.kind == "string":
            self.next()
            return ast.Literal(tok.value[1:-1].replace("''", "'"))
        if tok.kind == "keyword":
            if tok.value == "null":
                self.next()
                return ast.Literal(None)
            if tok.value in ("true", "false"):
                self.next()
                return ast.Literal(tok.value == "true")
            if tok.value == "case":
                return self._parse_case()
            if tok.value == "cast":
                self.next()
                self.expect("op", "(")
                operand = self._parse_expression()
                self.expect("keyword", "as")
                type_tok = self.next()
                self.expect("op", ")")
                return ast.Cast(operand, parse_type(type_tok.value))
        if tok.kind == "word":
            return self._parse_identifier_expr()
        raise SQLParseError(
            f"unexpected token {tok.value!r} in expression at offset {tok.pos}"
        )

    def _parse_case(self) -> ast.Expr:
        self.expect("keyword", "case")
        whens: List[Tuple[ast.Expr, ast.Expr]] = []
        default: Optional[ast.Expr] = None
        while self.accept_keyword("when"):
            cond = self._parse_expression()
            self.expect("keyword", "then")
            result = self._parse_expression()
            whens.append((cond, result))
        if self.accept_keyword("else"):
            default = self._parse_expression()
        self.expect("keyword", "end")
        if not whens:
            raise SQLParseError("CASE needs at least one WHEN branch")
        return ast.Case(tuple(whens), default)

    def _parse_identifier_expr(self) -> ast.Expr:
        name = self.next().value
        # Function call?
        if self.peek().kind == "op" and self.peek().value == "(":
            self.next()
            if self.peek().kind == "op" and self.peek().value == "*":
                self.next()
                self.expect("op", ")")
                return ast.FuncCall(name.lower(), (), star=True)
            distinct = bool(self.accept_keyword("distinct"))
            args: List[ast.Expr] = []
            if not (self.peek().kind == "op" and self.peek().value == ")"):
                args.append(self._parse_expression())
                while self.accept("op", ","):
                    args.append(self._parse_expression())
            self.expect("op", ")")
            return ast.FuncCall(name.lower(), tuple(args), distinct=distinct)
        # Array element access arr[e][e]?
        if self.peek().kind == "op" and self.peek().value == "[":
            save = self.idx
            indices: List[ast.Expr] = []
            ok = True
            while self.accept("op", "["):
                expr = self._parse_expression()
                if self.accept("op", ":"):
                    ok = False  # That's a slice, not element access.
                    break
                if not self.accept("op", "]"):
                    ok = False
                    break
                indices.append(expr)
            if ok and indices:
                return ast.ArrayElement(name, tuple(indices))
            self.idx = save
        # Qualified column?
        if self.accept("op", "."):
            col = self.expect_identifier()
            return ast.ColumnRef(col, qualifier=name)
        return ast.ColumnRef(name)


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SciQL statement (trailing ``;`` allowed)."""
    return Parser(text).parse_statement()
