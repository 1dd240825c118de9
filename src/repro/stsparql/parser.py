"""Recursive-descent parser for the stSPARQL dialect.

Accepts the query and update language used throughout the paper: SELECT
(with DISTINCT, expression projections, GROUP BY / HAVING with spatial
aggregates, ORDER BY, LIMIT/OFFSET, OPTIONAL, UNION, BIND, inline
``VALUES`` blocks, subqueries), ASK, and the update forms DELETE/INSERT
... WHERE and INSERT/DELETE DATA.

The parser is deliberately lenient about stray ``.`` separators after
FILTERs — the queries printed in the paper use that style.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Tuple

from repro.rdf.namespace import RDF, WELL_KNOWN_PREFIXES, XSD
from repro.rdf.term import Literal, Term, URI, Variable
from repro.stsparql import ast
from repro.stsparql.errors import SparqlParseError
from repro.stsparql.lexer import Token, tokenize

_AGGREGATE_KEYWORDS = {
    "count",
    "sum",
    "avg",
    "min",
    "max",
    "sample",
    "group_concat",
}

#: 1-argument strdf functions that act as *aggregates* in grouped queries.
SPATIAL_AGGREGATE_LOCALNAMES = {"union", "intersection", "extent"}

_BUILTIN_FUNCTIONS = {
    "bound",
    "str",
    "datatype",
    "lang",
    "langmatches",
    "regex",
    "abs",
    "ceil",
    "floor",
    "round",
    "sqrt",
    "concat",
    "strlen",
    "ucase",
    "lcase",
    "contains",
    "strstarts",
    "strends",
    "substr",
    "replace",
    "year",
    "month",
    "day",
    "hours",
    "minutes",
    "seconds",
    "uri",
    "iri",
    "isuri",
    "isiri",
    "isliteral",
    "isnumeric",
    "isblank",
    "if",
    "coalesce",
    "sameterm",
}


class Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.idx = 0
        self.prefixes: Dict[str, str] = dict(WELL_KNOWN_PREFIXES)

    # -- token plumbing ----------------------------------------------------

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

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value or kind
            raise SparqlParseError(
                f"expected {want!r} but found {tok.value!r} at offset {tok.pos}"
            )
        return tok

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "keyword" and tok.value in words

    # -- entry points ------------------------------------------------------

    def parse_query(self) -> ast.Query:
        self._parse_prologue()
        if self.at_keyword("select"):
            query = self._parse_select()
        elif self.at_keyword("ask"):
            query = self._parse_ask()
        elif self.at_keyword("construct"):
            query = self._parse_construct()
        elif self.at_keyword("delete", "insert"):
            query = self._parse_update()
        else:
            tok = self.peek()
            raise SparqlParseError(
                f"expected SELECT/ASK/CONSTRUCT/DELETE/INSERT, "
                f"found {tok.value!r}"
            )
        self.expect("eof")
        return query

    def _parse_prologue(self) -> None:
        while self.at_keyword("prefix", "base"):
            tok = self.next()
            if tok.value == "prefix":
                pname = self.expect("pname").value
                if not pname.endswith(":"):
                    raise SparqlParseError(f"bad PREFIX name {pname!r}")
                iri = self.expect("iri").value
                self.prefixes[pname[:-1]] = iri[1:-1]
            else:
                self.expect("iri")

    # -- SELECT / ASK --------------------------------------------------------

    def _parse_select(self) -> ast.SelectQuery:
        self.expect("keyword", "select")
        distinct = bool(self.accept("keyword", "distinct"))
        self.accept("keyword", "reduced")
        projections: List[ast.Projection] = []
        star = False
        while True:
            tok = self.peek()
            if tok.kind == "var":
                self.next()
                projections.append(ast.Projection(Variable(tok.value)))
            elif tok.kind == "op" and tok.value == "*" and not projections:
                self.next()
                star = True
                break
            elif tok.kind == "op" and tok.value == "(":
                self.next()
                expr = self._parse_expression()
                self.expect("keyword", "as")
                var = Variable(self.expect("var").value)
                self.expect("op", ")")
                projections.append(ast.Projection(var, expr))
            else:
                break
        if not star and not projections:
            raise SparqlParseError("SELECT needs projections or *")
        self.accept("keyword", "where")
        pattern = self._parse_group_graph_pattern()
        group_by: List[ast.Expression] = []
        having: List[ast.Expression] = []
        order_by: List[ast.OrderCondition] = []
        limit: Optional[int] = None
        offset = 0
        if self.at_keyword("group"):
            self.next()
            self.expect("keyword", "by")
            while True:
                tok = self.peek()
                if tok.kind == "var":
                    self.next()
                    group_by.append(ast.TermExpr(Variable(tok.value)))
                elif tok.kind == "op" and tok.value == "(":
                    self.next()
                    group_by.append(self._parse_expression())
                    self.expect("op", ")")
                else:
                    break
            if not group_by:
                raise SparqlParseError("GROUP BY needs at least one condition")
        if self.at_keyword("having"):
            self.next()
            while True:
                having.append(self._parse_constraint())
                if not (
                    self.peek().kind == "op"
                    and self.peek().value == "("
                    or self.peek().kind in ("pname", "iri")
                    or self.at_keyword(*_AGGREGATE_KEYWORDS)
                ):
                    break
        if self.at_keyword("order"):
            self.next()
            self.expect("keyword", "by")
            while True:
                tok = self.peek()
                if self.at_keyword("asc", "desc"):
                    kw = self.next().value
                    self.expect("op", "(")
                    expr = self._parse_expression()
                    self.expect("op", ")")
                    order_by.append(
                        ast.OrderCondition(expr, descending=kw == "desc")
                    )
                elif tok.kind == "var":
                    self.next()
                    order_by.append(
                        ast.OrderCondition(ast.TermExpr(Variable(tok.value)))
                    )
                else:
                    break
            if not order_by:
                raise SparqlParseError("ORDER BY needs at least one condition")
        if self.at_keyword("limit"):
            self.next()
            limit = int(self.expect("number").value)
        if self.at_keyword("offset"):
            self.next()
            offset = int(self.expect("number").value)
        if self.at_keyword("limit") and limit is None:
            self.next()
            limit = int(self.expect("number").value)
        return ast.SelectQuery(
            projections=tuple(projections),
            pattern=pattern,
            distinct=distinct,
            group_by=tuple(group_by),
            having=tuple(having),
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
        )

    def _parse_ask(self) -> ast.AskQuery:
        self.expect("keyword", "ask")
        self.accept("keyword", "where")
        return ast.AskQuery(self._parse_group_graph_pattern())

    def _parse_construct(self) -> ast.ConstructQuery:
        self.expect("keyword", "construct")
        template = self._parse_quad_template()
        self.expect("keyword", "where")
        pattern = self._parse_group_graph_pattern()
        limit = None
        offset = 0
        if self.at_keyword("limit"):
            self.next()
            limit = int(self.expect("number").value)
        if self.at_keyword("offset"):
            self.next()
            offset = int(self.expect("number").value)
        return ast.ConstructQuery(
            template=template, pattern=pattern, limit=limit, offset=offset
        )

    # -- updates ---------------------------------------------------------------

    def _parse_update(self) -> ast.UpdateRequest:
        delete_template: Tuple[ast.TriplePattern, ...] = ()
        insert_template: Tuple[ast.TriplePattern, ...] = ()
        where: Optional[ast.GroupGraphPattern] = None
        if self.at_keyword("delete"):
            self.next()
            if self.accept("keyword", "data"):
                return ast.UpdateRequest(
                    delete_template=self._parse_quad_template()
                )
            if self.at_keyword("where"):
                # DELETE WHERE { pattern } — template is the pattern itself.
                self.next()
                pattern = self._parse_group_graph_pattern()
                template = _pattern_as_template(pattern)
                return ast.UpdateRequest(
                    delete_template=template, where_pattern=pattern
                )
            delete_template = self._parse_quad_template()
        if self.at_keyword("insert"):
            self.next()
            if self.accept("keyword", "data"):
                return ast.UpdateRequest(
                    insert_template=self._parse_quad_template()
                )
            insert_template = self._parse_quad_template()
        self.expect("keyword", "where")
        where = self._parse_group_graph_pattern()
        return ast.UpdateRequest(
            delete_template=delete_template,
            insert_template=insert_template,
            where_pattern=where,
        )

    def _parse_quad_template(self) -> Tuple[ast.TriplePattern, ...]:
        self.expect("op", "{")
        triples = self._parse_triples_block()
        self.expect("op", "}")
        return tuple(triples)

    # -- graph patterns ----------------------------------------------------

    def _parse_group_graph_pattern(self) -> ast.GroupGraphPattern:
        self.expect("op", "{")
        elements: List[ast.PatternElement] = []
        pending_triples: List[ast.TriplePattern] = []
        pending_values: List[ast.InlineData] = []

        def flush() -> None:
            if pending_triples or pending_values:
                elements.append(
                    ast.BGP(tuple(pending_triples), tuple(pending_values))
                )
                pending_triples.clear()
                pending_values.clear()

        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "}":
                self.next()
                break
            if tok.kind == "eof":
                raise SparqlParseError("unterminated group pattern")
            if self.at_keyword("filter"):
                self.next()
                flush()
                elements.append(ast.Filter(self._parse_constraint()))
                self.accept("op", ".")
                continue
            if self.at_keyword("optional"):
                self.next()
                flush()
                elements.append(
                    ast.Optional_(self._parse_group_graph_pattern())
                )
                self.accept("op", ".")
                continue
            if self.at_keyword("minus"):
                self.next()
                flush()
                elements.append(
                    ast.MinusPattern(self._parse_group_graph_pattern())
                )
                self.accept("op", ".")
                continue
            if self.at_keyword("bind"):
                self.next()
                flush()
                self.expect("op", "(")
                expr = self._parse_expression()
                self.expect("keyword", "as")
                var = Variable(self.expect("var").value)
                self.expect("op", ")")
                elements.append(ast.Bind(expr, var))
                self.accept("op", ".")
                continue
            if self.at_keyword("values"):
                # Joined with the triples around it, as one BGP.
                pending_values.append(self._parse_inline_data())
                self.accept("op", ".")
                continue
            if self.at_keyword("select"):
                # Bare subselect as the group body (WHERE { SELECT ... }).
                flush()
                sub = self._parse_select()
                elements.append(ast.SubSelect(sub))
                self.accept("op", ".")
                continue
            if tok.kind == "op" and tok.value == "{":
                flush()
                # Subselect or nested group (possibly in a UNION chain).
                if (
                    self.peek(1).kind == "keyword"
                    and self.peek(1).value == "select"
                ):
                    self.next()
                    sub = self._parse_select()
                    self.expect("op", "}")
                    elements.append(ast.SubSelect(sub))
                    self.accept("op", ".")
                    continue
                left: ast.PatternElement = self._parse_group_graph_pattern()
                while self.at_keyword("union"):
                    self.next()
                    right = self._parse_group_graph_pattern()
                    assert isinstance(left, (ast.GroupGraphPattern, ast.UnionPattern))
                    left_group = (
                        left
                        if isinstance(left, ast.GroupGraphPattern)
                        else ast.GroupGraphPattern((left,))
                    )
                    left = ast.UnionPattern(left_group, right)
                elements.append(left)
                self.accept("op", ".")
                continue
            # Otherwise: triples.
            triples = self._parse_triples_same_subject()
            pending_triples.extend(triples)
            if not self.accept("op", "."):
                tok = self.peek()
                if tok.kind == "op" and tok.value == "}":
                    continue
        flush()
        return ast.GroupGraphPattern(tuple(elements))

    def _parse_inline_data(self) -> ast.InlineData:
        """``VALUES ?x { t ... }`` or ``VALUES (?x ?y) { (t t) ... }``."""
        self.expect("keyword", "values")
        single = self.peek().kind == "var"
        columns: List[Variable] = []
        if single:
            columns.append(Variable(self.next().value))
        else:
            self.expect("op", "(")
            while self.peek().kind == "var":
                columns.append(Variable(self.next().value))
            self.expect("op", ")")
        if len({c.name for c in columns}) != len(columns):
            raise SparqlParseError("VALUES names a variable twice")
        self.expect("op", "{")
        rows: List[Tuple[Optional[Term], ...]] = []
        while not self.accept("op", "}"):
            if single:
                rows.append((self._parse_data_value(),))
                continue
            start = self.expect("op", "(")
            row: List[Optional[Term]] = []
            while not self.accept("op", ")"):
                row.append(self._parse_data_value())
            if len(row) != len(columns):
                raise SparqlParseError(
                    f"VALUES row at offset {start.pos} has {len(row)} "
                    f"values for {len(columns)} variables"
                )
            rows.append(tuple(row))
        return ast.InlineData(tuple(columns), tuple(rows))

    def _parse_data_value(self) -> Optional[Term]:
        """One ``VALUES`` cell: an IRI, a literal, or None for UNDEF."""
        tok = self.peek()
        if self.accept("keyword", "undef"):
            return None
        if tok.kind in ("iri", "pname", "string", "number") or (
            tok.kind == "keyword" and tok.value in ("true", "false")
        ):
            return self._parse_graph_term()
        raise SparqlParseError(
            f"VALUES data must be IRIs, literals or UNDEF, found "
            f"{tok.value!r} at offset {tok.pos}"
        )

    def _parse_triples_block(self) -> List[ast.TriplePattern]:
        triples: List[ast.TriplePattern] = []
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value == "}":
                break
            triples.extend(self._parse_triples_same_subject())
            if not self.accept("op", "."):
                break
        return triples

    def _parse_triples_same_subject(self) -> List[ast.TriplePattern]:
        subject = self._parse_graph_term()
        triples: List[ast.TriplePattern] = []
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_graph_term()
                triples.append(ast.TriplePattern(subject, predicate, obj))
                if self.accept("op", ","):
                    continue
                break
            if self.accept("op", ";"):
                tok = self.peek()
                if tok.kind == "op" and tok.value in (".", "}"):
                    break
                continue
            break
        return triples

    def _parse_verb(self) -> Term:
        if self.at_keyword("a"):
            self.next()
            return RDF.type
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return Variable(tok.value)
        return self._parse_iri()

    def _parse_graph_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "var":
            self.next()
            return Variable(tok.value)
        if tok.kind == "iri":
            return self._parse_iri()
        if tok.kind == "pname":
            return self._parse_iri()
        if tok.kind == "string":
            return self._parse_rdf_literal()
        if tok.kind == "number":
            self.next()
            if re.search(r"[.eE]", tok.value):
                return Literal(tok.value, datatype=XSD.base + "double")
            return Literal(tok.value, datatype=XSD.base + "integer")
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self.next()
            return Literal(tok.value, datatype=XSD.base + "boolean")
        raise SparqlParseError(
            f"unexpected token {tok.value!r} at offset {tok.pos}"
        )

    def _parse_rdf_literal(self) -> Literal:
        raw = self.expect("string").value
        text = _unescape(raw[1:-1])
        if self.accept("dtype"):
            tok = self.peek()
            if tok.kind == "iri":
                self.next()
                return Literal(text, datatype=tok.value[1:-1])
            dt = self._parse_iri()
            return Literal(text, datatype=dt.value)
        lang = self.accept("lang")
        if lang:
            return Literal(text, language=lang.value[1:])
        return Literal(text)

    def _parse_iri(self) -> URI:
        tok = self.next()
        if tok.kind == "iri":
            return URI(tok.value[1:-1])
        if tok.kind == "pname":
            prefix, _, local = tok.value.partition(":")
            base = self.prefixes.get(prefix)
            if base is None:
                raise SparqlParseError(f"unknown prefix {prefix!r}")
            return URI(base + local)
        raise SparqlParseError(
            f"expected an IRI, found {tok.value!r} at offset {tok.pos}"
        )

    # -- expressions ---------------------------------------------------------

    def _parse_constraint(self) -> ast.Expression:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "(":
            self.next()
            expr = self._parse_expression()
            self.expect("op", ")")
            return expr
        return self._parse_primary()

    def _parse_expression(self) -> ast.Expression:
        return self._parse_or()

    def _parse_or(self) -> ast.Expression:
        left = self._parse_and()
        while self.peek().kind == "op" and self.peek().value == "||":
            self.next()
            left = ast.BinaryExpr("||", left, self._parse_and())
        return left

    def _parse_and(self) -> ast.Expression:
        left = self._parse_relational()
        while self.peek().kind == "op" and self.peek().value == "&&":
            self.next()
            left = ast.BinaryExpr("&&", left, self._parse_relational())
        return left

    def _parse_relational(self) -> ast.Expression:
        left = self._parse_additive()
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("=", "!=", "<", "<=", ">", ">="):
            self.next()
            right = self._parse_additive()
            return ast.BinaryExpr(tok.value, left, right)
        return left

    def _parse_additive(self) -> ast.Expression:
        left = self._parse_multiplicative()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in ("+", "-"):
                self.next()
                left = ast.BinaryExpr(
                    tok.value, left, self._parse_multiplicative()
                )
            elif tok.kind == "number" and tok.value[0] in "+-":
                # The lexer folded the sign into the number.
                self.next()
                num = ast.TermExpr(_number_literal(tok.value.lstrip("+-")))
                op = "+" if tok.value[0] == "+" else "-"
                left = ast.BinaryExpr(op, left, num)
            else:
                return left

    def _parse_multiplicative(self) -> ast.Expression:
        left = self._parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.value in ("*", "/"):
                self.next()
                left = ast.BinaryExpr(tok.value, left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> ast.Expression:
        tok = self.peek()
        if tok.kind == "op" and tok.value in ("!", "-", "+"):
            self.next()
            return ast.UnaryExpr(tok.value, self._parse_unary())
        return self._parse_primary()

    def _parse_primary(self) -> ast.Expression:
        tok = self.peek()
        if tok.kind == "op" and tok.value == "(":
            self.next()
            expr = self._parse_expression()
            self.expect("op", ")")
            return expr
        if tok.kind == "var":
            self.next()
            return ast.TermExpr(Variable(tok.value))
        if tok.kind == "string":
            return ast.TermExpr(self._parse_rdf_literal())
        if tok.kind == "number":
            self.next()
            return ast.TermExpr(_number_literal(tok.value))
        if tok.kind == "keyword" and tok.value in ("true", "false"):
            self.next()
            return ast.TermExpr(
                Literal(tok.value, datatype=XSD.base + "boolean")
            )
        if tok.kind == "keyword" and tok.value in _AGGREGATE_KEYWORDS:
            return self._parse_aggregate()
        if self.at_keyword("not"):
            self.next()
            self.expect("keyword", "exists")
            return ast.ExistsExpr(
                self._parse_group_graph_pattern(), negated=True
            )
        if self.at_keyword("exists"):
            self.next()
            return ast.ExistsExpr(self._parse_group_graph_pattern())
        if tok.kind == "word" and tok.value.lower() in _BUILTIN_FUNCTIONS:
            self.next()
            name = tok.value.lower()
            args = self._parse_arg_list()
            return ast.FunctionCall(name, tuple(args))
        if tok.kind in ("pname", "iri"):
            uri = self._parse_iri()
            if self.peek().kind == "op" and self.peek().value == "(":
                args = self._parse_arg_list()
                local = uri.local_name()
                if (
                    uri.value.startswith(
                        WELL_KNOWN_PREFIXES["strdf"]
                    )
                    and local.lower() in SPATIAL_AGGREGATE_LOCALNAMES
                    and len(args) == 1
                ):
                    # strdf:union(?g) is a spatial aggregate in grouped
                    # queries and a (disallowed) unary call otherwise; the
                    # evaluator decides based on context.
                    return ast.Aggregate(uri.value, args[0])
                return ast.FunctionCall(uri.value, tuple(args))
            return ast.TermExpr(uri)
        raise SparqlParseError(
            f"unexpected token {tok.value!r} in expression at offset {tok.pos}"
        )

    def _parse_aggregate(self) -> ast.Expression:
        name = self.next().value
        self.expect("op", "(")
        distinct = bool(self.accept("keyword", "distinct"))
        if self.peek().kind == "op" and self.peek().value == "*":
            self.next()
            self.expect("op", ")")
            return ast.Aggregate(name, None, distinct)
        arg = self._parse_expression()
        self.expect("op", ")")
        return ast.Aggregate(name, arg, distinct)

    def _parse_arg_list(self) -> List[ast.Expression]:
        self.expect("op", "(")
        args: List[ast.Expression] = []
        if not (self.peek().kind == "op" and self.peek().value == ")"):
            args.append(self._parse_expression())
            while self.accept("op", ","):
                args.append(self._parse_expression())
        self.expect("op", ")")
        return args


def _number_literal(text: str) -> Literal:
    if re.search(r"[.eE]", text):
        return Literal(text, datatype=XSD.base + "double")
    return Literal(text, datatype=XSD.base + "integer")


_ESCAPES = {"t": "\t", "n": "\n", "r": "\r", '"': '"', "'": "'", "\\": "\\"}


def _unescape(text: str) -> str:
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            out.append(_ESCAPES.get(text[i + 1], text[i + 1]))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _pattern_as_template(
    pattern: ast.GroupGraphPattern,
) -> Tuple[ast.TriplePattern, ...]:
    triples: List[ast.TriplePattern] = []
    for element in pattern.elements:
        if isinstance(element, ast.BGP) and not element.values:
            triples.extend(element.triples)
        else:
            raise SparqlParseError(
                "DELETE WHERE supports only plain triple patterns"
            )
    return tuple(triples)


def parse(text: str) -> ast.Query:
    """Parse stSPARQL text into an AST."""
    return Parser(text).parse_query()


class FilterLiteralParser(Parser):
    """A parser that notes where FILTER expressions hold literals.

    After :meth:`parse_query`, ``spans`` holds the ``(start, end)`` text
    offsets of the literal constants in the query's FILTER expressions
    (EXISTS patterns' FILTERs included).  Each span is a whole
    expression operand — a string with its datatype or language tag, a
    number with its sign, ``true`` or ``false`` — so putting a variable
    bound to the same term in its place keeps the query's meaning.  A
    number whose sign the parser folds into a binary ``+``/``-``
    (``?x -1``) is not an operand and has no span.
    """

    def __init__(self, text: str) -> None:
        super().__init__(text)
        self.spans: List[Tuple[int, int]] = []
        self._filters = 0

    def _parse_constraint(self) -> ast.Expression:
        self._filters += 1
        try:
            return super()._parse_constraint()
        finally:
            self._filters -= 1

    def _parse_primary(self) -> ast.Expression:
        first = self.peek()
        expr = super()._parse_primary()
        if self._filters and (
            first.kind in ("string", "number")
            or (first.kind == "keyword" and first.value in ("true", "false"))
        ):
            last = self.tokens[self.idx - 1]
            self.spans.append((first.pos, last.pos + len(last.value)))
        return expr
