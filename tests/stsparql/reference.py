"""The row-wise reference evaluator the differential suites compare
the engine against.

:class:`ReferenceEvaluator` subclasses the engine's own
:class:`~repro.stsparql.columnar.ColumnarEvaluator` and keeps its
planner, probes, expressions and solution modifiers, but replaces the
columnar group operators with the plain per-row ones: bindings are one
dict per row, a BGP step extends each row by its matches (a ``VALUES``
step by its compatible data rows), OPTIONAL,
MINUS and ``FILTER (NOT) EXISTS`` evaluate their pattern once per row
(seeded with that row), and a subselect joins on shared variables.
Nothing in ``src/`` uses it; it is built here on the *same* graph as
the engine under test, wired to inference and the engine's R-tree
exactly like the engine wires its own evaluators.
"""

from typing import Dict, List, Optional, Set

from repro.rdf.inference import RDFSInference
from repro.rdf.namespace import RDF
from repro.rdf.term import Variable
from repro.stsparql import ast
from repro.stsparql.columnar import ColumnarEvaluator, _data_rows
from repro.stsparql.errors import ExpressionError, SparqlEvalError
from repro.stsparql.eval import (
    SolutionSet,
    _evaluable_filters,
    _explain_skipped,
    _explain_step,
    _filters_due,
    _pattern_variables,
    _Probe,
)
from repro.stsparql.functions import to_term
from repro.stsparql.parser import parse

Row = Dict[str, object]


class ReferenceEvaluator(ColumnarEvaluator):
    """The engine's evaluator with row-wise group operators."""

    # -- entry points --------------------------------------------------

    def select(self, query: ast.SelectQuery) -> SolutionSet:
        rows = self._eval_group(query.pattern, self._seed())
        return self._apply_modifiers(query, rows)

    def ask(self, query: ast.AskQuery) -> bool:
        return bool(self._eval_group(query.pattern, self._seed()))

    def update_bindings(self, pattern: ast.GroupGraphPattern) -> List[Row]:
        return self._eval_group(pattern, self._seed())

    def _seed(self) -> List[Row]:
        return [dict(row) for row in self.seeds]

    def _exists(self, expr: ast.ExistsExpr, row: Row) -> bool:
        return bool(self._eval_group(expr.pattern, [dict(row)]))

    # -- group graph patterns -----------------------------------------

    def _eval_group(
        self, pattern: ast.GroupGraphPattern, input_rows: List[Row]
    ) -> List[Row]:
        rows = input_rows
        elements = list(pattern.elements)
        # Pre-collect filters so BGP evaluation can use them for
        # pruning and spatial index assists.
        group_filters = [e for e in elements if isinstance(e, ast.Filter)]
        applied: Set[int] = set()
        for element in elements:
            self._check_deadline()
            if isinstance(element, ast.BGP):
                rows = self._eval_bgp(element, rows, group_filters, applied)
            elif isinstance(element, ast.Filter):
                if id(element) in applied:
                    continue
                rows = [
                    row
                    for row in rows
                    if self._filter_passes(element.expression, row)
                ]
                applied.add(id(element))
            elif isinstance(element, ast.Optional_):
                rows = self._eval_optional(element.pattern, rows)
            elif isinstance(element, ast.UnionPattern):
                left = self._eval_group(element.left, rows)
                right = self._eval_group(element.right, rows)
                rows = left + right
            elif isinstance(element, ast.Bind):
                new_rows: List[Row] = []
                for row in rows:
                    row = dict(row)
                    try:
                        value = self._eval_expr(element.expression, row)
                        row[element.variable.name] = to_term(value)
                    except ExpressionError:
                        pass
                    new_rows.append(row)
                rows = new_rows
            elif isinstance(element, ast.MinusPattern):
                rows = [
                    row
                    for row in rows
                    if not self._eval_group(element.pattern, [dict(row)])
                ]
            elif isinstance(element, ast.GroupGraphPattern):
                rows = self._eval_group(element, rows)
            elif isinstance(element, ast.SubSelect):
                rows = self._join_subselect(element.query, rows)
            else:  # pragma: no cover - parser prevents this
                raise SparqlEvalError(f"unknown element {element!r}")
        return rows

    def _eval_optional(
        self, pattern: ast.GroupGraphPattern, rows: List[Row]
    ) -> List[Row]:
        # Memoise the subplan on the bindings of the variables the
        # optional pattern mentions.
        relevant = sorted(_pattern_variables(pattern))
        cache: Dict[tuple, List[Row]] = {}
        out: List[Row] = []
        for row in rows:
            key = tuple((name, row[name]) for name in relevant if name in row)
            matches = cache.get(key)
            if matches is None:
                matches = self._eval_group(pattern, [dict(key)])
                cache[key] = matches
            if matches:
                for match in matches:
                    merged = _merge(row, match)
                    if merged is not None:
                        out.append(merged)
            else:
                out.append(row)
        return out

    def _join_subselect(
        self, query: ast.SelectQuery, rows: List[Row]
    ) -> List[Row]:
        sub = self.select(query)
        out: List[Row] = []
        for row in rows:
            for sub_row in sub.rows:
                merged = _merge(row, sub_row)
                if merged is not None:
                    out.append(merged)
        return out

    # -- BGP evaluation -----------------------------------------------

    def _eval_bgp(
        self,
        bgp: ast.BGP,
        rows: List[Row],
        group_filters: List[ast.Filter],
        applied: Set[int],
    ) -> List[Row]:
        domain: Set[str] = set(rows[0]) if rows else set()
        ordered, explained = self._order_patterns(bgp, domain, group_filters)
        star = self._star_checks(bgp, group_filters)
        for step, pattern in enumerate(ordered):
            self._check_deadline()
            next_rows: List[Row] = []
            if isinstance(pattern, ast.InlineData):
                # A VALUES block: each row joined with every data row
                # it is compatible with (UNDEF cells bind nothing).
                probe = _Probe()
                data = _data_rows(pattern)
                for row in rows:
                    for values in data:
                        merged = _merge(row, values)
                        if merged is not None:
                            next_rows.append(merged)
            else:
                probe = self._probe(pattern, star, domain)
                for row in rows:
                    restriction = self._spatial_restriction(
                        pattern, row, group_filters
                    )
                    next_rows.extend(
                        self._match_triple(pattern, row, restriction, probe)
                    )
            rows = next_rows
            domain = set(rows[0]) if rows else set()
            if rows and _filters_due(ordered, step, domain):
                for f in _evaluable_filters(group_filters, applied, domain):
                    rows = [
                        r for r in rows if self._filter_passes(f.expression, r)
                    ]
                    applied.add(id(f))
            if explained is not None:
                _explain_step(explained, len(rows), probe)
            if not rows:
                break
        if explained is not None:
            _explain_skipped(explained, len(ordered))
        return rows

    def _match_triple(
        self,
        pattern: ast.TriplePattern,
        row: Row,
        object_restriction: Optional[set],
        probe: _Probe,
    ):
        def resolve_term(term):
            if isinstance(term, Variable):
                return row.get(term.name)
            return term

        s = resolve_term(pattern.subject)
        p = resolve_term(pattern.predicate)
        o = resolve_term(pattern.object)
        if self.inference is not None and p == RDF.type:
            candidates = self._inferred_types(s, o)
        elif object_restriction is not None and o is None:
            term = self.graph.term_for_id
            candidates = (
                (term(si), term(pi), term(oi))
                for si, pi, oi in self._restricted_triples(
                    s, p, object_restriction, probe
                )
            )
        else:
            candidates = self.graph.triples(s, p, o)
        slots = (pattern.subject, pattern.predicate, pattern.object)
        for triple in candidates:
            new_row = dict(row)
            for var_term, value in zip(slots, triple):
                if isinstance(var_term, Variable):
                    existing = new_row.get(var_term.name)
                    if existing is None:
                        new_row[var_term.name] = value
                    elif existing != value:
                        break
            else:
                yield new_row


def _merge(a: Row, b: Row) -> Optional[Row]:
    merged = dict(a)
    for key, value in b.items():
        existing = merged.get(key)
        if existing is None:
            merged[key] = value
        elif existing != value:
            return None
    return merged


def reference_evaluator(
    engine, explain_log=None, initial=None
) -> ReferenceEvaluator:
    evaluator = ReferenceEvaluator(
        engine.graph,
        inference=RDFSInference(engine.graph),
        spatial_candidates=engine.spatial_candidates,
        initial=initial,
    )
    evaluator.explain_log = explain_log
    return evaluator


def reference_select(engine, text):
    return reference_evaluator(engine).select(parse(text))


def reference_ask(engine, text):
    return reference_evaluator(engine).ask(parse(text))
