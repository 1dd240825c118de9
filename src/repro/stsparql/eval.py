"""The stSPARQL evaluator.

Bindings are plain ``dict[str, Term]`` rows.  The evaluator walks group
graph patterns sequentially — joins flow bindings left to right, a filter
is applied inside a BGP once all its variables are in scope, before the
next pattern that binds a new variable (patterns that only check bound
variables — ``?m a gag:Dhmos`` with ``?m`` bound — run first: filters
bind nothing, so the rows are the same and the cheap membership probe
spares an exact spatial test), and otherwise where the group lists it;
OPTIONAL is a left join, subselects evaluate independently and join on
shared variables.

Spatial-join acceleration: when a triple pattern's object variable feeds a
pending spatial-predicate filter whose other argument is already bound to a
geometry, candidate objects are fetched from the engine's R-tree over
geometry literals instead of scanning every matching triple — this is the
Strabon behaviour the paper's Figure 8 measures.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.geometry import Geometry
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.term import Literal, Term, URI, Variable
from repro.stsparql import ast
from repro.stsparql.aggregates import resolve_aggregate
from repro.stsparql.errors import ExpressionError, SparqlEvalError
from repro.stsparql.functions import (
    SPATIAL_PREDICATE_NAMES,
    as_geometry,
    compare,
    effective_boolean,
    resolve,
    to_term,
    to_value,
)

Row = Dict[str, Term]
Value = Any


class SolutionSet:
    """An ordered bag of solution rows with a stable variable header."""

    def __init__(self, variables: Sequence[str], rows: List[Row]) -> None:
        self.variables = list(variables)
        self.rows = rows
        self._var_index: Optional[Dict[str, int]] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    @property
    def variable_index(self) -> Dict[str, int]:
        """Header name -> position, built once per solution set."""
        index = self._var_index
        if index is None:
            index = {name: i for i, name in enumerate(self.variables)}
            self._var_index = index
        return index

    def column(self, name: str) -> List[Optional[Term]]:
        name = name.lstrip("?")
        if name not in self.variable_index:
            raise KeyError(
                f"no variable ?{name} in solution header {self.variables}"
            )
        return [row.get(name) for row in self.rows]

    def as_tuples(self) -> List[Tuple[Optional[Term], ...]]:
        variables = self.variables
        return [
            tuple(row.get(v) for v in variables) for row in self.rows
        ]

    def _canonical_rows(self) -> List[Tuple]:
        """Order-insensitive fingerprint: one sortable key per row."""
        names = sorted(self.variable_index)
        keys = []
        for row in self.rows:
            key = []
            for name in names:
                term = row.get(name)
                if term is None:
                    key.append(("", ""))
                else:
                    key.append((type(term).__name__, term.n3()))
            keys.append(tuple(key))
        keys.sort()
        return keys

    def __eq__(self, other: object) -> bool:
        """Same variables and the same multiset of rows.

        Row *order* is deliberately ignored — without ORDER BY it is an
        implementation detail, and the differential harness compares the
        interpreted and columnar engines through this.
        """
        if not isinstance(other, SolutionSet):
            return NotImplemented
        if set(self.variables) != set(other.variables):
            return False
        if len(self.rows) != len(other.rows):
            return False
        return self._canonical_rows() == other._canonical_rows()

    __hash__ = None  # mutable container

    def to_sparql_json(self) -> dict:
        """W3C SPARQL 1.1 Query Results JSON Format (a plain dict)."""
        bindings = []
        for row in self.rows:
            encoded = {}
            for name in self.variables:
                term = row.get(name)
                if term is None:
                    continue
                encoded[name] = _term_json(term)
            bindings.append(encoded)
        return {
            "head": {"vars": list(self.variables)},
            "results": {"bindings": bindings},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SolutionSet {self.variables} x {len(self.rows)} rows>"


class Evaluator:
    """Evaluates parsed queries against a graph.

    ``spatial_candidates`` (optional) is a callable mapping a geometry to
    the set of geometry literals whose envelope intersects it — supplied by
    the engine from its R-tree.

    ``initial`` (optional) pre-binds variables before evaluation — the
    parameter mechanism behind the engine's plan cache: templated
    requests keep a constant text (the cache key) and receive their
    per-acquisition values (timestamps, window bounds) as bindings.
    It is one row, or a sequence of rows binding the same variables
    (SPARQL ``VALUES``): evaluation starts from those seed rows, and
    since every operator but a subselect acts row by row, the pattern
    solutions are the multiset union of the per-row ones.  It is
    evaluator state rather than a per-call seed so subselects, which
    re-enter :meth:`select`, see the same parameters.
    """

    #: Reported by EXPLAIN output and engine metrics.
    engine_name = "interpreted"

    def __init__(
        self,
        graph: Graph,
        inference=None,
        spatial_candidates=None,
        initial: Union[Row, Sequence[Row], None] = None,
    ) -> None:
        self.graph = graph
        self.inference = inference
        self.spatial_candidates = spatial_candidates
        if initial is None or isinstance(initial, Mapping):
            initial = [initial or {}]
        #: The seed rows every evaluation starts from.
        self.seeds: List[Row] = [dict(row) for row in initial]
        #: Variables bound to one value in every seed row: constants
        #: for the whole evaluation, and estimated as such.
        first = self.seeds[0] if self.seeds else {}
        self.constants: Row = {
            name: term
            for name, term in first.items()
            if all(row.get(name) == term for row in self.seeds)
        }
        #: When set (to a list) by the engine, every BGP evaluation
        #: appends its chosen join order and cardinality estimates.
        self.explain_log: Optional[List[dict]] = None
        #: Cooperative evaluation deadline (``time.perf_counter()``
        #: value) set by the engine's ``timeout=``; checked between
        #: operators, ``None`` means unbounded.
        self.deadline: Optional[float] = None

    def _seed(self) -> List[Row]:
        return [dict(row) for row in self.seeds]

    def _check_deadline(self) -> None:
        if self.deadline is not None:
            import time

            if time.perf_counter() > self.deadline:
                from repro.stsparql.errors import QueryTimeoutError

                raise QueryTimeoutError(
                    "query exceeded its timeout budget"
                )

    # -- public entry points ------------------------------------------------

    def select(self, query: ast.SelectQuery) -> SolutionSet:
        rows = self._eval_group(query.pattern, self._seed())
        return self._apply_modifiers(query, rows)

    def ask(self, query: ast.AskQuery) -> bool:
        rows = self._eval_group(query.pattern, self._seed())
        return bool(rows)

    def update_bindings(
        self, pattern: ast.GroupGraphPattern
    ) -> List[Row]:
        return self._eval_group(pattern, self._seed())

    # -- solution modifiers ----------------------------------------------

    def _apply_modifiers(
        self, query: ast.SelectQuery, rows: List[Row]
    ) -> SolutionSet:
        uses_aggregates = query.group_by or any(
            _contains_aggregate(p.expression)
            for p in query.projections
            if p.expression is not None
        )
        if uses_aggregates:
            out_rows = self._evaluate_grouped(query, rows)
        else:
            out_rows = self._evaluate_plain(query, rows)
        variables = self._header(query, rows)
        return self._finalise(query, out_rows, variables)

    def _finalise(
        self,
        query: ast.SelectQuery,
        out_rows: List[Row],
        variables: List[str],
    ) -> SolutionSet:
        """DISTINCT / ORDER BY / OFFSET / LIMIT over projected rows."""
        if query.distinct:
            seen: Set[Tuple] = set()
            deduped: List[Row] = []
            for row in out_rows:
                key = tuple((v, row.get(v)) for v in variables)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            out_rows = deduped
        if query.order_by:
            out_rows = self._order(out_rows, query.order_by)
        if query.offset:
            out_rows = out_rows[query.offset:]
        if query.limit is not None:
            out_rows = out_rows[: query.limit]
        return SolutionSet(variables, out_rows)

    def _header(
        self, query: ast.SelectQuery, rows: List[Row]
    ) -> List[str]:
        if query.select_star:
            names: List[str] = []
            for row in rows:
                for name in row:
                    if name not in names:
                        names.append(name)
            return names
        return [p.variable.name for p in query.projections]

    def _evaluate_plain(
        self, query: ast.SelectQuery, rows: List[Row]
    ) -> List[Row]:
        if query.select_star:
            return rows
        out: List[Row] = []
        for row in rows:
            new_row: Row = {}
            for proj in query.projections:
                if proj.expression is None:
                    term = row.get(proj.variable.name)
                    if term is not None:
                        new_row[proj.variable.name] = term
                else:
                    try:
                        value = self._eval_expr(proj.expression, row)
                        new_row[proj.variable.name] = to_term(value)
                    except ExpressionError:
                        pass
            out.append(new_row)
        return out

    def _evaluate_grouped(
        self, query: ast.SelectQuery, rows: List[Row]
    ) -> List[Row]:
        groups: Dict[Tuple, List[Row]] = {}
        if query.group_by:
            for row in rows:
                key = []
                for expr in query.group_by:
                    try:
                        key.append(to_term(self._eval_expr(expr, row)))
                    except ExpressionError:
                        key.append(None)
                groups.setdefault(tuple(key), []).append(row)
        else:
            groups[()] = rows
        out: List[Row] = []
        for key, group_rows in groups.items():
            base: Row = dict(group_rows[0]) if group_rows else {}
            # Restrict the representative row to the grouping variables so
            # non-key variables never leak out of a group.
            rep: Row = {}
            for expr, term in zip(query.group_by, key):
                if isinstance(expr, ast.TermExpr) and isinstance(
                    expr.term, Variable
                ) and term is not None:
                    rep[expr.term.name] = term
            del base
            keep = True
            for having in query.having:
                try:
                    value = self._eval_expr(having, rep, group_rows)
                    if not effective_boolean(value):
                        keep = False
                        break
                except ExpressionError:
                    keep = False
                    break
            if not keep:
                continue
            new_row: Row = {}
            for proj in query.projections:
                if proj.expression is None:
                    term = rep.get(proj.variable.name)
                    if term is None and group_rows:
                        term = group_rows[0].get(proj.variable.name)
                    if term is not None:
                        new_row[proj.variable.name] = term
                else:
                    try:
                        value = self._eval_expr(
                            proj.expression, rep, group_rows
                        )
                        new_row[proj.variable.name] = to_term(value)
                    except ExpressionError:
                        pass
            out.append(new_row)
        return out

    def _order(
        self, rows: List[Row], conditions: Sequence[ast.OrderCondition]
    ) -> List[Row]:
        def key(row: Row):
            parts = []
            for cond in conditions:
                try:
                    value = self._eval_expr(cond.expression, row)
                    rank = _order_rank(value)
                except ExpressionError:
                    rank = (0, "")
                parts.append(rank)
            return parts

        ordered = sorted(rows, key=key)
        for i, cond in enumerate(conditions):
            if cond.descending:
                # Stable multi-key descending sort: resort on that key.
                ordered = sorted(
                    ordered,
                    key=lambda r, c=cond: _order_rank_safe(self, c, r),
                    reverse=True,
                )
        return ordered

    # -- graph patterns ----------------------------------------------------

    def _eval_group(
        self, pattern: ast.GroupGraphPattern, input_rows: List[Row]
    ) -> List[Row]:
        rows = input_rows
        deferred: List[ast.Filter] = []
        elements = list(pattern.elements)
        # Pre-collect filters so BGP evaluation can use them for pruning and
        # spatial index assists.
        group_filters = [e for e in elements if isinstance(e, ast.Filter)]
        applied: Set[int] = set()
        for element in elements:
            self._check_deadline()
            if isinstance(element, ast.BGP):
                rows = self._eval_bgp(
                    element, rows, group_filters, applied
                )
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
        # Many input rows share the same bindings for the variables the
        # optional pattern actually mentions (e.g. one hotspot's geometry
        # repeated across its property rows), so memoise the subplan on
        # that projection.
        relevant = _pattern_variables(pattern)
        cache: Dict[Tuple, List[Row]] = {}
        out: List[Row] = []
        for row in rows:
            key = tuple(
                (name, row[name]) for name in sorted(relevant) if name in row
            )
            matches = cache.get(key)
            if matches is None:
                seed = {name: value for name, value in key}
                matches = self._eval_group(pattern, [seed])
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

    def _filter_passes(self, expression: ast.Expression, row: Row) -> bool:
        try:
            return effective_boolean(self._eval_expr(expression, row))
        except ExpressionError:
            return False

    # -- BGP evaluation ----------------------------------------------------

    def _eval_bgp(
        self,
        bgp: ast.BGP,
        rows: List[Row],
        group_filters: List[ast.Filter],
        applied: Set[int],
    ) -> List[Row]:
        bound: Set[str] = set()
        for row in rows[:1]:
            bound |= set(row)
        ordered, actual = self._order_patterns(bgp, bound, group_filters)
        for step, pattern in enumerate(ordered):
            self._check_deadline()
            next_rows: List[Row] = []
            for row in rows:
                restriction = self._spatial_restriction(
                    pattern, row, group_filters
                )
                for match in self._match_triple(pattern, row, restriction):
                    next_rows.append(match)
            rows = next_rows
            domain = set(rows[0]) if rows else set()
            if rows and _filters_due(ordered, step, domain):
                for f in _evaluable_filters(group_filters, applied, domain):
                    rows = [
                        r
                        for r in rows
                        if self._filter_passes(f.expression, r)
                    ]
                    applied.add(id(f))
            if actual is not None:
                actual.append(len(rows))
            if not rows:
                break
        if actual is not None:
            actual.extend([0] * (len(ordered) - len(actual)))
        return rows

    def _order_patterns(
        self,
        bgp: ast.BGP,
        bound: Set[str],
        group_filters: List[ast.Filter],
    ) -> Tuple[List[ast.TriplePattern], Optional[List[int]]]:
        """Greedy selectivity ordering, shared by both engines.

        Repeatedly picks the cheapest remaining pattern given the
        variables bound so far (:meth:`_estimate`).  When the evaluator
        carries an ``explain_log``, the chosen order and the estimates
        that drove it are recorded there, with an ``actual_rows`` list
        the caller fills with the rows leaving each step (returned as
        the second element; None when not explaining).
        """
        remaining = list(bgp.triples)
        spatial_pairs = _spatial_filter_pairs(group_filters)
        bound = set(bound)
        ordered: List[ast.TriplePattern] = []
        estimates: List[int] = []
        while remaining:
            best_idx = min(
                range(len(remaining)),
                key=lambda i: self._estimate(
                    remaining[i], bound, spatial_pairs
                ),
            )
            pattern = remaining.pop(best_idx)
            estimates.append(
                self._estimate(pattern, bound, spatial_pairs)
            )
            ordered.append(pattern)
            bound |= {v.name for v in pattern.variables()}
        actual: Optional[List[int]] = None
        if self.explain_log is not None:
            actual = []
            self.explain_log.append(
                {
                    "operator": "bgp",
                    "engine": self.engine_name,
                    "join_order": [
                        _pattern_text(p) for p in ordered
                    ],
                    "estimates": estimates,
                    "actual_rows": actual,
                }
            )
        return ordered, actual

    def _estimate(
        self,
        pattern: ast.TriplePattern,
        bound: Set[str],
        spatial_pairs: Sequence[Tuple[str, str]] = (),
    ) -> int:
        # A parameter with one value in every seed row is a constant
        # for the whole evaluation, so it estimates like the constant
        # it stands for; one that varies plans as a bound column.
        def resolved(term: Term) -> Optional[Term]:
            if isinstance(term, Variable):
                if term.name in self.constants:
                    return self.constants[term.name]
                return None if term.name not in bound else term
            return term

        s = resolved(pattern.subject)
        p = resolved(pattern.predicate)
        o = resolved(pattern.object)
        score = 0
        if s is None:
            score += 4
        if p is None:
            score += 2
        if o is None:
            score += 1
        # Prefer patterns with constant predicate and some constant term;
        # a constant (p, o) pair gives the precise matching cardinality
        # (e.g. "?h noa:hasAcquisitionDateTime <t>" is very selective).
        if isinstance(pattern.predicate, URI):
            if o is not None and not isinstance(o, Variable):
                cardinality = self.graph.count(None, pattern.predicate, o)
            else:
                cardinality = self.graph.count(None, pattern.predicate, None)
            score = score * 1000 + min(cardinality, 999)
        else:
            score = score * 1000 + 999
        # An unbound object variable constrained by a spatial filter whose
        # other argument is already bound will be matched through the
        # R-tree — treat it as highly selective.
        if (
            self.spatial_candidates is not None
            and isinstance(pattern.object, Variable)
            and pattern.object.name not in bound
        ):
            for a, b in spatial_pairs:
                other = b if pattern.object.name == a else (
                    a if pattern.object.name == b else None
                )
                if other is not None and other in bound:
                    score -= 3000
                    break
        return score

    def _match_triple(
        self,
        pattern: ast.TriplePattern,
        row: Row,
        object_restriction: Optional[Set[Term]],
    ) -> Iterator[Row]:
        def resolve_term(term: Term) -> Optional[Term]:
            if isinstance(term, Variable):
                return row.get(term.name)
            return term

        s = resolve_term(pattern.subject)
        p = resolve_term(pattern.predicate)
        o = resolve_term(pattern.object)
        if self.inference is not None and p == RDF.type:
            candidates: Iterable = self._inferred_types(s, o)
        elif object_restriction is not None and o is None:
            candidates = self._restricted_triples(s, p, object_restriction)
        else:
            candidates = self.graph.triples(s, p, o)
        for ts, tp, to in candidates:
            new_row = dict(row)
            ok = True
            for var_term, value in (
                (pattern.subject, ts),
                (pattern.predicate, tp),
                (pattern.object, to),
            ):
                if isinstance(var_term, Variable):
                    existing = new_row.get(var_term.name)
                    if existing is None:
                        new_row[var_term.name] = value
                    elif existing != value:
                        ok = False
                        break
            if ok:
                yield new_row

    def _inferred_types(
        self, s: Optional[Term], o: Optional[Term]
    ) -> Iterable[Tuple[Term, Term, Term]]:
        """``rdf:type`` matches under inference for whichever of subject
        and object the row has bound (None = unbound).

        The bound *values* pick the probe, not whether the query wrote a
        constant or a variable, so every join order sees the same
        entailed types.
        """
        inference = self.inference
        if o is None:
            return inference.type_triples(s)
        if s is None:
            return (
                (subj, RDF.type, o) for subj in inference.instances_of(o)
            )
        return ((s, RDF.type, o),) if inference.has_type(s, o) else ()

    def _restricted_triples(
        self, s: Optional[Term], p: Optional[Term], restriction: Set[Term]
    ) -> Iterable[Tuple[Term, Term, Term]]:
        """``(s, p, ?o)`` matches whose object is an R-tree candidate.

        A bound subject walks its own (few) objects and keeps those in
        the restriction, so its cost never depends on how many
        geometries the probe region holds; an unbound one probes each
        candidate object.
        """
        if s is not None:
            return (
                triple
                for triple in self.graph.triples(s, p, None)
                if triple[2] in restriction
            )
        return (
            triple
            for obj in restriction
            for triple in self.graph.triples(None, p, obj)
        )

    def _spatial_restriction(
        self,
        pattern: ast.TriplePattern,
        row: Row,
        group_filters: List[ast.Filter],
    ) -> Optional[Set[Term]]:
        """R-tree candidates for the object var of ``pattern``, if a pending
        spatial filter constrains it against an already-bound geometry."""
        if self.spatial_candidates is None:
            return None
        if not isinstance(pattern.object, Variable):
            return None
        target = pattern.object.name
        if target in row:
            return None
        for f in group_filters:
            probe = _spatial_probe(f.expression, target, row)
            if probe is not None:
                try:
                    return self.spatial_candidates(probe)
                except Exception:
                    return None
        return None

    # -- expressions ---------------------------------------------------------

    def _eval_expr(
        self,
        expr: ast.Expression,
        row: Row,
        group_rows: Optional[List[Row]] = None,
    ) -> Value:
        if isinstance(expr, ast.TermExpr):
            term = expr.term
            if isinstance(term, Variable):
                bound_term = row.get(term.name)
                if bound_term is None:
                    raise ExpressionError(f"unbound variable ?{term.name}")
                return to_value(bound_term)
            return to_value(term)
        if isinstance(expr, ast.UnaryExpr):
            if expr.op == "!":
                return not effective_boolean(
                    self._eval_expr(expr.operand, row, group_rows)
                )
            value = self._eval_expr(expr.operand, row, group_rows)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ExpressionError("unary +/- on a non-number")
            return -value if expr.op == "-" else value
        if isinstance(expr, ast.BinaryExpr):
            return self._eval_binary(expr, row, group_rows)
        if isinstance(expr, ast.FunctionCall):
            return self._eval_function(expr, row, group_rows)
        if isinstance(expr, ast.Aggregate):
            if group_rows is None:
                raise ExpressionError(
                    f"aggregate {expr.name} outside a grouped query"
                )
            return self._eval_aggregate(expr, group_rows)
        if isinstance(expr, ast.ExistsExpr):
            exists = bool(self._eval_group(expr.pattern, [dict(row)]))
            return not exists if expr.negated else exists
        raise ExpressionError(f"unknown expression {expr!r}")

    def _eval_binary(
        self,
        expr: ast.BinaryExpr,
        row: Row,
        group_rows: Optional[List[Row]],
    ) -> Value:
        op = expr.op
        if op == "||":
            left_err: Optional[ExpressionError] = None
            try:
                if effective_boolean(self._eval_expr(expr.left, row, group_rows)):
                    return True
            except ExpressionError as exc:
                left_err = exc
            right = effective_boolean(self._eval_expr(expr.right, row, group_rows))
            if right:
                return True
            if left_err is not None:
                raise left_err
            return False
        if op == "&&":
            left_err = None
            try:
                if not effective_boolean(
                    self._eval_expr(expr.left, row, group_rows)
                ):
                    return False
            except ExpressionError as exc:
                left_err = exc
            right = effective_boolean(self._eval_expr(expr.right, row, group_rows))
            if not right:
                return False
            if left_err is not None:
                raise left_err
            return True
        left = self._eval_expr(expr.left, row, group_rows)
        right = self._eval_expr(expr.right, row, group_rows)
        if op in ("=", "!=", "<", "<=", ">", ">="):
            return compare(op, left, right)
        if op in ("+", "-", "*", "/"):
            lnum = _numeric(left)
            rnum = _numeric(right)
            if op == "+":
                return lnum + rnum
            if op == "-":
                return lnum - rnum
            if op == "*":
                return lnum * rnum
            if rnum == 0:
                raise ExpressionError("division by zero")
            return lnum / rnum
        raise ExpressionError(f"unknown operator {op!r}")

    def _eval_function(
        self,
        expr: ast.FunctionCall,
        row: Row,
        group_rows: Optional[List[Row]],
    ) -> Value:
        if expr.name == "bound":
            if len(expr.args) != 1 or not isinstance(
                expr.args[0], ast.TermExpr
            ) or not isinstance(expr.args[0].term, Variable):
                raise ExpressionError("bound() needs a single variable")
            return expr.args[0].term.name in row
        if expr.name == "coalesce":
            args: List[Value] = []
            for arg in expr.args:
                try:
                    args.append(self._eval_expr(arg, row, group_rows))
                except ExpressionError:
                    args.append(None)
            return resolve("coalesce")(args)
        impl = resolve(expr.name)
        values = [self._eval_expr(a, row, group_rows) for a in expr.args]
        try:
            return impl(values)
        except ExpressionError:
            raise
        except Exception as exc:
            raise ExpressionError(str(exc)) from exc

    def _eval_aggregate(
        self, expr: ast.Aggregate, group_rows: List[Row]
    ) -> Value:
        impl = resolve_aggregate(expr.name)
        if expr.arg is None:  # COUNT(*)
            return impl([1] * len(group_rows), expr.distinct)
        values: List[Value] = []
        for row in group_rows:
            try:
                values.append(self._eval_expr(expr.arg, row))
            except ExpressionError:
                continue
        return impl(values, expr.distinct)


# -- helpers ------------------------------------------------------------------


def _term_json(term: Term) -> dict:
    """Encode one RDF term per the SPARQL results JSON spec."""
    from repro.rdf.term import BNode

    if isinstance(term, URI):
        return {"type": "uri", "value": term.value}
    if isinstance(term, BNode):
        return {"type": "bnode", "value": term.label}
    assert isinstance(term, Literal)
    out: dict = {"type": "literal", "value": term.lexical}
    if term.language:
        out["xml:lang"] = term.language
    elif term.datatype:
        out["datatype"] = term.datatype
    return out


def _pattern_text(pattern: ast.TriplePattern) -> str:
    return " ".join(
        term.n3()
        for term in (pattern.subject, pattern.predicate, pattern.object)
    )


def _numeric(value: Value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExpressionError(f"not a number: {value!r}")
    return value


def _merge(a: Row, b: Row) -> Optional[Row]:
    merged = dict(a)
    for key, value in b.items():
        existing = merged.get(key)
        if existing is None:
            merged[key] = value
        elif existing != value:
            return None
    return merged


def _pattern_variables(pattern: ast.GroupGraphPattern) -> Set[str]:
    """All variable names mentioned anywhere inside a group pattern."""
    out: Set[str] = set()

    def walk_pattern(p: ast.PatternElement) -> None:
        if isinstance(p, ast.BGP):
            for triple in p.triples:
                for var in triple.variables():
                    out.add(var.name)
        elif isinstance(p, ast.Filter):
            out.update(_expr_variables(p.expression))
        elif isinstance(p, ast.Optional_):
            walk_pattern(p.pattern)
        elif isinstance(p, ast.UnionPattern):
            walk_pattern(p.left)
            walk_pattern(p.right)
        elif isinstance(p, ast.Bind):
            out.update(_expr_variables(p.expression))
            out.add(p.variable.name)
        elif isinstance(p, ast.MinusPattern):
            walk_pattern(p.pattern)
        elif isinstance(p, ast.GroupGraphPattern):
            for element in p.elements:
                walk_pattern(element)
        elif isinstance(p, ast.SubSelect):
            for proj in p.query.projections:
                out.add(proj.variable.name)
            walk_pattern(p.query.pattern)

    walk_pattern(pattern)
    return out


def _expr_variables(expr: ast.Expression) -> Set[str]:
    out: Set[str] = set()

    def walk(e: ast.Expression) -> None:
        if isinstance(e, ast.TermExpr):
            if isinstance(e.term, Variable):
                out.add(e.term.name)
        elif isinstance(e, ast.UnaryExpr):
            walk(e.operand)
        elif isinstance(e, ast.BinaryExpr):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, ast.FunctionCall):
            for a in e.args:
                walk(a)
        elif isinstance(e, ast.Aggregate) and e.arg is not None:
            walk(e.arg)
        elif isinstance(e, ast.ExistsExpr):
            out.update(_pattern_variables(e.pattern))

    walk(expr)
    return out


def _contains_aggregate(expr: ast.Expression) -> bool:
    if isinstance(expr, ast.Aggregate):
        return True
    if isinstance(expr, ast.UnaryExpr):
        return _contains_aggregate(expr.operand)
    if isinstance(expr, ast.BinaryExpr):
        return _contains_aggregate(expr.left) or _contains_aggregate(expr.right)
    if isinstance(expr, ast.FunctionCall):
        return any(_contains_aggregate(a) for a in expr.args)
    return False


def _contains_bound_call(expr: ast.Expression) -> bool:
    if isinstance(expr, ast.FunctionCall):
        if expr.name == "bound":
            return True
        return any(_contains_bound_call(a) for a in expr.args)
    if isinstance(expr, ast.UnaryExpr):
        return _contains_bound_call(expr.operand)
    if isinstance(expr, ast.BinaryExpr):
        return _contains_bound_call(expr.left) or _contains_bound_call(
            expr.right
        )
    return False


def _filters_due(
    ordered: Sequence[ast.TriplePattern], step: int, domain: Set[str]
) -> bool:
    """Whether filters that are evaluable after BGP step ``step`` run now.

    They wait while the next pattern only checks variables already in
    ``domain`` (a membership probe, cheaper than most filters), and run
    before the next pattern that binds a new variable or at the end of
    the BGP.  Filters bind nothing, so either way the rows are the same.
    """
    if step + 1 == len(ordered):
        return True
    return any(
        v.name not in domain for v in ordered[step + 1].variables()
    )


def _evaluable_filters(
    group_filters: List[ast.Filter], applied: Set[int], domain: Set[str]
) -> List[ast.Filter]:
    """Group filters not yet applied whose variables are all in
    ``domain`` (``bound()`` tests wait for their place in the group)."""
    return [
        f
        for f in group_filters
        if id(f) not in applied
        and _expr_variables(f.expression) <= domain
        and not _contains_bound_call(f.expression)
    ]


def _spatial_filter_pairs(
    group_filters: List[ast.Filter],
) -> List[Tuple[str, str]]:
    """(var, var) argument pairs of spatial-predicate filters in a group."""
    pairs: List[Tuple[str, str]] = []

    def walk(expr: ast.Expression) -> None:
        if isinstance(expr, ast.BinaryExpr) and expr.op == "&&":
            walk(expr.left)
            walk(expr.right)
            return
        if (
            isinstance(expr, ast.FunctionCall)
            and expr.name in SPATIAL_PREDICATE_NAMES
            and len(expr.args) == 2
        ):
            names = []
            for arg in expr.args:
                if isinstance(arg, ast.TermExpr) and isinstance(
                    arg.term, Variable
                ):
                    names.append(arg.term.name)
            if len(names) == 2:
                pairs.append((names[0], names[1]))

    for f in group_filters:
        walk(f.expression)
    return pairs


def _spatial_probe(
    expr: ast.Expression, target_var: str, row: Row
) -> Optional[Geometry]:
    """If ``expr`` (or a conjunct of it) is a spatial predicate over
    ``target_var`` and a bound/constant geometry, return that geometry."""
    if isinstance(expr, ast.BinaryExpr) and expr.op == "&&":
        return _spatial_probe(expr.left, target_var, row) or _spatial_probe(
            expr.right, target_var, row
        )
    if not isinstance(expr, ast.FunctionCall):
        return None
    if expr.name not in SPATIAL_PREDICATE_NAMES or len(expr.args) != 2:
        return None
    sides = []
    for arg in expr.args:
        if isinstance(arg, ast.TermExpr):
            sides.append(arg.term)
        else:
            return None
    names = [
        t.name if isinstance(t, Variable) else None for t in sides
    ]
    if target_var not in names:
        return None
    other = sides[1] if names[0] == target_var else sides[0]
    if isinstance(other, Variable):
        bound_term = row.get(other.name)
        if bound_term is None:
            return None
        other = bound_term
    try:
        return as_geometry(to_value(other))
    except ExpressionError:
        return None


def _order_rank(value: Value):
    if isinstance(value, bool):
        return (1, str(value))
    if isinstance(value, (int, float)):
        return (2, float(value))
    if isinstance(value, str):
        return (3, value)
    return (4, str(value))


def _order_rank_safe(evaluator: Evaluator, cond: ast.OrderCondition, row: Row):
    try:
        return _order_rank(evaluator._eval_expr(cond.expression, row))
    except ExpressionError:
        return (0, "")
