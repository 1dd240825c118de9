"""What the stSPARQL engine's operators share.

:class:`Evaluator` is everything but the group-pattern operators, which
:class:`~repro.stsparql.columnar.ColumnarEvaluator` runs over id
columns: the greedy join planner, the type and R-tree probes, the
expression evaluator and the solution modifiers.  Expressions and
modifiers work on plain ``dict[str, Term]`` rows (the columnar engine
hands them one distinct binding combination at a time).

The group semantics they serve: joins flow bindings left to right, a
filter is applied inside a BGP once all its variables are in scope,
before the next pattern that binds a new variable (patterns that only
check bound variables — ``?m a gag:Dhmos`` with ``?m`` bound — run
first: filters bind nothing, so the rows are the same and the cheap
membership probe spares an exact spatial test), and otherwise where the
group lists it; a ``VALUES`` block is one more relation of the BGP it
is written among, joined where the planner places it; OPTIONAL is a
left join, MINUS and ``FILTER (NOT)
EXISTS`` evaluate their pattern under each row's bindings, subselects
evaluate independently and join on shared variables.

Spatial-join acceleration: when a triple pattern's object variable feeds a
pending spatial-predicate filter whose other argument is already bound to a
geometry, candidate objects are fetched from the engine's R-tree over
geometry literals instead of scanning every matching triple — this is the
Strabon behaviour the paper's Figure 8 measures.  A probe with an unbound
subject tests each candidate holder against the rest of its star (the
other mandatory patterns on that subject in the BGP, and comparison
FILTERs on their objects) before it becomes a row: a necessary condition,
so the solutions are unchanged (:class:`_Probe`).
"""

from __future__ import annotations

import json
import time
from typing import (
    AbstractSet,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
    Union,
)

from repro.geometry import Geometry
from repro.rdf.graph import Graph
from repro.rdf.namespace import RDF
from repro.rdf.term import Literal, Term, URI, Variable
from repro.stsparql import ast
from repro.stsparql.aggregates import resolve_aggregate
from repro.stsparql.errors import ExpressionError, QueryTimeoutError
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
#: A subject check: does the holder with this term id pass?
HolderTest = Callable[[int], bool]
#: One step of a BGP's join order: a triple pattern or a VALUES block.
Step = Union[ast.TriplePattern, ast.InlineData]
#: One subject check of a BGP star: the pattern it comes from, that
#: pattern's text (for EXPLAIN) and the test.
StarCheck = Tuple[ast.TriplePattern, str, HolderTest]

_COMPARISON_OPS = frozenset(("=", "!=", "<", "<=", ">", ">="))

#: Rows a loop that only copies rows (decoding, DISTINCT, result
#: encoding) handles between two deadline checks; a loop whose items
#: may each evaluate an expression or probe an index checks every item.
DEADLINE_BLOCK = 64

_T = TypeVar("_T")


def check_deadline(deadline: Optional[float]) -> None:
    """Raise :class:`QueryTimeoutError` once ``time.perf_counter()``
    has passed ``deadline`` (None: no deadline)."""
    if deadline is not None and time.perf_counter() > deadline:
        raise QueryTimeoutError("query exceeded its timeout budget")


def deadline_checked(
    items: Iterable[_T], deadline: Optional[float], block: int = 1
) -> Iterable[_T]:
    """``items``, with ``deadline`` checked before every ``block`` of
    them; ``items`` itself when there is no deadline, so an unbounded
    loop pays nothing."""
    if deadline is None:
        return items
    return _checked(items, deadline, block)


def _checked(
    items: Iterable[_T], deadline: float, block: int
) -> Iterator[_T]:
    clock = time.perf_counter
    for i, item in enumerate(items):
        if not i % block and clock() > deadline:
            raise QueryTimeoutError("query exceeded its timeout budget")
        yield item


class _Probe:
    """One BGP step's R-tree probe.

    ``tests`` are the subject checks a candidate holder must pass
    before it becomes a row, ``texts`` the patterns they come from.
    ``used`` says whether the step went through the R-tree at all, and
    ``holders`` counts the candidate holders it examined (a bound
    subject counts once per probe), both for EXPLAIN.  The checks read
    only constants, so ``passing`` memoises, per ``(predicate,
    object)`` id pair, the holder triples that passed them: rows whose
    R-tree candidates overlap walk each shared literal's holders once.
    """

    __slots__ = ("tests", "texts", "holders", "used", "passing")

    def __init__(self, checks: Sequence[StarCheck] = ()) -> None:
        self.texts = [text for _, text, _ in checks]
        self.tests = [test for _, _, test in checks]
        self.holders = 0
        self.used = False
        self.passing: Dict[Tuple[Optional[int], int], List[Tuple]] = {}


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
        engine and its row-wise reference through this.
        """
        if not isinstance(other, SolutionSet):
            return NotImplemented
        if set(self.variables) != set(other.variables):
            return False
        if len(self.rows) != len(other.rows):
            return False
        return self._canonical_rows() == other._canonical_rows()

    __hash__ = None  # mutable container

    def to_sparql_json(self, deadline: Optional[float] = None) -> dict:
        """W3C SPARQL 1.1 Query Results JSON Format (a plain dict): the
        document :meth:`sparql_json_bytes` encodes."""
        return json.loads(self.sparql_json_bytes(deadline))

    def sparql_json_bytes(self, deadline: Optional[float] = None) -> bytes:
        """The W3C SPARQL 1.1 Query Results JSON document, encoded as
        ``json.dumps`` encodes it (``head``, then ``results``).

        Each distinct term is encoded once.  ``deadline`` (a
        ``time.perf_counter()`` value) is checked every block of rows:
        an encoding past it raises
        :class:`~repro.stsparql.errors.QueryTimeoutError`.
        """
        keys = [(name, json.dumps(name) + ": ") for name in self.variables]
        encoded: Dict[Term, str] = {}
        bindings: List[str] = []
        for row in deadline_checked(self.rows, deadline, DEADLINE_BLOCK):
            fields = []
            for name, key in keys:
                term = row.get(name)
                if term is None:
                    continue
                text = encoded.get(term)
                if text is None:
                    text = encoded[term] = json.dumps(_term_json(term))
                fields.append(key + text)
            bindings.append("{" + ", ".join(fields) + "}")
        head = json.dumps({"vars": self.variables})
        return (
            '{"head": ' + head + ', "results": {"bindings": ['
            + ", ".join(bindings) + "]}}"
        ).encode("utf-8")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SolutionSet {self.variables} x {len(self.rows)} rows>"


class Evaluator:
    """What evaluating a parsed query needs besides its group
    operators: the join planner, the type and R-tree probes, the
    expression evaluator and the solution modifiers.

    :class:`~repro.stsparql.columnar.ColumnarEvaluator` adds the group
    operators; a subclass supplies ``select`` / ``ask`` and
    :meth:`_exists`.

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
        #: value) set by the engine's ``timeout=``; checked by every
        #: operator, before each block of the rows it loops over.
        #: ``None`` means unbounded.
        self.deadline: Optional[float] = None
        # Per-evaluation memos of the probe subject checks: each BGP's
        # star, and each class's subclass closure as term ids.
        self._stars: Dict[int, Dict[str, List[StarCheck]]] = {}
        self._class_ids: Dict[Term, Set[int]] = {}

    def _check_deadline(self) -> None:
        check_deadline(self.deadline)

    def _checked(self, items: Iterable[_T], block: int = 1) -> Iterable[_T]:
        """``items`` under this evaluation's deadline
        (:func:`deadline_checked`)."""
        return deadline_checked(items, self.deadline, block)

    # -- solution modifiers ----------------------------------------------

    def _apply_modifiers(
        self, query: ast.SelectQuery, rows: List[Row]
    ) -> SolutionSet:
        """SPARQL's solution-modifier order (§18.2.4): the SELECT
        expressions extend each solution, ORDER BY sorts the extended
        solutions (so a key need not be projected), then projection,
        DISTINCT and the OFFSET/LIMIT slice."""
        uses_aggregates = query.group_by or any(
            _contains_aggregate(p.expression)
            for p in query.projections
            if p.expression is not None
        )
        # Only a sort needs the unprojected variables kept past the
        # SELECT expressions; SELECT * keeps them anyway.
        extend = bool(query.order_by) and not query.select_star
        if uses_aggregates:
            out_rows = self._evaluate_grouped(query, rows, extend)
        else:
            out_rows = self._evaluate_plain(query, rows, extend)
        variables = self._header(query, rows)
        if query.order_by:
            out_rows = self._order(out_rows, query.order_by)
        if extend:
            out_rows = [
                {v: row[v] for v in variables if v in row}
                for row in self._checked(out_rows, DEADLINE_BLOCK)
            ]
        return self._finalise(query, out_rows, variables)

    def _finalise(
        self,
        query: ast.SelectQuery,
        out_rows: List[Row],
        variables: List[str],
    ) -> SolutionSet:
        """DISTINCT / OFFSET / LIMIT over projected, ordered rows."""
        if query.distinct:
            seen: Set[Tuple] = set()
            deduped: List[Row] = []
            for row in self._checked(out_rows, DEADLINE_BLOCK):
                key = tuple((v, row.get(v)) for v in variables)
                if key not in seen:
                    seen.add(key)
                    deduped.append(row)
            out_rows = deduped
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
            for row in self._checked(rows, DEADLINE_BLOCK):
                for name in row:
                    if name not in names:
                        names.append(name)
            return names
        return [p.variable.name for p in query.projections]

    def _evaluate_plain(
        self, query: ast.SelectQuery, rows: List[Row], extend: bool
    ) -> List[Row]:
        """Each row's SELECT bindings: the projection, or with
        ``extend`` the whole solution extended by them."""
        if query.select_star:
            return rows
        out: List[Row] = []
        for row in self._checked(rows):
            new_row: Row = dict(row) if extend else {}
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
        self, query: ast.SelectQuery, rows: List[Row], extend: bool
    ) -> List[Row]:
        """One row per kept group: its SELECT bindings, with ``extend``
        after the group key's variables."""
        groups: Dict[Tuple, List[Row]] = {}
        if query.group_by:
            for row in self._checked(rows):
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
        for key, group_rows in self._checked(groups.items()):
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
            new_row: Row = dict(rep) if extend else {}
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
        # Each key's ranks are computed once, under the deadline; then
        # the row indices are stable-sorted by one key at a time, last
        # key first, so each key only breaks the ties of those before it.
        ranks: List[List[Any]] = [[] for _ in conditions]
        for row in self._checked(rows):
            for column, cond in zip(ranks, conditions):
                column.append(_order_rank_safe(self, cond, row))
        ordered = list(range(len(rows)))
        for column, cond in reversed(list(zip(ranks, conditions))):
            ordered.sort(key=column.__getitem__, reverse=cond.descending)
        return [rows[i] for i in ordered]

    # -- filters ---------------------------------------------------------

    def _filter_passes(self, expression: ast.Expression, row: Row) -> bool:
        try:
            return effective_boolean(self._eval_expr(expression, row))
        except ExpressionError:
            return False

    # -- BGP planning ------------------------------------------------------

    def _order_patterns(
        self,
        bgp: ast.BGP,
        bound: Set[str],
        group_filters: List[ast.Filter],
    ) -> Tuple[List[Step], Optional[dict]]:
        """Greedy selectivity ordering, shared by both engines.

        Repeatedly picks the cheapest remaining step — a triple pattern
        or one of the BGP's ``VALUES`` blocks — given the variables
        bound so far (:meth:`_estimate`).  When the evaluator
        carries an ``explain_log``, the chosen order and the estimates
        that drove it are recorded there in an entry (returned as the
        second element; None when not explaining) whose per-step lists
        the caller fills (:func:`_explain_step`): ``actual_rows``, the
        rows leaving each step, and for a step that went through the
        R-tree ``probe_holders``, the candidate holders it examined,
        and ``probe_checks``, the subject checks pushed into it (None
        for other steps).
        """
        remaining: List[Step] = [*bgp.triples, *bgp.values]
        spatial_pairs = _spatial_filter_pairs(group_filters)
        bound = set(bound)
        ordered: List[Step] = []
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
        if self.explain_log is None:
            return ordered, None
        entry = {
            "operator": "bgp",
            "join_order": [_pattern_text(p) for p in ordered],
            "estimates": estimates,
            "actual_rows": [],
            "probe_holders": [],
            "probe_checks": [],
        }
        self.explain_log.append(entry)
        return ordered, entry

    def _estimate(
        self,
        pattern: Step,
        bound: Set[str],
        spatial_pairs: Sequence[Tuple[str, str]] = (),
    ) -> int:
        if isinstance(pattern, ast.InlineData):
            # A VALUES block joins on a bound column like a pattern on
            # a bound subject; otherwise every row it holds multiplies
            # the batch, like a pattern on a fresh subject with that
            # many matches.  So it follows a star anchored on bound
            # subjects, and leads an unanchored one it is smaller than.
            shared = any(v.name in bound for v in pattern.columns)
            return (0 if shared else 4000) + min(len(pattern.rows), 999)
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
        self,
        s: Optional[Term],
        p: Optional[Term],
        restriction: Set[Term],
        probe: _Probe,
    ) -> Iterator[Tuple[int, int, int]]:
        """``(s, p, ?o)`` matches whose object is an R-tree candidate,
        as term ids.

        A bound subject walks its own (few) objects and keeps those in
        the restriction, so its cost never depends on how many
        geometries the probe region holds.  An unbound one walks each
        candidate object's holders on ids, once per probe, and yields
        only those that pass every subject check of ``probe``.
        """
        probe.used = True
        graph = self.graph
        pi = None
        if p is not None:
            pi = graph.term_id(p)
            if pi is None:
                return
        if s is not None:
            probe.holders += 1
            si = graph.term_id(s)
            if si is None:
                return
            term = graph.term_for_id
            for triple in graph.triples_ids(si, pi, None):
                if term(triple[2]) in restriction:
                    yield triple
            return
        tests = probe.tests
        passing = probe.passing
        # In id order, not the set's: the order of the matches (and so
        # of the inserts an update derives from them) must follow the
        # data, never the hash or memory layout of the process.
        restricted = sorted(
            oi for oi in map(graph.term_id, restriction) if oi is not None
        )
        for oi in self._checked(restricted):
            hits = passing.get((pi, oi))
            if hits is None:
                hits = []
                for triple in graph.triples_ids(None, pi, oi):
                    probe.holders += 1
                    si = triple[0]
                    for test in tests:
                        if not test(si):
                            break
                    else:
                        hits.append(triple)
                passing[(pi, oi)] = hits
            yield from hits

    # -- probe subject checks ------------------------------------------

    def _probe(
        self,
        pattern: ast.TriplePattern,
        star: Dict[str, List[StarCheck]],
        domain: Set[str],
    ) -> _Probe:
        """The probe for one BGP step: the checks of its subject's star
        other than the step's own pattern, when the subject is still
        unbound (a bound subject walks its own objects instead)."""
        subject = pattern.subject
        if not isinstance(subject, Variable) or subject.name in domain:
            return _Probe()
        return _Probe(
            [check for check in star.get(subject.name, ())
             if check[0] is not pattern]
        )

    def _star_checks(
        self, bgp: ast.BGP, group_filters: List[ast.Filter]
    ) -> Dict[str, List[StarCheck]]:
        """Subject variable -> the checks its mandatory patterns in
        ``bgp`` imply, memoised per evaluation.

        Only patterns with a constant predicate count, and only the
        comparison FILTERs of the enclosing group
        (:func:`_object_filters`).  Every check is a necessary condition
        of a conjunct the BGP still evaluates, so a holder that fails
        one has no solution and the solutions are unchanged.  The
        checks with the fewest passing subjects run first.
        """
        star = self._stars.get(id(bgp))
        if star is None:
            filters = _object_filters(group_filters, self.constants)
            star = {}
            sizes: Dict[int, int] = {}
            for pattern in bgp.triples:
                subject = pattern.subject
                if not isinstance(subject, Variable) or isinstance(
                    pattern.predicate, Variable
                ):
                    continue
                test = self._subject_test(pattern, filters)
                if test is not None:
                    star.setdefault(subject.name, []).append(
                        (pattern, _pattern_text(pattern), test)
                    )
                    sizes[id(pattern)] = self._check_size(pattern)
            for checks in star.values():
                checks.sort(key=lambda check: sizes[id(check[0])])
            self._stars[id(bgp)] = star
        return star

    def _check_size(self, pattern: ast.TriplePattern) -> int:
        """About how many subjects pass ``pattern``'s subject check:
        the triples it names, a class's whole closure under
        inference."""
        obj = pattern.object
        if isinstance(obj, Variable):
            obj = self.constants.get(obj.name)
        if (
            obj is not None
            and self.inference is not None
            and pattern.predicate == RDF.type
        ):
            return self._typed_count(obj)
        return self.graph.count(None, pattern.predicate, obj)

    def _typed_count(self, cls: Term) -> int:
        """Asserted ``rdf:type`` triples naming ``cls`` or a subclass,
        off index counts."""
        graph = self.graph
        ti = graph.term_id(RDF.type)
        if ti is None:
            return 0
        return sum(
            graph.count_ids(None, ti, ci) for ci in self._subclass_ids(cls)
        )

    def _subject_test(
        self,
        pattern: ast.TriplePattern,
        filters: Dict[str, List[ast.Expression]],
    ) -> Optional[HolderTest]:
        """An O(1) id-level test every solution's subject passes.

        * ``?x rdf:type C`` under inference: an asserted type of x lies
          in ``{C} ∪ subclasses(C)``;
        * ``?x q c`` (a constant, or a parameter with one value in
          every seed row): ``c ∈ objects(x, q)``;
        * ``?x q ?v``: x has a q-object that passes every comparison
          FILTER on ``?v`` (just "has a q-object" without any).
        """
        graph = self.graph
        objects = graph.object_ids
        obj = pattern.object
        if isinstance(obj, Variable):
            if obj.name == pattern.subject.name:
                return None
            obj = self.constants.get(obj.name, obj)
        pi = graph.term_id(pattern.predicate)
        if pi is None:
            return _never
        if self.inference is not None and pattern.predicate == RDF.type:
            if isinstance(obj, Variable):
                # Inferred types are superclasses of asserted ones, so
                # a FILTER on them cannot be read off asserted objects.
                return lambda si: bool(objects(si, pi))
            classes = self._subclass_ids(obj)
            return lambda si: not classes.isdisjoint(objects(si, pi))
        if not isinstance(obj, Variable):
            oi = graph.term_id(obj)
            if oi is None:
                return _never
            return lambda si: oi in objects(si, pi)
        name = obj.name
        exprs = filters.get(name)
        if not exprs:
            return lambda si: bool(objects(si, pi))
        passing: List[AbstractSet[int]] = []

        def passes(si: int) -> bool:
            if not passing:
                # Lazily, once per evaluation: the first probe that
                # reaches this check runs the FILTERs over q's distinct
                # objects through the engine's own evaluator, which
                # keeps their error semantics.
                passing.append(self._passing_objects(pi, name, exprs))
            return not passing[0].isdisjoint(objects(si, pi))

        return passes

    def _passing_objects(
        self, pi: int, name: str, exprs: Sequence[ast.Expression]
    ) -> Set[int]:
        """Ids of the distinct objects of predicate ``pi`` that pass
        every expression with ``?name`` bound to them."""
        graph = self.graph
        row = dict(self.constants)
        out: Set[int] = set()
        for oi in self._checked(graph.object_ids(None, pi)):
            row[name] = graph.term_for_id(oi)
            if all(self._filter_passes(e, row) for e in exprs):
                out.add(oi)
        return out

    def _subclass_ids(self, cls: Term) -> Set[int]:
        """Term ids of ``cls`` and its subclasses (once per evaluation)."""
        ids = self._class_ids.get(cls)
        if ids is None:
            graph = self.graph
            ids = {
                tid
                for tid in map(
                    graph.term_id, {cls, *self.inference.subclasses(cls)}
                )
                if tid is not None
            }
            self._class_ids[cls] = ids
        return ids

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
            exists = self._exists(expr, row)
            return not exists if expr.negated else exists
        raise ExpressionError(f"unknown expression {expr!r}")

    def _exists(self, expr: ast.ExistsExpr, row: Row) -> bool:
        """Whether ``expr``'s pattern has a solution extending ``row``."""
        raise NotImplementedError

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
        for row in self._checked(group_rows):
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


def _pattern_text(pattern: Step) -> str:
    if isinstance(pattern, ast.InlineData):
        names = " ".join(v.n3() for v in pattern.columns)
        return f"VALUES ({names}) [{len(pattern.rows)} rows]"
    return " ".join(
        term.n3()
        for term in (pattern.subject, pattern.predicate, pattern.object)
    )


def _numeric(value: Value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ExpressionError(f"not a number: {value!r}")
    return value


def _pattern_variables(pattern: ast.GroupGraphPattern) -> Set[str]:
    """All variable names mentioned anywhere inside a group pattern."""
    out: Set[str] = set()

    def walk_pattern(p: ast.PatternElement) -> None:
        if isinstance(p, ast.BGP):
            for step in (*p.triples, *p.values):
                for var in step.variables():
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
    ordered: Sequence[Step], step: int, domain: Set[str]
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


def _explain_step(entry: dict, rows: int, probe: _Probe) -> None:
    """Record one executed BGP step in its EXPLAIN entry."""
    entry["actual_rows"].append(rows)
    entry["probe_holders"].append(probe.holders if probe.used else None)
    entry["probe_checks"].append(list(probe.texts) if probe.used else None)


def _explain_skipped(entry: dict, steps: int) -> None:
    """Pad an EXPLAIN entry for the steps an empty one skipped."""
    for key, fill in (
        ("actual_rows", 0),
        ("probe_holders", None),
        ("probe_checks", None),
    ):
        entry[key].extend([fill] * (steps - len(entry[key])))


def _never(si: int) -> bool:
    return False


def _object_filters(
    group_filters: List[ast.Filter], constants: Row
) -> Dict[str, List[ast.Expression]]:
    """Variable -> the comparison conjuncts of the group's FILTERs that
    read nothing else but constants and the parameters in
    ``constants``.

    A conjunct counts when it is ``= != < <= > >=`` between ``?v`` or
    ``str(?v)`` and constants or such parameters — the shape of the
    ``str(?pTime) >= str(?__window_start)`` windows.  Function filters,
    spatial predicates above all, are deliberately left out: the R-tree
    already serves those, and evaluating one over every distinct object
    costs more than it saves.
    """
    out: Dict[str, List[ast.Expression]] = {}
    for f in group_filters:
        for conjunct in _conjuncts(f.expression):
            name = _compared_variable(conjunct, constants)
            if name is not None:
                out.setdefault(name, []).append(conjunct)
    return out


def _conjuncts(expr: ast.Expression) -> List[ast.Expression]:
    if isinstance(expr, ast.BinaryExpr) and expr.op == "&&":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _compared_variable(
    expr: ast.Expression, constants: Row
) -> Optional[str]:
    """The one variable a simple comparison reads, or None."""
    if not (
        isinstance(expr, ast.BinaryExpr) and expr.op in _COMPARISON_OPS
    ):
        return None
    names: Set[str] = set()
    for side in (expr.left, expr.right):
        if (
            isinstance(side, ast.FunctionCall)
            and side.name == "str"
            and len(side.args) == 1
        ):
            side = side.args[0]
        if not isinstance(side, ast.TermExpr):
            return None
        term = side.term
        if isinstance(term, Variable) and term.name not in constants:
            names.add(term.name)
    return names.pop() if len(names) == 1 else None


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
    if isinstance(value, URI):
        # By the IRI string: its N3 form's closing ">" would sort
        # noa:s2 after noa:s23.
        return (4, value.value)
    return (4, str(value))


def _order_rank_safe(evaluator: Evaluator, cond: ast.OrderCondition, row: Row):
    try:
        return _order_rank(evaluator._eval_expr(cond.expression, row))
    except ExpressionError:
        return (0, "")
