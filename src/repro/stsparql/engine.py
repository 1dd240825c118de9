"""The Strabon facade: a geospatial RDF store with an stSPARQL endpoint.

One endpoint implementation serves both the live store
(:class:`Strabon`, which adds loading and updates) and the frozen,
read-only :class:`SnapshotView` the serving tier publishes.  It wraps a
:class:`~repro.rdf.graph.Graph` (or a snapshot of one) with

* an stSPARQL query/update endpoint (``query`` on both classes,
  :meth:`Strabon.update`): SELECT, ASK, CONSTRUCT and update ``WHERE``
  clauses all run on the columnar operators of
  :class:`~repro.stsparql.columnar.ColumnarEvaluator`,
* a parsed-request **plan cache** keyed on request text: templated
  requests (the refinement operations) parse once and re-run with
  per-acquisition values supplied as *parameters* — pre-bound variables
  handed to the evaluator (``query(text, params={"__ts": ...})``, or a
  list of such mappings evaluated as one ``VALUES`` batch),
* a spatial index over geometry literals, fed from the graph's
  append-only geometry log as a short stack of bulk-loaded R-tree runs
  (a mutation that adds no geometry leaves it untouched), used for
  index-assisted spatial joins (candidate sets are memoised in a bounded
  LRU keyed on probe-geometry identity and the index they came from),
* optional RDFS subclass inference (needed by the CLC taxonomy queries),
* simple per-query statistics (:attr:`Strabon.last_stats`).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import SnapshotWriteError
from repro.geometry import Envelope, Geometry
from repro.obs import get_metrics, get_tracer
from repro.geometry.rtree import RTree
from repro.perf.lru import LRUCache
from repro.rdf.graph import Graph, GraphSnapshot
from repro.rdf.inference import RDFSInference
from repro.rdf.term import URI, Literal, Term, Variable
from repro.rdf.turtle import parse_turtle
from repro.stsparql import ast
from repro.stsparql.columnar import ColumnarEvaluator
from repro.stsparql.errors import ExpressionError, SparqlEvalError
from repro.stsparql.eval import (
    DEADLINE_BLOCK,
    Row,
    SolutionSet,
    deadline_checked,
)
from repro.stsparql.functions import to_term
from repro.stsparql.parser import parse

_tracer = get_tracer()
_metrics = get_metrics()

#: Parsed request plans kept per endpoint.
PLAN_CACHE_SIZE = 256
#: R-tree candidate sets kept per endpoint.
CANDIDATE_CACHE_SIZE = 4096

#: Request parameters: one mapping of variable name to value, or a
#: sequence of such mappings (SPARQL ``VALUES`` rows).
Params = Union[Mapping[str, object], Sequence[Mapping[str, object]]]


@dataclass
class QueryStats:
    """Timing and cardinality of the most recent operation."""

    operation: str = ""
    parse_seconds: float = 0.0
    eval_seconds: float = 0.0
    rows: int = 0
    triples_added: int = 0
    triples_removed: int = 0

    @property
    def total_seconds(self) -> float:
        return self.parse_seconds + self.eval_seconds


@dataclass
class UpdateResult:
    """Outcome of an update request."""

    removed: int = 0
    added: int = 0


def _parse_via_cache(cache: LRUCache, text: str):
    """Parse ``text`` through a shared plan cache; returns (plan, hit).

    Parsed ASTs are immutable to the evaluator, so one plan may serve
    every execution of the same request text — including concurrent
    executions against different snapshots (the cache is thread-safe).
    """
    parsed = cache.get(text)
    hit = parsed is not None
    if not hit:
        parsed = parse(text)
        cache.put(text, parsed)
    if _metrics.enabled:
        if hit:
            _metrics.counter(
                "stsparql_plan_cache_hits_total",
                "stSPARQL requests answered from the plan cache",
            ).inc()
        else:
            _metrics.counter(
                "stsparql_plan_cache_misses_total",
                "stSPARQL requests parsed from text",
            ).inc()
    return parsed, hit


def _param_rows(params: Optional[Params]) -> Optional[List[Row]]:
    """Normalise ``params`` — one mapping or a sequence of them — to
    the evaluator's seed rows."""
    if params is None:
        return None
    mappings = [params] if isinstance(params, Mapping) else list(params)
    rows: List[Row] = []
    for mapping in mappings:
        if not isinstance(mapping, Mapping):
            raise SparqlEvalError(
                "params must be a mapping or a sequence of mappings"
            )
        row: Row = {}
        for name, value in mapping.items():
            try:
                row[name.lstrip("?$")] = to_term(value)
            except ExpressionError as exc:
                raise SparqlEvalError(
                    f"parameter {name!r}: {exc}"
                ) from None
        rows.append(row)
    if any(row.keys() != rows[0].keys() for row in rows):
        raise SparqlEvalError(
            "every params mapping must bind the same variables"
        )
    return rows


#: A new run absorbs the newest existing run while that run holds at
#: most this many times its entries.  Every run therefore stays more
#: than twice the size of the next — O(log n) runs — and a literal is
#: re-packed O(log n) times over its life (binary-counter merging).
_MERGE_RATIO = 2


class _LogIndex:
    """An immutable spatial index over the geometry-log positions
    ``[0, indexed)`` of one log epoch: bulk-loaded R-tree runs over
    ``(envelope, literal)`` entries, oldest (and largest) first.

    Every pack drops literals that no triple holds any more.  Until its
    run is re-packed such a stale candidate is harmless: candidates are
    joined against the graph's actual triples and the exact spatial
    predicate still runs.  ``generation`` is the graph generation of
    the latest pack: the index holds every literal a triple held then.
    """

    __slots__ = ("epoch", "indexed", "runs", "generation")

    def __init__(
        self,
        epoch: int,
        indexed: int,
        runs: Tuple[RTree, ...],
        generation: int,
    ) -> None:
        self.epoch = epoch
        self.indexed = indexed
        self.runs = runs
        self.generation = generation

    def covers(self, graph) -> bool:
        return (
            self.epoch == graph.geometry_epoch
            and self.indexed == graph.geometry_term_count()
        )

    def search(self, envelope: Envelope) -> Iterator[Literal]:
        """Literals whose envelope intersects ``envelope`` (a literal
        may repeat across runs)."""
        for run in self.runs:
            yield from run.search(envelope)

    def extended(self, graph) -> "_LogIndex":
        """This index plus the log positions appended since: one new
        run, merged with the smaller runs before it.  A new log epoch
        (``clear()``) starts over from position 0."""
        epoch = graph.geometry_epoch
        if epoch == self.epoch:
            start, runs = self.indexed, list(self.runs)
        else:
            start, runs = 0, []
        ids = graph.geometry_terms(start)
        fresh = [graph.term_for_id(tid) for tid in ids]
        pending = len(fresh)
        merging: List[RTree] = []
        while runs and len(runs[-1]) <= _MERGE_RATIO * pending:
            run = runs.pop()
            pending += len(run)
            merging.append(run)
        entries = []
        seen: Set[Literal] = set()
        for run in merging:
            for envelope, lit in run.items():
                if lit not in seen and graph.count(None, None, lit):
                    seen.add(lit)
                    entries.append((envelope, lit))
        for lit in fresh:
            if lit in seen or not graph.count(None, None, lit):
                continue
            geom = lit.value
            if isinstance(geom, Geometry) and not geom.is_empty:
                seen.add(lit)
                entries.append((geom.envelope, lit))
        if entries:
            runs.append(RTree.bulk_load(entries))
        return _LogIndex(
            epoch, start + len(ids), tuple(runs), graph.generation
        )


#: Covers nothing, so the first probe builds from log position 0.
_NO_INDEX = _LogIndex(-1, 0, (), -1)


class _Endpoint:
    """The stSPARQL endpoint :class:`Strabon` and :class:`SnapshotView`
    share: plan cache, log-fed spatial index + candidate memo, evaluator
    construction and the instrumented request body.  Each subclass
    says what an update request does (``_apply_update``)."""

    #: Prefix of the ``operation`` label on ``stsparql_query_seconds``.
    _operation_prefix = ""
    #: Attributes every ``stsparql.query`` span of this endpoint carries.
    _span_attributes: Dict[str, object] = {}

    def __init__(
        self,
        graph,
        plan_cache: Optional[LRUCache],
        enable_inference: bool,
        enable_spatial_index: bool,
        build_lock,
    ) -> None:
        self.graph = graph
        #: Parsed request plans keyed on request text.  The evaluator
        #: never mutates a parsed AST, so plans are shared safely.
        self.plan_cache = (
            plan_cache
            if plan_cache is not None
            else LRUCache(PLAN_CACHE_SIZE)
        )
        self._inference = RDFSInference(graph) if enable_inference else None
        self._spatial_index_enabled = enable_spatial_index
        self._build_lock = build_lock
        self._index = _NO_INDEX
        # Candidate-set memo keyed by probe-geometry object identity,
        # valid for the index it was searched in; evaluators probe the
        # same bound geometry once per joined row.  Bounded LRU: under
        # sustained load the hot working set stays.
        self._candidate_cache = LRUCache(CANDIDATE_CACHE_SIZE)
        self.last_stats = QueryStats()

    def size(self) -> int:
        return len(self.graph)

    # -- spatial index -----------------------------------------------------

    def _ensure_rtree(self) -> Optional[_LogIndex]:
        """The spatial index, extended to the graph's geometry log
        (None when disabled).

        Only log positions appended since the last probe are packed, so
        a mutation that adds no geometry costs nothing here.  A frozen
        snapshot's log never grows: its view packs the positions its
        starting index lacks once, and concurrent first readers
        serialise on the lock.
        """
        if not self._spatial_index_enabled:
            return None
        graph = self.graph
        index = self._index
        if not index.covers(graph):
            with self._build_lock:
                index = self._index
                if not index.covers(graph):
                    index = index.extended(graph)
                    self._index = index
        return index

    def spatial_candidates(self, geom: Geometry) -> Optional[Set[Literal]]:
        """Geometry literals whose envelope intersects ``geom``'s.

        Returns None when the index is disabled (callers then fall back to
        a scan).  The set may include literals no triple holds any more;
        callers join candidates against the graph.
        """
        index = self._ensure_rtree()
        if index is None:
            return None
        key = id(geom)
        cached = self._candidate_cache.get(key)
        if cached is not None and cached[0] is geom and cached[1] is index:
            return cached[2]
        result = set(index.search(geom.envelope))
        # The value keeps a strong reference to the probe geometry so
        # its id cannot be recycled while the entry is cached.
        self._candidate_cache.put(key, (geom, index, result))
        return result

    def spatial_search(self, envelope: Envelope) -> Optional[Set[Literal]]:
        """Geometry literals whose envelope intersects ``envelope``
        (None when the index is disabled); the set may include literals
        no triple holds any more."""
        index = self._ensure_rtree()
        if index is None:
            return None
        return set(index.search(envelope))

    # -- request execution -------------------------------------------------

    def _evaluator(
        self,
        initial: Optional[List[Row]],
        explain_log: Optional[List[dict]],
        deadline: Optional[float],
    ) -> ColumnarEvaluator:
        """Build the evaluation plan: binds inference + spatial index."""
        with _tracer.span("stsparql.plan"):
            if self._inference is not None:
                # Materialise the subclass closure under the build
                # lock: the refresh is not itself thread-safe, but a
                # frozen graph never invalidates it, so a view's later
                # readers only read.
                with self._build_lock:
                    self._inference._refresh()
            evaluator = ColumnarEvaluator(
                self.graph,
                inference=self._inference,
                spatial_candidates=(
                    self.spatial_candidates
                    if self._spatial_index_enabled
                    else None
                ),
                initial=initial,
            )
            evaluator.explain_log = explain_log
            evaluator.deadline = deadline
            return evaluator

    def _dispatch(
        self,
        parsed,
        initial: Optional[List[Row]],
        explain_log: Optional[List[dict]],
        deadline: Optional[float],
    ):
        """Evaluate a parsed request; returns (result, operation, rows)."""
        if isinstance(parsed, ast.UpdateRequest):
            result = self._apply_update(
                parsed, initial, explain_log, deadline
            )
            return result, "update", 0
        evaluator = self._evaluator(initial, explain_log, deadline)
        if isinstance(parsed, ast.SelectQuery):
            solutions = evaluator.select(parsed)
            return solutions, "select", len(solutions)
        if isinstance(parsed, ast.AskQuery):
            return evaluator.ask(parsed), "ask", 1
        # CONSTRUCT is SELECT * over its pattern, instantiated through
        # the template into a fresh (mutable) graph.
        solutions = evaluator.select(
            ast.SelectQuery(
                projections=(),
                pattern=parsed.pattern,
                limit=parsed.limit,
                offset=parsed.offset,
            )
        )
        built = Graph()
        built.add_all(
            _instantiate(parsed.template, solutions.rows, deadline)
        )
        return built, "construct", len(built)

    def query(
        self,
        text: str,
        params: Optional[Params] = None,
        explain: bool = False,
        timeout: Optional[float] = None,
    ) -> Union[SolutionSet, bool, Graph, UpdateResult, dict]:
        """Parse and run any stSPARQL request.

        ``params`` pre-binds variables (``{"__ts": Literal(...)}`` binds
        ``?__ts``) so callers can keep request text constant — and
        therefore plan-cache friendly — across executions.  Values may
        be RDF terms or plain Python values (converted like expression
        results).  A *sequence* of mappings, each binding the same
        variables, has SPARQL ``VALUES`` semantics and is evaluated as
        one batch: evaluation starts from one seed row per mapping, so
        the pattern solutions are the multiset union of the per-mapping
        ones (solution modifiers — DISTINCT, aggregates, ORDER BY,
        LIMIT — then apply once over that union; a subselect sees
        every seed row, so a query with one is not a per-mapping
        union).  A single mapping is the one-row case; an empty
        sequence has no solutions.  The subscription engine evaluates
        each standing-query shape once per commit this way, seeded
        with the commit's changed subjects.

        With ``explain=True`` the request still executes, but the
        return value is a JSON-style dict describing the execution:
        the operation, the row count and — per evaluated BGP — the
        selectivity-ordered join order with the cardinality estimates
        that drove it.

        ``timeout`` is a cooperative wall-clock budget in seconds — a
        request that overruns it raises
        :class:`~repro.stsparql.errors.QueryTimeoutError` at the next
        operator boundary.  This keyword contract (``params=``,
        ``explain=``, ``timeout=``) is the same on :class:`Strabon`, on
        :class:`SnapshotView` and on the serving tier's
        :class:`~repro.serve.client.ServeClient` (over HTTP ``params``
        is one JSON object; sequences are an in-process feature).
        """
        initial = _param_rows(params)
        explain_log: Optional[List[dict]] = [] if explain else None
        deadline = (
            time.perf_counter() + timeout if timeout is not None else None
        )
        with _tracer.span(
            "stsparql.query", **self._span_attributes
        ) as span:
            t0 = time.perf_counter()
            with _tracer.span("stsparql.parse") as parse_span:
                parsed, was_cached = _parse_via_cache(
                    self.plan_cache, text
                )
                parse_span.set(cached=was_cached)
            t1 = time.perf_counter()
            with _tracer.span("stsparql.eval"):
                result, op, rows = self._dispatch(
                    parsed, initial, explain_log, deadline
                )
            t2 = time.perf_counter()
            stats = QueryStats(
                operation=op,
                parse_seconds=t1 - t0,
                eval_seconds=t2 - t1,
                rows=rows,
                triples_added=getattr(result, "added", 0),
                triples_removed=getattr(result, "removed", 0),
            )
            self.last_stats = stats
            span.set(
                operation=op,
                rows=rows,
                triples_added=stats.triples_added,
                triples_removed=stats.triples_removed,
            )
        if _metrics.enabled:
            _metrics.histogram(
                "stsparql_query_seconds",
                "Wall seconds per stSPARQL request (parse + eval)",
            ).observe(
                stats.total_seconds,
                operation=self._operation_prefix + op,
            )
            if stats.triples_added:
                _metrics.counter(
                    "stsparql_triples_added_total",
                    "Triples inserted by stSPARQL updates",
                ).inc(stats.triples_added)
            if stats.triples_removed:
                _metrics.counter(
                    "stsparql_triples_removed_total",
                    "Triples deleted by stSPARQL updates",
                ).inc(stats.triples_removed)
        if explain_log is not None:
            return {
                "operation": op,
                "rows": rows,
                "plan": explain_log,
            }
        return result

    def select(
        self, text: str, params: Optional[Params] = None
    ) -> SolutionSet:
        result = self.query(text, params)
        if not isinstance(result, SolutionSet):
            raise SparqlEvalError("request was not a SELECT query")
        return result

    def ask(
        self, text: str, params: Optional[Params] = None
    ) -> bool:
        result = self.query(text, params)
        if not isinstance(result, bool):
            raise SparqlEvalError("request was not an ASK query")
        return result

    def construct(
        self, text: str, params: Optional[Params] = None
    ) -> Graph:
        result = self.query(text, params)
        if not isinstance(result, Graph):
            raise SparqlEvalError("request was not a CONSTRUCT query")
        return result


class Strabon(_Endpoint):
    """A geospatial RDF store speaking stSPARQL."""

    def __init__(
        self,
        graph: Optional[Graph] = None,
        enable_inference: bool = True,
        enable_spatial_index: bool = True,
    ) -> None:
        super().__init__(
            graph if graph is not None else Graph(),
            None,
            enable_inference,
            enable_spatial_index,
            threading.Lock(),
        )
        #: The read-only view over the most recent snapshot (reused while
        #: the graph generation is unchanged, so its R-tree and candidate
        #: cache are shared by every reader thread).
        self._last_view: Optional["SnapshotView"] = None

    # -- data loading --------------------------------------------------------

    def load_turtle(self, text: str) -> int:
        """Parse Turtle and add its triples; returns the number added."""
        incoming = parse_turtle(text)
        return self.graph.add_all(incoming.triples())

    def add(self, s: Term, p: Term, o: Term) -> bool:
        return self.graph.add(s, p, o)

    def reset_derived(self, graph: Optional[Graph] = None) -> None:
        """Drop every structure derived from graph *content*, and serve
        ``graph`` from now on when one is given.

        Called after crash recovery rebuilds the graph wholesale
        (checkpoint load + WAL replay, into a fresh graph so that every
        term keeps its id): the spatial index's runs, the
        candidate memo and the memoised snapshot view key on log
        positions and generation counters that restart in a recovered
        process, so they must be rebuilt from the recovered state
        rather than trusted.  The parsed-plan cache survives — it is
        keyed on query text alone.
        """
        if graph is not None:
            self.graph = graph
        self._index = _NO_INDEX
        self._candidate_cache.clear()
        self._last_view = None
        if self._inference is not None:
            self._inference = RDFSInference(self.graph)

    # -- snapshot serving --------------------------------------------------

    def snapshot_view(self) -> "SnapshotView":
        """A read-only endpoint over a frozen snapshot of the graph.

        The snapshot is copy-on-write (taking one is O(1)); the view
        shares this engine's parsed-plan cache, starts its spatial index
        from this engine's (packing only the geometry-log positions that
        index lacks), keeps its own candidate cache over the frozen
        state, and may be queried from any number of threads while this
        engine keeps mutating the live graph.  While the graph is
        unmutated, repeated calls return the *same* view, so derived
        indexes are built once per published generation.
        """
        snap = self.graph.snapshot()
        view = self._last_view
        if view is not None and view.snapshot is snap:
            return view
        view = SnapshotView(
            snap,
            plan_cache=self.plan_cache,
            enable_inference=self._inference is not None,
            enable_spatial_index=self._spatial_index_enabled,
            index=self._index,
        )
        self._last_view = view
        return view

    # -- updates -----------------------------------------------------------

    def update(
        self, text: str, params: Optional[Params] = None
    ) -> UpdateResult:
        result = self.query(text, params)
        if not isinstance(result, UpdateResult):
            raise SparqlEvalError("request was not an update")
        return result

    def _apply_update(
        self,
        request: ast.UpdateRequest,
        initial: Optional[List[Row]],
        explain_log: Optional[List[dict]],
        deadline: Optional[float],
    ) -> UpdateResult:
        if request.where_pattern is None:
            # INSERT DATA / DELETE DATA — templates must be ground.
            removed = 0
            added = 0
            for tmpl in request.delete_template:
                triple = _ground(tmpl)
                removed += self.graph.remove(*triple)
            for tmpl in request.insert_template:
                triple = _ground(tmpl)
                if self.graph.add(*triple):
                    added += 1
            return UpdateResult(removed=removed, added=added)
        evaluator = self._evaluator(initial, explain_log, deadline)
        bindings = evaluator.update_bindings(request.where_pattern)
        to_remove = _instantiate(
            request.delete_template, bindings, deadline
        )
        to_add = _instantiate(request.insert_template, bindings, deadline)
        removed = 0
        for s, p, o in to_remove:
            if (s, p, o) in self.graph:
                self.graph.remove(s, p, o)
                removed += 1
        added = 0
        for s, p, o in to_add:
            if self.graph.add(s, p, o):
                added += 1
        return UpdateResult(removed=removed, added=added)


class SnapshotView(_Endpoint):
    """A read-only stSPARQL endpoint over a :class:`GraphSnapshot`.

    The scale-out read path of the serving layer: the HTTP server's
    event loop (and any other reader thread) evaluates cached plans
    against a frozen, generation-stamped snapshot while the live store
    keeps refining the next acquisition.  The view

    * shares the owning engine's parsed-plan LRU (thread-safe), so a
      request parsed by any reader — or by the writer — is a cache hit
      for every other one,
    * starts its spatial index from ``index``, the writer's immutable
      R-tree runs, when they were packed in the snapshot's log epoch at
      or before its generation, and on its first spatial probe packs
      only the log positions past them (all of them without a usable
      ``index``; no triple scan either way).  Sharing is sound: a pack
      drops only literals no triple held at pack time, and a literal a
      triple holds again was re-appended to the log
      (:meth:`~repro.rdf.graph.Graph.add`), past the shared runs; a
      literal the snapshot no longer holds is a harmless stale
      candidate.  The index and the candidate cache are per snapshot
      and shared by all readers (the snapshot never changes, so no
      invalidation is ever needed),
    * refuses updates with :class:`~repro.errors.SnapshotWriteError`.
    """

    _operation_prefix = "snapshot-"

    def __init__(
        self,
        snapshot: GraphSnapshot,
        plan_cache: Optional[LRUCache] = None,
        enable_inference: bool = True,
        enable_spatial_index: bool = True,
        index: Optional[_LogIndex] = None,
    ) -> None:
        super().__init__(
            snapshot,
            plan_cache,
            enable_inference,
            enable_spatial_index,
            snapshot.build_lock,
        )
        if (
            index is not None
            and index.epoch == snapshot.geometry_epoch
            and index.generation <= snapshot.generation
        ):
            self._index = index
        self.snapshot = snapshot
        self._span_attributes = {
            "snapshot": True,
            "generation": snapshot.generation,
        }

    @property
    def generation(self) -> int:
        """The live-graph generation this view was frozen at."""
        return self.snapshot.generation

    def _apply_update(self, request, initial, explain_log, deadline):
        raise SnapshotWriteError(
            "snapshot endpoints are read-only: send updates to the "
            "live Strabon store"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SnapshotView generation={self.generation} "
            f"over {len(self.snapshot)} triples>"
        )


def _ground(tmpl: ast.TriplePattern):
    for term in (tmpl.subject, tmpl.predicate, tmpl.object):
        if isinstance(term, Variable):
            raise SparqlEvalError(
                "INSERT/DELETE DATA templates must not contain variables"
            )
    return (tmpl.subject, tmpl.predicate, tmpl.object)


def _instantiate(
    templates, bindings: List[Row], deadline: Optional[float] = None
) -> List[tuple]:
    """The distinct triples the templates make from the bindings.

    A triple with an unbound variable, a literal subject or a
    predicate that is not an IRI is skipped (SPARQL 1.1 Update
    §3.1.3): it is neither inserted nor deleted.  ``deadline`` is
    checked every block of bindings.
    """
    out: List[tuple] = []
    seen: Set[tuple] = set()
    for row in deadline_checked(bindings, deadline, DEADLINE_BLOCK):
        for tmpl in templates:
            triple = []
            for term in (tmpl.subject, tmpl.predicate, tmpl.object):
                if isinstance(term, Variable):
                    term = row.get(term.name)
                    if term is None:
                        break
                triple.append(term)
            else:
                key = tuple(triple)
                if (
                    key not in seen
                    and not isinstance(key[0], Literal)
                    and isinstance(key[1], URI)
                ):
                    seen.add(key)
                    out.append(key)
    return out
