"""The stSPARQL engine: group operators over id columns.

SELECT, ASK, CONSTRUCT and update ``WHERE`` clauses all run here.
Solutions flow as *columns*: each variable is an ``int64`` array of
dictionary identifiers backed by the RDF store's term dictionary
(:meth:`~repro.rdf.graph.TripleReader.term_id`), joins expand via index
arithmetic instead of dict copies, and filters are either evaluated as
numpy array expressions (numeric and datetime comparisons, Allen-style
temporal relations, envelope-pruned spatial predicates) or memoised per
*distinct* binding combination through the shared per-row expression
code of :class:`~repro.stsparql.eval.Evaluator`, whose planner, probes
and solution modifiers the engine inherits.

An inline ``VALUES`` block is a small batch of its own, joined on the
variables it shares at the step the planner gives it among its BGP's
patterns.

OPTIONAL, MINUS and ``FILTER (NOT) EXISTS`` evaluate their pattern
under each row's bindings, once per batch (:meth:`ColumnarEvaluator.
_correlate`): the distinct bindings become seed rows tagged with a
hidden row id, grouped by which columns they bind, and the solutions
are joined back on the tag.

The row-wise reference in ``tests/stsparql/reference.py`` shares
everything but the group operators; the differential suites hold the
two equal.

Identifier space: graph dictionary ids are dense non-negative ints;
terms that only exist in bindings (parameters, computed values) are
interned locally from ``LOCAL_BASE`` upward; ``UNBOUND`` (-1) marks an
absent binding.  Equal terms always map to equal ids — the graph
dictionary is consulted first — so id equality is term equality.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)
from weakref import WeakKeyDictionary

import numpy as np

from repro.obs import get_metrics
from repro.geometry import Polygon
from repro.rdf.namespace import RDF, STRDF
from repro.rdf.temporal import Period
from repro.rdf.term import Term, Variable
from repro.stsparql import ast
from repro.stsparql.errors import ExpressionError, SparqlEvalError
from repro.stsparql.eval import (
    _COMPARISON_OPS,
    DEADLINE_BLOCK,
    Evaluator,
    Row,
    SolutionSet,
    _evaluable_filters,
    _explain_skipped,
    _explain_step,
    _expr_variables,
    _filters_due,
    _pattern_variables,
    _Probe,
    _spatial_filter_pairs,
)
from repro.stsparql.functions import (
    SPATIAL_PREDICATE_NAMES,
    as_geometry,
    as_string,
    effective_boolean,
    instant_key,
    to_term,
    to_value,
)

#: Column value marking an absent binding.
UNBOUND = -1
#: First identifier of the evaluator-local term dictionary.
LOCAL_BASE = 1 << 40
#: Rows per columnar expansion chunk (bounds peak batch memory).
CHUNK_ROWS = 65536

#: Sentinel for "evaluating this cell raises ExpressionError".
_ERR = object()

#: Hidden column tagging the seed rows of a correlated evaluation with
#: the outer binding they stand for (no variable name holds a NUL).
_ROW_ID = "\0row"

_metrics = get_metrics()

#: Temporal predicates with a direct array formula (Allen relations).
_TEMPORAL_VECTOR_NAMES = {
    STRDF.base + local: local
    for local in (
        "before",
        "after",
        "meets",
        "periodOverlaps",
        "periodContains",
        "during",
    )
}


class Batch:
    """A table of solution rows: one int64 id column per variable."""

    __slots__ = ("length", "columns")

    def __init__(self, length: int, columns: Dict[str, np.ndarray]) -> None:
        self.length = length
        self.columns = columns

    def take(self, idx: np.ndarray) -> "Batch":
        return Batch(
            int(len(idx)),
            {name: col[idx] for name, col in self.columns.items()},
        )

    def slice(self, start: int, stop: int) -> "Batch":
        stop = min(stop, self.length)
        return Batch(
            stop - start,
            {name: col[start:stop] for name, col in self.columns.items()},
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Batch {list(self.columns)} x {self.length} rows>"


def _empty_column(length: int) -> np.ndarray:
    return np.full(length, UNBOUND, dtype=np.int64)


def _bound_domain(batch: Batch) -> Set[str]:
    """Variables bound in the batch's first row (a per-row
    evaluation's ``set(rows[0])``)."""
    if not batch.length:
        return set()
    return {
        name for name, col in batch.columns.items() if col[0] != UNBOUND
    }


def _concat_batches(batches: Sequence[Batch]) -> Batch:
    """Stack batches, unioning columns (missing columns fill UNBOUND)."""
    names: List[str] = []
    for b in batches:
        for name in b.columns:
            if name not in names:
                names.append(name)
    total = sum(b.length for b in batches)
    columns = {
        name: np.concatenate(
            [
                b.columns.get(name, _empty_column(b.length))
                for b in batches
            ]
        )
        if batches
        else _empty_column(0)
        for name in names
    }
    return Batch(total, columns)


def _distinct_combos(
    batch: Batch,
    names: Sequence[str],
    check: Optional[Callable[[], None]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(combos, inverse)`` over the named columns.

    ``combos`` is a ``(k, len(names))`` matrix of distinct value rows
    in sorted order, ``inverse`` maps each batch row to its combo
    index.  With a deadline ``check``, a batch above ``CHUNK_ROWS``
    is sorted one slice at a time with ``check`` called between
    slices, and the slices' distinct rows are merged in a last sort.
    """
    if not names:
        return (
            np.zeros((1, 0), dtype=np.int64),
            np.zeros(batch.length, dtype=np.intp),
        )
    mat = np.stack([batch.columns[name] for name in names], axis=1)
    if check is None or batch.length <= CHUNK_ROWS:
        combos, inverse = np.unique(mat, axis=0, return_inverse=True)
        return combos, inverse.reshape(-1)
    parts, inverses = [], []
    for start in range(0, batch.length, CHUNK_ROWS):
        check()
        part, inverse = np.unique(
            mat[start:start + CHUNK_ROWS], axis=0, return_inverse=True
        )
        parts.append(part)
        inverses.append(inverse.reshape(-1))
    check()
    combos, merged = np.unique(
        np.concatenate(parts), axis=0, return_inverse=True
    )
    merged = merged.reshape(-1)
    offsets = np.cumsum([0] + [len(part) for part in parts])
    return combos, np.concatenate(
        [merged[at + inverse] for at, inverse in zip(offsets, inverses)]
    )


#: Per-graph predicate join views, invalidated by graph generation.
_PAIR_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()

#: graph -> {term id: (term, is-geometry, envelope or None)}.  Term
#: ids are append-only for a graph's lifetime (deletion removes index
#: entries, never dictionary terms), so entries never invalidate.
_GEOM_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()


def _predicate_pairs(
    graph: Any, pi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """All ``(subject, object)`` id pairs stored under predicate ``pi``.

    The arrays come straight off the POS index and are cached per graph
    *generation*, so repeated queries against an unmutated graph (or any
    snapshot, which is frozen by construction) skip the rebuild.
    """
    try:
        entry = _PAIR_CACHE.get(graph)
    except TypeError:  # pragma: no cover - non-weakrefable graph
        entry = None
    if entry is None or entry[0] != graph.generation:
        entry = (graph.generation, {})
        try:
            _PAIR_CACHE[graph] = entry
        except TypeError:  # pragma: no cover
            pass
    views = entry[1].get(pi)
    if views is None:
        views = _id_pairs(graph.triples_ids(None, pi, None))
        entry[1][pi] = views
    return views


def _id_pairs(triples) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(subject, object)`` id columns of some id triples."""
    mat = np.array(
        [(s, o) for s, _p, o in triples], dtype=np.int64
    ).reshape(-1, 2)
    return (
        np.ascontiguousarray(mat[:, 0]),
        np.ascontiguousarray(mat[:, 1]),
    )


class ColumnarEvaluator(Evaluator):
    """The stSPARQL engine: group operators over id columns."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        #: Terms absent from the graph dictionary, interned locally.
        self._local_ids: Dict[Term, int] = {}
        self._local_terms: List[Term] = []
        if _metrics.enabled:
            _metrics.gauge(
                "stsparql_columnar_dictionary_terms",
                "Interned terms in the store dictionary backing the "
                "columnar engine",
            ).set(self.graph.term_count())

    # -- id codec -------------------------------------------------------

    def _encode(self, term: Term) -> int:
        tid = self.graph.term_id(term)
        if tid is not None:
            return tid
        lid = self._local_ids.get(term)
        if lid is None:
            lid = LOCAL_BASE + len(self._local_terms)
            self._local_ids[term] = lid
            self._local_terms.append(term)
        return lid

    def _decode(self, tid: int) -> Term:
        if tid >= LOCAL_BASE:
            return self._local_terms[tid - LOCAL_BASE]
        return self.graph.term_for_id(tid)

    # -- public entry points --------------------------------------------

    def select(self, query: ast.SelectQuery) -> SolutionSet:
        batch = self._eval_group_batch(query.pattern, self._seed_batch())
        rows = self._batch_to_rows(batch)
        return self._apply_modifiers(query, rows)

    def ask(self, query: ast.AskQuery) -> bool:
        batch = self._eval_group_batch(query.pattern, self._seed_batch())
        return bool(batch.length)

    def update_bindings(
        self, pattern: ast.GroupGraphPattern
    ) -> List[Row]:
        """The solutions of an update's ``WHERE`` pattern."""
        batch = self._eval_group_batch(pattern, self._seed_batch())
        return self._batch_to_rows(batch)

    # -- batch <-> row conversion ---------------------------------------

    def _seed_batch(self) -> Batch:
        """The seed rows as columns: one row per parameter mapping."""
        return self._rows_batch(self.seeds)

    def _rows_batch(self, rows: Sequence[Row]) -> Batch:
        names: List[str] = []
        for row in rows:
            names.extend(name for name in row if name not in names)
        encode = self._encode
        columns = {
            name: np.fromiter(
                (
                    encode(row[name]) if name in row else UNBOUND
                    for row in rows
                ),
                dtype=np.int64,
                count=len(rows),
            )
            for name in names
        }
        return Batch(len(rows), columns)

    def _batch_to_rows(self, batch: Batch) -> List[Row]:
        decode = self._decode
        cache: Dict[int, Term] = {}
        columns = [
            (name, col.tolist()) for name, col in batch.columns.items()
        ]
        rows: List[Row] = []
        for i in self._checked(range(batch.length), DEADLINE_BLOCK):
            row: Row = {}
            for name, values in columns:
                tid = values[i]
                if tid == UNBOUND:
                    continue
                term = cache.get(tid)
                if term is None:
                    term = decode(tid)
                    cache[tid] = term
                row[name] = term
            rows.append(row)
        return rows

    def _combo_row(
        self, names: Sequence[str], combo: np.ndarray
    ) -> Row:
        return {
            name: self._decode(int(tid))
            for name, tid in zip(names, combo)
            if tid != UNBOUND
        }

    # -- group graph patterns -------------------------------------------

    def _eval_group_batch(
        self, pattern: ast.GroupGraphPattern, batch: Batch
    ) -> Batch:
        elements = list(pattern.elements)
        group_filters = [
            e for e in elements if isinstance(e, ast.Filter)
        ]
        applied: Set[int] = set()
        for element in elements:
            self._check_deadline()
            if isinstance(element, ast.BGP):
                batch = self._bgp_batch(
                    element, batch, group_filters, applied
                )
            elif isinstance(element, ast.Filter):
                if id(element) in applied:
                    continue
                batch = self._filter_batch(element.expression, batch)
                applied.add(id(element))
            elif isinstance(element, ast.Optional_):
                batch = self._optional_batch(element.pattern, batch)
            elif isinstance(element, ast.UnionPattern):
                batch = self._union_batch(element, batch)
            elif isinstance(element, ast.Bind):
                batch = self._bind_batch(element, batch)
            elif isinstance(element, ast.MinusPattern):
                batch = self._minus_batch(element.pattern, batch)
            elif isinstance(element, ast.GroupGraphPattern):
                batch = self._eval_group_batch(element, batch)
            elif isinstance(element, ast.SubSelect):
                batch = self._subselect_batch(element.query, batch)
            else:  # pragma: no cover - parser prevents this
                raise SparqlEvalError(f"unknown element {element!r}")
        return batch

    # -- BGP evaluation -------------------------------------------------

    def _bgp_batch(
        self,
        bgp: ast.BGP,
        batch: Batch,
        group_filters: List[ast.Filter],
        applied: Set[int],
    ) -> Batch:
        # "Bound" is the batch's bound domain, not its column names: an
        # all-UNBOUND column is a variable still to bind.
        domain = _bound_domain(batch)
        ordered, explained = self._order_patterns(
            bgp, domain, group_filters
        )
        star = self._star_checks(bgp, group_filters)
        for step, pattern in enumerate(ordered):
            if not batch.length:
                break
            if isinstance(pattern, ast.InlineData):
                probe = _Probe()
                batch = self._join_batch(
                    batch, self._rows_batch(_data_rows(pattern))
                )
            else:
                probe = self._probe(pattern, star, domain)
                batch = self._extend_batch(
                    batch, pattern, group_filters, probe
                )
            domain = _bound_domain(batch)
            if batch.length and _filters_due(ordered, step, domain):
                for f in _evaluable_filters(group_filters, applied, domain):
                    batch = self._filter_batch(f.expression, batch)
                    applied.add(id(f))
            if explained is not None:
                _explain_step(explained, batch.length, probe)
        if explained is not None:
            _explain_skipped(explained, len(ordered))
        return batch

    def _extend_batch(
        self,
        batch: Batch,
        pattern: ast.TriplePattern,
        group_filters: List[ast.Filter],
        probe: _Probe,
    ) -> Batch:
        columns = batch.columns
        slots = (pattern.subject, pattern.predicate, pattern.object)
        combo_names = {
            t.name
            for t in slots
            if isinstance(t, Variable) and t.name in columns
        }
        # The R-tree restriction probe reads the *other* side of a
        # pending spatial filter from the row, so it is part of the key.
        partners = []
        if isinstance(pattern.object, Variable):
            obj = pattern.object.name
            for a, b in _spatial_filter_pairs(group_filters):
                partner = b if obj == a else (a if obj == b else None)
                if partner is not None and partner in columns:
                    partners.append(partner)
        combo_names.update(partners)
        # R-tree index join: a fresh object paired with a column bound
        # in every row probes once per distinct bound geometry (the
        # cost ``_estimate`` plans with) instead of materialising the
        # predicate's whole relation.
        index_join = (
            self.spatial_candidates is not None
            and bool(partners)
            and (obj not in columns or (columns[obj] == UNBOUND).all())
            and any((columns[p] != UNBOUND).all() for p in partners)
        )
        if not index_join:
            fast = self._vector_extend(batch, pattern)
            if fast is not None:
                self._check_deadline()
                return fast
        names = sorted(combo_names)
        match_cache: Dict[Tuple[int, ...], Tuple] = {}
        pieces: List[Batch] = []
        for start in range(0, batch.length, CHUNK_ROWS):
            self._check_deadline()
            pieces.append(
                self._extend_chunk(
                    batch.slice(start, start + CHUNK_ROWS),
                    pattern,
                    names,
                    match_cache,
                    group_filters,
                    probe,
                )
            )
        if len(pieces) == 1:
            return pieces[0]
        return _concat_batches(pieces)

    def _vector_extend(
        self, batch: Batch, pattern: ast.TriplePattern
    ) -> Optional[Batch]:
        """Sorted-array index join for simple patterns.

        Handles a constant predicate whose subject/object slots are each
        a constant, a fully-bound column, or a fresh variable — the vast
        majority of patterns — without materialising per-combination
        rows: the predicate's ``(s, o)`` pairs come off the POS index as
        two id arrays (for a small batch, off one index probe per
        distinct bound key) and the join is ``searchsorted`` arithmetic.
        ``rdf:type`` under inference joins against the class closure's
        instances the same way.  Returns None when the
        pattern needs the per-combination machinery (variable
        predicates, repeated variables, mixed bound/unbound columns,
        a variable ``rdf:type`` class under inference).
        """
        subj, pred, obj = (
            pattern.subject,
            pattern.predicate,
            pattern.object,
        )
        if isinstance(pred, Variable):
            return None
        if (
            isinstance(subj, Variable)
            and isinstance(obj, Variable)
            and subj.name == obj.name
        ):
            return None
        graph = self.graph
        columns = batch.columns
        n = batch.length

        def role(term: Term) -> Optional[Tuple[str, Any]]:
            if not isinstance(term, Variable):
                return ("const", term)
            col = columns.get(term.name)
            if col is None:
                return ("fresh", term.name)
            bound = col != UNBOUND
            if bound.all():
                return ("bound", col)
            if not bound.any():
                return ("fresh", term.name)
            return None  # mixed bound-ness: per-combination path

        s_role = role(subj)
        o_role = role(obj)
        if s_role is None or o_role is None:
            return None

        empty = np.empty(0, dtype=np.int64)
        inference_type = (
            self.inference is not None and pred == RDF.type
        )
        if inference_type:
            if isinstance(obj, Variable):
                return None  # the class comes from the row
            if s_role[0] == "bound" and n * 8 < self._typed_count(obj):
                # Tiny batch against a big closure: test each distinct
                # subject's asserted types rather than materialising
                # the class's instances.
                ti = graph.term_id(RDF.type)
                classes = self._subclass_ids(obj)
                s_rel = np.array(
                    [
                        si
                        for si in np.unique(s_role[1]).tolist()
                        if not classes.isdisjoint(graph.object_ids(si, ti))
                    ],
                    dtype=np.int64,
                )
            else:
                s_rel = np.fromiter(
                    map(self._encode, self.inference.instances_of(obj)),
                    dtype=np.int64,
                )
            o_rel = None  # object is the constant class term
        else:
            pi = graph.term_id(pred)
            sid = (
                graph.term_id(s_role[1])
                if s_role[0] == "const"
                else None
            )
            oid = (
                graph.term_id(o_role[1])
                if o_role[0] == "const"
                else None
            )
            if (
                pi is None
                or (s_role[0] == "const" and sid is None)
                or (o_role[0] == "const" and oid is None)
            ):
                s_rel, o_rel = empty, empty
            elif sid is not None or oid is not None:
                # Const-anchored: only the matching triples come off
                # the index — O(matches), never O(predicate).
                s_rel, o_rel = _id_pairs(graph.triples_ids(sid, pi, oid))
            elif (
                s_role[0] == "bound" or o_role[0] == "bound"
            ) and n * 8 < graph.count_ids(None, pi, None):
                # A bound column over a tiny batch: probing the index
                # once per distinct key is O(batch) while the whole
                # relation would be materialised and sorted.
                if s_role[0] == "bound":
                    probes = (
                        graph.triples_ids(k, pi, None)
                        for k in np.unique(s_role[1]).tolist()
                    )
                else:
                    probes = (
                        graph.triples_ids(None, pi, k)
                        for k in np.unique(o_role[1]).tolist()
                    )
                s_rel, o_rel = _id_pairs(
                    triple for probe in probes for triple in probe
                )
            else:
                s_rel, o_rel = _predicate_pairs(graph, pi)
            if o_role[0] == "const":
                o_rel = None  # already restricted by the index
        if s_role[0] == "const":
            if inference_type:
                # Inference instances are matched by id; _encode gives
                # equal terms equal ids even when the graph never
                # interned them.
                keep = s_rel == self._encode(s_role[1])
                s_rel = s_rel[keep]
            rel_size = len(s_rel)
            s_rel = None  # subject slot fully resolved
        else:
            rel_size = len(s_rel)

        # Remaining slots are fully-bound columns (membership checks)
        # or fresh variables (productions).
        checks: List[Tuple[np.ndarray, np.ndarray]] = []
        produces: List[Tuple[str, np.ndarray]] = []
        for slot_role, arr in ((s_role, s_rel), (o_role, o_rel)):
            if arr is None:
                continue
            if slot_role[0] == "bound":
                checks.append((slot_role[1], arr))
            else:
                produces.append((slot_role[1], arr))

        if checks:
            col, key = checks[0]
            order = np.argsort(key, kind="stable")
            key_sorted = key[order]
            left = np.searchsorted(key_sorted, col, side="left")
            right = np.searchsorted(key_sorted, col, side="right")
            counts = (right - left).astype(np.int64)
        else:
            counts = np.full(n, rel_size, dtype=np.int64)
        pieces = []
        for row_idx, within in self._expand_checked(counts):
            if checks:
                sel = order[left[row_idx] + within]
                for col, key in checks[1:]:
                    ok = key[sel] == col[row_idx]
                    row_idx, sel = row_idx[ok], sel[ok]
            else:
                sel = within
            out_cols = {
                name: c[row_idx] for name, c in batch.columns.items()
            }
            for name, key in produces:
                out_cols[name] = key[sel]
            pieces.append(Batch(int(len(row_idx)), out_cols))
        if _metrics.enabled:
            _metrics.counter(
                "stsparql_columnar_batches_total",
                "Column chunks expanded by the columnar join operator",
            ).inc()
            _metrics.histogram(
                "stsparql_columnar_batch_rows",
                "Input rows per columnar join chunk",
            ).observe(float(n))
            _metrics.counter(
                "stsparql_columnar_vector_joins_total",
                "Patterns joined by sorted-array index arithmetic",
            ).inc()
        return pieces[0] if len(pieces) == 1 else _concat_batches(pieces)

    def _expand_checked(
        self, counts: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """:func:`_expand` of ``counts`` in slices of input rows whose
        output stays within ``CHUNK_ROWS`` (a row with more matches is
        a slice of its own), with the deadline checked between slices:
        a product's rows are built a chunk at a time, never in one
        uninterruptible call.  Yields ``(row_idx, within)`` with
        ``row_idx`` indexing the whole of ``counts``."""
        ends = np.cumsum(counts)
        start = 0
        while True:
            base = int(ends[start - 1]) if start else 0
            stop = max(
                int(np.searchsorted(ends, base + CHUNK_ROWS, side="right")),
                start + 1,
            )
            row_idx, within = _expand(counts[start:stop])
            yield row_idx + start, within
            if stop >= len(counts):
                return
            start = stop
            self._check_deadline()

    def _extend_chunk(
        self,
        batch: Batch,
        pattern: ast.TriplePattern,
        combo_names: Sequence[str],
        match_cache: Dict[Tuple[int, ...], Tuple],
        group_filters: List[ast.Filter],
        probe: _Probe,
    ) -> Batch:
        n = batch.length
        combos, inverse = _distinct_combos(batch, combo_names)
        results = []
        for combo in self._checked(combos.tolist()):
            key = tuple(combo)
            res = match_cache.get(key)
            if res is None:
                res = self._match_combo(
                    pattern,
                    dict(zip(combo_names, combo)),
                    group_filters,
                    probe,
                )
                match_cache[key] = res
            results.append(res)
        # Each combination's matches, laid end to end: output row j of
        # input row i is match ``within[j]`` of i's combination.
        combo_counts = np.array([res[0] for res in results], dtype=np.int64)
        combo_starts = np.cumsum(combo_counts) - combo_counts
        row_idx, within = _expand(combo_counts[inverse])
        total = len(row_idx)
        match_idx = combo_starts[inverse[row_idx]] + within
        out_cols = {
            name: col[row_idx] for name, col in batch.columns.items()
        }
        names = []
        for term in (pattern.subject, pattern.predicate, pattern.object):
            if isinstance(term, Variable) and term.name not in names:
                names.append(term.name)
        for name in names:
            # A variable a combination had bound produces nothing there.
            flat: List[int] = []
            for count, produced in results:
                flat.extend(produced.get(name, (UNBOUND,) * count))
            if not flat:
                out_cols.setdefault(name, _empty_column(total))
                continue
            made = np.array(flat, dtype=np.int64)[match_idx]
            current = out_cols.get(name)
            out_cols[name] = (
                made
                if current is None
                else np.where(made != UNBOUND, made, current)
            )
        if _metrics.enabled:
            _metrics.counter(
                "stsparql_columnar_batches_total",
                "Column chunks expanded by the columnar join operator",
            ).inc()
            _metrics.histogram(
                "stsparql_columnar_batch_rows",
                "Input rows per columnar join chunk",
            ).observe(float(n))
        return Batch(total, out_cols)

    def _match_combo(
        self,
        pattern: ast.TriplePattern,
        combo: Dict[str, int],
        group_filters: List[ast.Filter],
        probe: _Probe,
    ) -> Tuple[int, Dict[str, List[int]]]:
        """All matches of ``pattern`` under one binding combination
        (variable -> id, ``UNBOUND`` for unbound).

        Returns ``(count, {new_var: [id, ...]})`` — the candidate
        enumeration of an index walk, or of the inference and R-tree
        restriction probes (the latter with the probe's subject
        checks), with repeated variables kept consistent, run once per
        *distinct* combination.
        """
        graph = self.graph
        row = {
            name: self._decode(tid)
            for name, tid in combo.items()
            if tid != UNBOUND
        }
        restriction = self._spatial_restriction(
            pattern, row, group_filters
        )
        if restriction is not None and _metrics.enabled:
            _metrics.histogram(
                "stsparql_columnar_candidates",
                "R-tree candidate-set sizes used by the columnar engine",
            ).observe(float(len(restriction)), site="bgp")
        slots = (pattern.subject, pattern.predicate, pattern.object)
        resolved = [
            row.get(t.name) if isinstance(t, Variable) else t
            for t in slots
        ]
        s, p, o = resolved
        # Slot positions that produce a binding, and for a variable
        # repeated inside the pattern the earlier slot it must equal.
        produce: Dict[str, int] = {}
        repeats: List[Tuple[int, int]] = []
        for pos, term in enumerate(slots):
            if isinstance(term, Variable) and term.name not in row:
                first = produce.setdefault(term.name, pos)
                if first != pos:
                    repeats.append((first, pos))
        if self.inference is not None and p == RDF.type:
            encode = self._encode
            candidates = (
                tuple(map(encode, triple))
                for triple in self._inferred_types(s, o)
            )
        elif restriction is not None and o is None:
            candidates = self._restricted_triples(
                s, p, restriction, probe
            )
        else:
            ids = []
            for term in slots:
                if isinstance(term, Variable):
                    tid = combo.get(term.name, UNBOUND)
                    ids.append(None if tid == UNBOUND else tid)
                else:
                    ids.append(graph.term_id(term))
                    if ids[-1] is None:
                        return 0, {}
            if any(tid is not None and tid >= LOCAL_BASE for tid in ids):
                return 0, {}  # a term the graph never stored
            candidates = graph.triples_ids(*ids)
        if repeats:
            candidates = (
                triple
                for triple in candidates
                if all(triple[a] == triple[b] for a, b in repeats)
            )
        matched = list(candidates)
        return len(matched), {
            name: [triple[pos] for triple in matched]
            for name, pos in produce.items()
        }

    # -- filters --------------------------------------------------------

    def _by_chunks(self, operator, arg: Any, batch: Batch) -> Batch:
        """``operator(arg, batch)`` for a row-wise operator that keeps
        the batch's columns, one ``CHUNK_ROWS`` slice at a time with the
        deadline checked between slices.  The distinct-combination sort
        and the array formulas are single numpy calls no deadline check
        can interrupt (a 3.5-million-row cross product sorts for
        seconds), so a large batch never reaches them whole."""
        if batch.length <= CHUNK_ROWS:
            return operator(arg, batch)
        pieces = []
        for start in range(0, batch.length, CHUNK_ROWS):
            self._check_deadline()
            pieces.append(
                operator(arg, batch.slice(start, start + CHUNK_ROWS))
            )
        return _concat_batches(pieces)

    def _filter_batch(
        self, expr: ast.Expression, batch: Batch
    ) -> Batch:
        return self._by_chunks(self._filter_chunk, expr, batch)

    def _filter_chunk(
        self, expr: ast.Expression, batch: Batch
    ) -> Batch:
        if batch.length == 0:
            return batch
        probe = self._with_exists(expr, batch)
        vec = self._vector_filter(expr, probe)
        if vec is not None:
            res, valid = vec
            keep = res & valid
            if _metrics.enabled:
                _metrics.counter(
                    "stsparql_columnar_vectorised_filters_total",
                    "FILTER evaluations answered by array formulas",
                ).inc()
        else:
            keep = self._generic_filter_mask(expr, probe)
        return batch.take(np.flatnonzero(keep))

    def _generic_filter_mask(
        self, expr: ast.Expression, batch: Batch
    ) -> np.ndarray:
        """Per-row semantics, per-*distinct-combination* evaluation."""
        names = _expression_columns(expr, batch)
        if not names:
            passes = self._filter_passes(expr, {})
            return np.full(batch.length, passes, dtype=bool)
        combos, inverse = _distinct_combos(batch, names)
        results = np.empty(len(combos), dtype=bool)
        for ci, combo in self._checked(enumerate(combos)):
            row = self._combo_row(names, combo)
            results[ci] = self._filter_passes(expr, row)
        if _metrics.enabled:
            distinct = len(combos)
            _metrics.counter(
                "stsparql_columnar_filter_memo_misses_total",
                "Distinct binding combinations evaluated per FILTER",
            ).inc(distinct)
            _metrics.counter(
                "stsparql_columnar_filter_memo_hits_total",
                "FILTER rows answered from the combination memo",
            ).inc(batch.length - distinct)
        return results[inverse]

    # -- vector filter expressions --------------------------------------

    def _vector_filter(
        self, expr: ast.Expression, batch: Batch
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(result, valid)`` boolean arrays, or None if not expressible.

        ``valid`` is False where per-row evaluation would raise
        ``ExpressionError`` (the enclosing FILTER then rejects the row);
        three-valued logic composes errors exactly like the per-row
        short-circuit code.
        """
        if isinstance(expr, ast.ExistsExpr):
            col = batch.columns.get(_exists_column(expr))
            if col is None:
                return None
            res = col == self._encode(to_term(not expr.negated))
            return res, np.ones(batch.length, dtype=bool)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "!":
            inner = self._vector_filter(expr.operand, batch)
            if inner is None:
                return None
            res, valid = inner
            return ~res & valid, valid
        if isinstance(expr, ast.BinaryExpr):
            if expr.op in ("&&", "||"):
                left = self._vector_filter(expr.left, batch)
                if left is None:
                    return None
                right = self._vector_filter(expr.right, batch)
                if right is None:
                    return None
                lr, lv = left
                rr, rv = right
                if expr.op == "&&":
                    l_false = lv & ~lr
                    r_false = rv & ~rr
                    valid = l_false | r_false | (lv & rv)
                    return lr & rr & lv & rv, valid
                l_true = lv & lr
                r_true = rv & rr
                valid = l_true | r_true | (lv & rv)
                return l_true | r_true, valid
            if expr.op in _COMPARISON_OPS:
                return self._vector_compare(
                    expr.op, expr.left, expr.right, batch
                )
            return None
        if (
            isinstance(expr, ast.FunctionCall)
            and expr.name in _TEMPORAL_VECTOR_NAMES
            and len(expr.args) == 2
        ):
            return self._vector_temporal(expr, batch)
        if (
            isinstance(expr, ast.FunctionCall)
            and expr.name in SPATIAL_PREDICATE_NAMES
            and len(expr.args) == 2
        ):
            return self._vector_spatial(expr, batch)
        return None

    def _vector_spatial(
        self, expr: ast.FunctionCall, batch: Batch
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Spatial predicate over two bound columns, envelope pruned.

        Geometries resolve once per distinct term (memoised on the
        graph — term ids are stable for its lifetime) and one
        vectorised envelope comparison prunes the distinct pairs; only
        pairs whose envelopes interact reach the exact predicate (which
        itself hits the process-wide WKT / predicate memos).  Every
        predicate in ``SPATIAL_PREDICATE_NAMES`` implies envelope
        interaction, so a pruned pair is a definite False — unless a
        side is not a geometry at all, which per-row evaluation treats
        as an error (``valid`` False here).  For the intersection
        predicates a pair is a definite True, with no exact test, when
        one side is a box (:func:`_is_box`, such as a region or
        viewport rectangle) holding the other's envelope, or when both
        sides are boxes (pixel footprints, detection squares) whose
        envelopes interact.
        """
        sides: List[Tuple[str, Any]] = []
        for arg in expr.args:
            if not isinstance(arg, ast.TermExpr):
                return None
            term = arg.term
            if isinstance(term, Variable):
                sides.append(("var", term.name))
            else:
                sides.append(("const", term))
        if sides[0] == sides[1]:
            return None  # same variable twice, or constant pair
        if all(kind == "const" for kind, _ in sides):
            return None  # row-independent: generic path evaluates once
        cols = []
        for kind, payload in sides:
            if kind == "var":
                col = batch.columns.get(payload)
                if col is None or (col == UNBOUND).any():
                    return None
                cols.append(col)
            else:
                cols.append(
                    np.full(
                        batch.length,
                        self._encode(payload),
                        dtype=np.int64,
                    )
                )
        mat = np.stack(cols, axis=1)
        combos, inverse = np.unique(mat, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)

        terms_a, ok_a, env_a, box_a, inv_a = self._side_geometries(
            combos[:, 0]
        )
        terms_b, ok_b, env_b, box_b, inv_b = self._side_geometries(
            combos[:, 1]
        )
        a = env_a[inv_a]
        b = env_b[inv_b]
        # One vectorised envelope test over the distinct pairs — NaN
        # envelopes (non-geometries, empty geometries) compare False
        # everywhere, so those pairs always prune.
        overlap = (
            (b[:, 0] <= a[:, 2])
            & (b[:, 2] >= a[:, 0])
            & (b[:, 1] <= a[:, 3])
            & (b[:, 3] >= a[:, 1])
        )
        res = np.zeros(len(combos), dtype=bool)
        if SPATIAL_PREDICATE_NAMES[expr.name] in _INTERSECTS_NAMES:
            # A box meets every geometry whose envelope lies inside
            # it, and two boxes whose envelopes interact meet: those
            # pairs are a definite True with no exact test.
            boxed_a = box_a[inv_a]
            boxed_b = box_b[inv_b]
            res = (
                (boxed_a & _inside(b, a))
                | (boxed_b & _inside(a, b))
                | (boxed_a & boxed_b & overlap)
            )
            overlap &= ~res
        # A pruned pair is a definite False only when both sides
        # really are geometries; per-row evaluation errors otherwise.
        # Envelope-interacting pairs all have real geometries on both
        # sides, and the exact predicate applies its own error
        # semantics to them below.
        valid = ok_a[inv_a] & ok_b[inv_b]
        if _metrics.enabled:
            _metrics.histogram(
                "stsparql_columnar_spatial_exact_pairs",
                "Distinct pairs reaching the exact spatial predicate "
                "after envelope pruning",
            ).observe(float(np.count_nonzero(overlap)))
        for ci in self._checked(np.nonzero(overlap)[0]):
            row = {}
            if sides[0][0] == "var":
                row[sides[0][1]] = terms_a[inv_a[ci]]
            if sides[1][0] == "var":
                row[sides[1][1]] = terms_b[inv_b[ci]]
            try:
                res[ci] = effective_boolean(
                    self._eval_expr(expr, row)
                )
            except ExpressionError:
                valid[ci] = False
        return res[inverse], valid[inverse]

    def _side_geometries(
        self, ids: np.ndarray
    ) -> Tuple[List[Any], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Distinct-term geometry lookup for one spatial-pair side.

        Returns ``(terms, ok, env, box, inverse)`` over the distinct
        ids: the decoded terms, whether each coerces to a geometry, the
        envelopes as an ``(n, 4)`` minx/miny/maxx/maxy array (NaN rows
        for non-geometries and empty geometries), and whether each is a
        box (:func:`_is_box`).  Stored terms
        memoise on the graph itself — term ids are append-only for the
        graph's lifetime, so entries never invalidate.
        """
        uniq, inverse = np.unique(ids, return_inverse=True)
        inverse = inverse.reshape(-1)
        try:
            cache = _GEOM_CACHE.get(self.graph)
        except TypeError:
            cache = None
        if cache is None:
            cache = {}
            try:
                _GEOM_CACHE[self.graph] = cache
            except TypeError:
                pass
        terms: List[Any] = []
        ok = np.zeros(len(uniq), dtype=bool)
        env = np.full((len(uniq), 4), np.nan, dtype=np.float64)
        box = np.zeros(len(uniq), dtype=bool)
        for i, raw in self._checked(enumerate(uniq)):
            tid = int(raw)
            entry = cache.get(tid) if tid < LOCAL_BASE else None
            if entry is None:
                term = self._decode(tid)
                try:
                    geom = as_geometry(to_value(term))
                except ExpressionError:
                    geom = None
                if geom is None or geom.is_empty:
                    bounds = None
                else:
                    e = geom.envelope
                    bounds = (e.minx, e.miny, e.maxx, e.maxy)
                entry = (term, geom is not None, bounds, _is_box(geom))
                if tid < LOCAL_BASE:
                    cache[tid] = entry
            terms.append(entry[0])
            ok[i] = entry[1]
            if entry[2] is not None:
                env[i] = entry[2]
            box[i] = entry[3]
        return terms, ok, env, box, inverse

    def _scalar_side(
        self, arg: ast.Expression, batch: Batch
    ) -> Optional[Tuple[List[Any], np.ndarray]]:
        """Distinct evaluation values of one comparison side.

        Returns ``(values, inverse)`` where ``values`` holds each
        distinct value (``_ERR`` marks cells per-row evaluation would
        error on) and ``inverse`` maps rows to value indices.
        """
        if isinstance(arg, ast.TermExpr):
            term = arg.term
            if isinstance(term, Variable):
                col = batch.columns.get(term.name)
                if col is None:
                    return (
                        [_ERR],
                        np.zeros(batch.length, dtype=np.intp),
                    )
                uniq, inverse = np.unique(col, return_inverse=True)
                values: List[Any] = [
                    _ERR
                    if tid == UNBOUND
                    else to_value(self._decode(int(tid)))
                    for tid in self._checked(uniq)
                ]
                return values, inverse.reshape(-1)
            return (
                [to_value(term)],
                np.zeros(batch.length, dtype=np.intp),
            )
        if (
            isinstance(arg, ast.FunctionCall)
            and arg.name == "str"
            and len(arg.args) == 1
        ):
            inner = self._scalar_side(arg.args[0], batch)
            if inner is None:
                return None
            vals, inverse = inner
            out: List[Any] = []
            for v in vals:
                if v is _ERR:
                    out.append(_ERR)
                else:
                    try:
                        out.append(as_string(v))
                    except ExpressionError:
                        out.append(_ERR)
            return out, inverse
        return None

    def _vector_compare(
        self,
        op: str,
        left: ast.Expression,
        right: ast.Expression,
        batch: Batch,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        lside = self._scalar_side(left, batch)
        if lside is None:
            return None
        rside = self._scalar_side(right, batch)
        if rside is None:
            return None
        lvals, linv = lside
        rvals, rinv = rside
        pool = [v for v in lvals + rvals if v is not _ERR]
        if not pool:
            zeros = np.zeros(batch.length, dtype=bool)
            return zeros, zeros
        keys = _comparison_keys(pool, lvals, rvals)
        if keys is None:
            return None
        lkeys, lok, rkeys, rok = keys
        lk = lkeys[linv]
        rk = rkeys[rinv]
        valid = lok[linv] & rok[rinv]
        if op == "=":
            res = lk == rk
        elif op == "!=":
            res = lk != rk
        elif op == "<":
            res = lk < rk
        elif op == "<=":
            res = lk <= rk
        elif op == ">":
            res = lk > rk
        else:
            res = lk >= rk
        return res, valid

    def _vector_temporal(
        self, expr: ast.FunctionCall, batch: Batch
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        local = _TEMPORAL_VECTOR_NAMES[expr.name]
        lside = self._scalar_side(expr.args[0], batch)
        if lside is None:
            return None
        rside = self._scalar_side(expr.args[1], batch)
        if rside is None:
            return None
        lvals, linv = lside
        rvals, rinv = rside
        from datetime import datetime

        instants: List[datetime] = []
        for v in rvals:
            if v is _ERR:
                continue
            if not isinstance(v, Period):
                return None
            instants.extend((v.start, v.end))
        allow_instant = local == "during"
        for v in lvals:
            if v is _ERR:
                continue
            if isinstance(v, Period):
                instants.extend((v.start, v.end))
            elif allow_instant and isinstance(v, datetime):
                instants.append(v)
            else:
                return None
        if not instants:
            zeros = np.zeros(batch.length, dtype=bool)
            return zeros, zeros
        aware = instants[0].tzinfo is not None
        if any((t.tzinfo is not None) != aware for t in instants):
            return None  # mixed awareness: defer to per-row semantics

        def side_arrays(vals: List[Any]):
            start = np.zeros(len(vals), dtype=np.int64)
            end = np.zeros(len(vals), dtype=np.int64)
            ok = np.zeros(len(vals), dtype=bool)
            is_instant = np.zeros(len(vals), dtype=bool)
            for i, v in enumerate(vals):
                if v is _ERR:
                    continue
                if isinstance(v, Period):
                    start[i] = instant_key(v.start)
                    end[i] = instant_key(v.end)
                elif isinstance(v, datetime):
                    start[i] = end[i] = instant_key(v)
                    is_instant[i] = True
                else:  # pragma: no cover - filtered above
                    continue
                ok[i] = True
            return start, end, ok, is_instant

        a_start, a_end, a_ok, a_instant = side_arrays(lvals)
        b_start, b_end, b_ok, _ = side_arrays(rvals)
        asx = a_start[linv]
        aex = a_end[linv]
        bsx = b_start[rinv]
        bex = b_end[rinv]
        valid = a_ok[linv] & b_ok[rinv]
        if local == "before":
            res = aex <= bsx
        elif local == "after":
            res = bex <= asx
        elif local == "meets":
            res = aex == bsx
        elif local == "periodOverlaps":
            res = (asx < bex) & (bsx < aex)
        elif local == "periodContains":
            res = (asx <= bsx) & (bex <= aex)
        else:  # during
            inst = a_instant[linv]
            res = np.where(
                inst,
                (bsx <= asx) & (asx < bex),
                (bsx <= asx) & (aex <= bex),
            )
        return res, valid

    # -- OPTIONAL / BIND / MINUS / subselect ----------------------------

    def _correlate(
        self, pattern: ast.GroupGraphPattern, batch: Batch
    ) -> Tuple[np.ndarray, Batch, np.ndarray, np.ndarray]:
        """Evaluate ``pattern`` under every row's bindings at once.

        The distinct bindings of the batch's columns the pattern
        mentions become seed rows, each tagged with its index in the
        hidden ``_ROW_ID`` column.  Seeds are grouped by which of those
        columns they bind, and each group is one evaluation — so every
        evaluation plans with its rows' own bound domain, and a
        solution keeps the tag of the binding it extends.

        Returns ``(inverse, sub, starts, counts)``: ``inverse`` maps
        batch rows to binding indices, ``sub`` holds the solutions
        stably sorted by tag, and binding ``i``'s solutions are
        ``sub`` rows ``starts[i]`` to ``starts[i] + counts[i]``.
        OPTIONAL left-joins on the tag, MINUS anti-joins and EXISTS
        semi-joins.
        """
        names = sorted(
            n for n in _pattern_variables(pattern) if n in batch.columns
        )
        combos, inverse = _distinct_combos(
            batch, names, self._check_deadline
        )
        bound = combos != UNBOUND
        if names:
            masks, group = np.unique(bound, axis=0, return_inverse=True)
            group = group.reshape(-1)
        else:
            masks, group = bound[:1], np.zeros(len(combos), dtype=np.intp)
        pieces: List[Batch] = []
        for gi, mask in self._checked(enumerate(masks)):
            ids = np.flatnonzero(group == gi)
            seed = {
                name: combos[ids, j]
                for j, name in enumerate(names)
                if mask[j]
            }
            seed[_ROW_ID] = ids.astype(np.int64)
            pieces.append(
                self._eval_group_batch(pattern, Batch(len(ids), seed))
            )
        sub = pieces[0] if len(pieces) == 1 else _concat_batches(pieces)
        tags = sub.columns.get(_ROW_ID, _empty_column(0))
        order = np.argsort(tags, kind="stable")
        sub = sub.take(order)
        counts = np.bincount(tags, minlength=len(combos))
        starts = np.cumsum(counts) - counts
        return inverse, sub, starts, counts

    def _optional_batch(
        self, pattern: ast.GroupGraphPattern, batch: Batch
    ) -> Batch:
        """Left join: a row extends by each solution of ``pattern``
        under its bindings that agrees with it, and passes through
        unchanged when there is no solution at all."""
        if batch.length == 0:
            return batch
        inverse, sub, starts, counts = self._correlate(pattern, batch)
        if not sub.length:
            return batch
        per_row = counts[inverse]
        matched = per_row > 0
        row_idx, within = _expand(np.where(matched, per_row, 1))
        pos = np.where(
            matched[row_idx], starts[inverse[row_idx]] + within, -1
        )
        # A solution agrees with its row unless a BIND rebound a
        # variable the row binds.
        merged = _merge_join(batch, sub, row_idx, pos)
        self._check_deadline()
        return merged

    def _exists_mask(
        self, pattern: ast.GroupGraphPattern, batch: Batch
    ) -> np.ndarray:
        """Per row: does ``pattern`` have a solution under its
        bindings?"""
        inverse, _sub, _starts, counts = self._correlate(pattern, batch)
        return counts[inverse] > 0

    def _with_exists(self, expr: ast.Expression, batch: Batch) -> Batch:
        """``batch`` plus one hidden column per EXISTS in ``expr``
        holding its answer for every row, so the expression evaluates
        per distinct combination like any other."""
        nodes = _exists_nodes(expr)
        if not nodes or not batch.length:
            return batch
        answers = np.array(
            [self._encode(to_term(False)), self._encode(to_term(True))],
            dtype=np.int64,
        )
        columns = dict(batch.columns)
        for node in nodes:
            mask = self._exists_mask(node.pattern, batch)
            columns[_exists_column(node)] = answers[mask.astype(np.intp)]
        return Batch(batch.length, columns)

    def _exists(self, expr: ast.ExistsExpr, row: Row) -> bool:
        answer = row.get(_exists_column(expr))
        if answer is not None:
            return bool(to_value(answer))
        # Outside a group FILTER or BIND (a projection, HAVING, ORDER
        # BY): answer for this row alone.
        only = self._rows_batch([row])
        return bool(self._exists_mask(expr.pattern, only)[0])

    def _bind_batch(self, element: ast.Bind, batch: Batch) -> Batch:
        return self._by_chunks(self._bind_chunk, element, batch)

    def _bind_chunk(self, element: ast.Bind, batch: Batch) -> Batch:
        if batch.length == 0:
            return batch
        probe = self._with_exists(element.expression, batch)
        names = _expression_columns(element.expression, probe)
        combos, inverse = _distinct_combos(probe, names)
        var = element.variable.name
        old = batch.columns.get(var)
        dest = (
            old.copy() if old is not None else _empty_column(batch.length)
        )
        for ci, combo in self._checked(enumerate(combos)):
            row = self._combo_row(names, combo)
            try:
                value = self._eval_expr(element.expression, row)
                tid = self._encode(to_term(value))
            except ExpressionError:
                continue  # keep the previous binding, like the per-row path
            dest[inverse == ci] = tid
        columns = dict(batch.columns)
        columns[var] = dest
        return Batch(batch.length, columns)

    def _union_batch(
        self, element: ast.UnionPattern, batch: Batch
    ) -> Batch:
        """Both branches under the batch's bindings, stacked."""
        left = self._eval_group_batch(element.left, batch)
        right = self._eval_group_batch(element.right, batch)
        union = _concat_batches([left, right])
        self._check_deadline()
        return union

    def _minus_batch(
        self, pattern: ast.GroupGraphPattern, batch: Batch
    ) -> Batch:
        """Keep the rows under whose bindings ``pattern`` has no
        solution."""
        if batch.length == 0:
            return batch
        kept = batch.take(
            np.flatnonzero(~self._exists_mask(pattern, batch))
        )
        self._check_deadline()
        return kept

    def _subselect_batch(
        self, query: ast.SelectQuery, batch: Batch
    ) -> Batch:
        """Join the batch with the subselect's solutions."""
        solutions = self.select(query)
        if batch.length == 0:
            return batch
        return self._join_batch(batch, self._rows_batch(solutions.rows))

    def _join_batch(self, batch: Batch, sub: Batch) -> Batch:
        """Each batch row extended by every ``sub`` row that agrees
        with it on the variables they share (an unbound side agrees
        with anything), batch row by batch row in ``sub`` order."""
        shared = [v for v in sub.columns if v in batch.columns]
        combos, inverse = _distinct_combos(
            batch, shared, self._check_deadline
        )
        matches = []
        for combo in self._checked(combos.tolist()):
            agree = np.ones(sub.length, dtype=bool)
            for name, tid in zip(shared, combo):
                if tid != UNBOUND:
                    col = sub.columns[name]
                    agree &= (col == tid) | (col == UNBOUND)
            matches.append(np.flatnonzero(agree))
        counts = np.array([len(m) for m in matches], dtype=np.int64)
        row_idx, within = _expand(counts[inverse])
        starts = np.cumsum(counts) - counts
        pos = np.concatenate(matches)[starts[inverse[row_idx]] + within]
        return _merge_join(batch, sub, row_idx, pos)


#: Local names of the spatial predicates that mean "the geometries
#: share a point".
_INTERSECTS_NAMES = frozenset(("anyInteract", "intersects", "sfIntersects"))


def _is_box(geom: Any) -> bool:
    """Whether ``geom`` is a polygon equal to its envelope: no holes,
    and a ring through the envelope's four corners along axis-parallel
    edges."""
    if not isinstance(geom, Polygon) or geom.holes:
        return False
    ring = list(geom.shell.coordinates())
    e = geom.envelope
    corners = {
        (e.minx, e.miny), (e.minx, e.maxy), (e.maxx, e.miny), (e.maxx, e.maxy)
    }
    return (
        len(ring) == 5
        and len(corners) == 4
        and set(ring) == corners
        and all(p[0] == q[0] or p[1] == q[1] for p, q in zip(ring, ring[1:]))
    )


def _inside(inner: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """Per row: does envelope ``inner`` lie within envelope ``outer``
    (``(n, 4)`` minx/miny/maxx/maxy arrays; NaN rows never do)?"""
    return (
        (inner[:, 0] >= outer[:, 0])
        & (inner[:, 1] >= outer[:, 1])
        & (inner[:, 2] <= outer[:, 2])
        & (inner[:, 3] <= outer[:, 3])
    )


def _data_rows(block: ast.InlineData) -> List[Row]:
    """A ``VALUES`` block's rows as bindings (UNDEF cells unbound)."""
    return [
        {
            var.name: term
            for var, term in zip(block.columns, row)
            if term is not None
        }
        for row in block.rows
    ]


def _expand(counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row ``i`` repeated ``counts[i]`` times, and each copy's index
    among its repeats."""
    row_idx = np.repeat(np.arange(len(counts)), counts)
    offsets = np.cumsum(counts) - counts
    return row_idx, np.arange(len(row_idx)) - np.repeat(offsets, counts)


def _merge_join(
    batch: Batch, sub: Batch, row_idx: np.ndarray, pos: np.ndarray
) -> Batch:
    """Rows ``row_idx`` of ``batch``, each merged with row ``pos`` of
    ``sub`` (-1: none).  A pair whose shared variables are bound to
    different terms is dropped; ``sub``'s row tags are not copied."""
    hit = pos >= 0
    at = np.where(hit, pos, 0)
    out = {name: col[row_idx] for name, col in batch.columns.items()}
    keep = np.ones(len(row_idx), dtype=bool)
    for name, col in sub.columns.items():
        if name == _ROW_ID:
            continue
        vals = np.where(hit, col[at], UNBOUND)
        current = out.get(name)
        if current is None:
            out[name] = vals
            continue
        keep &= (current == UNBOUND) | (vals == UNBOUND) | (current == vals)
        out[name] = np.where(current != UNBOUND, current, vals)
    merged = Batch(len(row_idx), out)
    return merged if keep.all() else merged.take(np.flatnonzero(keep))


def _exists_column(expr: ast.ExistsExpr) -> str:
    """The hidden column carrying one EXISTS expression's answers."""
    return f"\0exists{id(expr)}"


def _exists_nodes(expr: ast.Expression) -> List[ast.ExistsExpr]:
    """The EXISTS expressions of ``expr`` outside any EXISTS pattern."""
    if isinstance(expr, ast.ExistsExpr):
        return [expr]
    if isinstance(expr, ast.UnaryExpr):
        return _exists_nodes(expr.operand)
    if isinstance(expr, ast.BinaryExpr):
        return _exists_nodes(expr.left) + _exists_nodes(expr.right)
    if isinstance(expr, ast.FunctionCall):
        return [n for arg in expr.args for n in _exists_nodes(arg)]
    return []


def _expression_columns(expr: ast.Expression, batch: Batch) -> List[str]:
    """The batch columns evaluating ``expr`` on a row reads."""
    names = _expr_variables(expr)
    names.update(_exists_column(n) for n in _exists_nodes(expr))
    return sorted(names & set(batch.columns))


def _comparison_keys(
    pool: List[Any], lvals: List[Any], rvals: List[Any]
):
    """Numeric or datetime sort keys for both comparison sides.

    Returns ``(lkeys, lok, rkeys, rok)`` arrays or None when the value
    mix has no uniform vectorisable ordering (strings, mixed types,
    mixed timezone awareness) — those defer to the per-row semantics.
    """
    from datetime import datetime

    if all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        for v in pool
    ):
        def keys(vals: List[Any]):
            arr = np.zeros(len(vals), dtype=np.float64)
            ok = np.zeros(len(vals), dtype=bool)
            for i, v in enumerate(vals):
                if v is _ERR:
                    continue
                arr[i] = float(v)
                ok[i] = True
            return arr, ok

        lk, lok = keys(lvals)
        rk, rok = keys(rvals)
        return lk, lok, rk, rok
    if all(isinstance(v, datetime) for v in pool):
        aware = pool[0].tzinfo is not None
        if any((v.tzinfo is not None) != aware for v in pool):
            return None

        def dkeys(vals: List[Any]):
            arr = np.zeros(len(vals), dtype=np.int64)
            ok = np.zeros(len(vals), dtype=bool)
            for i, v in enumerate(vals):
                if v is _ERR:
                    continue
                arr[i] = instant_key(v)
                ok[i] = True
            return arr, ok

        lk, lok = dkeys(lvals)
        rk, rok = dkeys(rvals)
        return lk, lok, rk, rok
    return None
