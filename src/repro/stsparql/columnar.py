"""Vectorised columnar stSPARQL execution.

The interpreted :class:`~repro.stsparql.eval.Evaluator` carries bindings
as one dict per solution row; every join step copies dicts and every
filter re-evaluates its expression per row.  This module executes the
same plans over *columns*: each variable is an ``int64`` array of
dictionary identifiers backed by the RDF store's term dictionary
(:meth:`~repro.rdf.graph.TripleReader.term_id`), joins expand via index
arithmetic instead of dict copies, and filters are either evaluated as
numpy array expressions (numeric and datetime comparisons, Allen-style
temporal relations) or memoised per *distinct* binding combination so
each spatial predicate pair is computed once per batch.

Semantics are identical to the interpreted engine by construction:

* join order comes from the shared :meth:`Evaluator._order_patterns`
  selectivity planner,
* per-combination matching reuses the exact inference / R-tree
  restriction branches of :meth:`Evaluator._match_triple`,
* solution modifiers (projection, grouping, DISTINCT, ORDER BY,
  OFFSET/LIMIT) run on the decoded rows through the inherited
  implementations,
* inside an operator, anything the vector paths cannot express (e.g. a
  string filter) runs the inherited per-row code on the same evaluator
  state, once per distinct binding combination.

The differential harness in ``tests/stsparql/test_differential.py``
holds the two engines equal over a randomised query corpus.

Identifier space: graph dictionary ids are dense non-negative ints;
terms that only exist in bindings (parameters, computed values) are
interned locally from ``LOCAL_BASE`` upward; ``UNBOUND`` (-1) marks an
absent binding.  Equal terms always map to equal ids — the graph
dictionary is consulted first — so id equality is term equality.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Set, Tuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.obs import get_metrics
from repro.rdf.namespace import RDF, STRDF
from repro.rdf.temporal import Period
from repro.rdf.term import Term, Variable
from repro.stsparql import ast
from repro.stsparql.errors import ExpressionError, SparqlEvalError
from repro.stsparql.eval import (
    _COMPARISON_OPS,
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
    """Variables bound in the batch's first row (the per-row engine's
    ``set(rows[0])``)."""
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
    batch: Batch, names: Sequence[str]
) -> Tuple[np.ndarray, np.ndarray]:
    """``(combos, inverse)`` over the named columns.

    ``combos`` is a ``(k, len(names))`` matrix of distinct value rows,
    ``inverse`` maps each batch row to its combo index.
    """
    if not names:
        return (
            np.zeros((1, 0), dtype=np.int64),
            np.zeros(batch.length, dtype=np.intp),
        )
    mat = np.stack([batch.columns[name] for name in names], axis=1)
    combos, inverse = np.unique(mat, axis=0, return_inverse=True)
    return combos, inverse.reshape(-1)


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
        rows = [
            (s, o) for s, _p, o in graph.triples_ids(None, pi, None)
        ]
        if rows:
            mat = np.asarray(rows, dtype=np.int64)
            views = (
                np.ascontiguousarray(mat[:, 0]),
                np.ascontiguousarray(mat[:, 1]),
            )
        else:
            empty = np.empty(0, dtype=np.int64)
            views = (empty, empty)
        entry[1][pi] = views
    return views


class ColumnarEvaluator(Evaluator):
    """Batch evaluator — same plans, same results, columnar execution."""

    engine_name = "columnar"

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

    # -- batch <-> row conversion ---------------------------------------

    def _seed_batch(self) -> Batch:
        """The seed rows as columns: one row per parameter mapping."""
        seeds = self.seeds
        names = seeds[0] if seeds else ()
        columns = {
            name: np.fromiter(
                (self._encode(row[name]) for row in seeds),
                dtype=np.int64,
                count=len(seeds),
            )
            for name in names
        }
        return Batch(len(seeds), columns)

    def _batch_to_rows(self, batch: Batch) -> List[Row]:
        decode = self._decode
        cache: Dict[int, Term] = {}
        columns = [
            (name, col.tolist()) for name, col in batch.columns.items()
        ]
        rows: List[Row] = []
        for i in range(batch.length):
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
                left = self._eval_group_batch(element.left, batch)
                right = self._eval_group_batch(element.right, batch)
                batch = _concat_batches([left, right])
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
                return fast
        names = sorted(combo_names)
        match_cache: Dict[Tuple[int, ...], Tuple] = {}
        pieces: List[Batch] = []
        for start in range(0, batch.length, CHUNK_ROWS):
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
        two id arrays and the join is ``searchsorted`` arithmetic.
        ``rdf:type`` under inference joins against the (row-independent)
        ``instances_of`` set the same way.  Returns None when the
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
            instances = list(self.inference.instances_of(obj))
            if s_role[0] == "bound" and n * 8 < len(instances):
                # Tiny batch against a big closure: per-combination
                # membership probes beat materialising the relation.
                return None
            s_rel = np.fromiter(
                (self._encode(t) for t in instances),
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
                rows = list(graph.triples_ids(sid, pi, oid))
                if rows:
                    mat = np.asarray(rows, dtype=np.int64)
                    s_rel = np.ascontiguousarray(mat[:, 0])
                    o_rel = np.ascontiguousarray(mat[:, 2])
                else:
                    s_rel, o_rel = empty, empty
            else:
                if (
                    s_role[0] == "bound" or o_role[0] == "bound"
                ) and n * 8 < graph.count_ids(None, pi, None):
                    # A bound column over a tiny batch: per-row index
                    # probes are O(batch) while the vector join would
                    # materialise and sort the whole relation.
                    return None
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
        total = int(counts.sum())
        row_idx = np.repeat(np.arange(n), counts)
        offsets = np.cumsum(counts) - counts
        within = np.arange(total, dtype=np.int64) - np.repeat(
            offsets, counts
        )
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
        return Batch(int(len(row_idx)), out_cols)

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
        for combo in combos:
            key = tuple(int(v) for v in combo)
            res = match_cache.get(key)
            if res is None:
                row = self._combo_row(combo_names, combo)
                res = self._match_combo(
                    pattern, row, group_filters, probe
                )
                match_cache[key] = res
            results.append(res)
        counts = np.array(
            [results[i][0] for i in inverse], dtype=np.int64
        )
        total = int(counts.sum())
        row_idx = np.repeat(np.arange(n), counts)
        offsets = np.cumsum(counts) - counts
        within = np.arange(total) - np.repeat(offsets, counts)
        combo_of_out = inverse[row_idx]
        out_cols = {
            name: col[row_idx] for name, col in batch.columns.items()
        }
        for term in (pattern.subject, pattern.predicate, pattern.object):
            if isinstance(term, Variable) and term.name not in out_cols:
                out_cols[term.name] = _empty_column(total)
        for ci, (_count, produced) in enumerate(results):
            if not produced:
                continue
            mask = combo_of_out == ci
            if not mask.any():
                continue
            pos = within[mask]
            for name, arr in produced:
                out_cols[name][mask] = arr[pos]
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
        row: Row,
        group_filters: List[ast.Filter],
        probe: _Probe,
    ) -> Tuple[int, List[Tuple[str, np.ndarray]]]:
        """All matches of ``pattern`` under one binding combination.

        Returns ``(count, [(new_var, id_array), ...])`` — the same
        candidate enumeration (inference, R-tree restriction with the
        probe's subject checks, repeated variable consistency) as
        :meth:`Evaluator._match_triple`, run once per *distinct*
        combination instead of once per row.
        """
        graph = self.graph
        restriction = self._spatial_restriction(
            pattern, row, group_filters
        )
        if restriction is not None and _metrics.enabled:
            _metrics.histogram(
                "stsparql_columnar_candidates",
                "R-tree candidate-set sizes used by the columnar engine",
            ).observe(float(len(restriction)), site="bgp")
        slots = (pattern.subject, pattern.predicate, pattern.object)

        def resolve_term(term: Term) -> Optional[Term]:
            if isinstance(term, Variable):
                return row.get(term.name)
            return term

        s = resolve_term(pattern.subject)
        p = resolve_term(pattern.predicate)
        o = resolve_term(pattern.object)
        new_names: List[str] = []
        for term in slots:
            if (
                isinstance(term, Variable)
                and term.name not in row
                and term.name not in new_names
            ):
                new_names.append(term.name)
        candidates = None
        if self.inference is not None and p == RDF.type:
            candidates = self._inferred_types(s, o)
        elif restriction is not None and o is None:
            candidates = self._restricted_triples(
                s, p, restriction, probe
            )
        out: Dict[str, List[int]] = {name: [] for name in new_names}
        count = 0
        if candidates is None:
            # Plain index walk — stay in id space end to end.
            ids: List[Optional[int]] = []
            reachable = True
            for term in (s, p, o):
                if term is None:
                    ids.append(None)
                    continue
                tid = graph.term_id(term)
                if tid is None:
                    reachable = False
                    break
                ids.append(tid)
            if reachable:
                for triple in graph.triples_ids(*ids):
                    local: Dict[str, int] = {}
                    good = True
                    for slot_term, value in zip(slots, triple):
                        if (
                            isinstance(slot_term, Variable)
                            and slot_term.name not in row
                        ):
                            prev = local.get(slot_term.name)
                            if prev is None:
                                local[slot_term.name] = value
                            elif prev != value:
                                good = False
                                break
                    if good:
                        count += 1
                        for name in new_names:
                            out[name].append(local[name])
        else:
            encode = self._encode
            for t_s, t_p, t_o in candidates:
                local_t: Dict[str, Term] = {}
                good = True
                for slot_term, value in zip(slots, (t_s, t_p, t_o)):
                    if (
                        isinstance(slot_term, Variable)
                        and slot_term.name not in row
                    ):
                        prev_t = local_t.get(slot_term.name)
                        if prev_t is None:
                            local_t[slot_term.name] = value
                        elif prev_t != value:
                            good = False
                            break
                if good:
                    count += 1
                    for name in new_names:
                        out[name].append(encode(local_t[name]))
        produced = [
            (name, np.array(out[name], dtype=np.int64))
            for name in new_names
        ]
        return count, produced

    # -- filters --------------------------------------------------------

    def _filter_batch(
        self, expr: ast.Expression, batch: Batch
    ) -> Batch:
        if batch.length == 0:
            return batch
        vec = self._vector_filter(expr, batch)
        if vec is not None:
            res, valid = vec
            keep = res & valid
            if _metrics.enabled:
                _metrics.counter(
                    "stsparql_columnar_vectorised_filters_total",
                    "FILTER evaluations answered by array formulas",
                ).inc()
        else:
            keep = self._generic_filter_mask(expr, batch)
        return batch.take(np.flatnonzero(keep))

    def _generic_filter_mask(
        self, expr: ast.Expression, batch: Batch
    ) -> np.ndarray:
        """Per-row semantics, per-*distinct-combination* evaluation."""
        names = sorted(
            _expr_variables(expr) & set(batch.columns)
        )
        if not names:
            passes = self._filter_passes(expr, {})
            return np.full(batch.length, passes, dtype=bool)
        combos, inverse = _distinct_combos(batch, names)
        results = np.empty(len(combos), dtype=bool)
        for ci, combo in enumerate(combos):
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

        ``valid`` is False where the interpreted engine would raise
        ``ExpressionError`` (the enclosing FILTER then rejects the row);
        three-valued logic composes errors exactly like the per-row
        short-circuit code.
        """
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
        side is not a geometry at all, which the per-row engine treats
        as an error (``valid`` False here).
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

        terms_a, ok_a, env_a, inv_a = self._side_geometries(
            combos[:, 0]
        )
        terms_b, ok_b, env_b, inv_b = self._side_geometries(
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
        # A pruned pair is a definite False only when both sides
        # really are geometries; the per-row engine errors otherwise.
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
        for ci in np.nonzero(overlap)[0]:
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
    ) -> Tuple[List[Any], np.ndarray, np.ndarray, np.ndarray]:
        """Distinct-term geometry lookup for one spatial-pair side.

        Returns ``(terms, ok, env, inverse)`` over the distinct ids:
        the decoded terms, whether each coerces to a geometry, and the
        envelopes as an ``(n, 4)`` minx/miny/maxx/maxy array (NaN rows
        for non-geometries and empty geometries).  Stored terms
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
        for i, raw in enumerate(uniq):
            tid = int(raw)
            entry = cache.get(tid) if tid < LOCAL_BASE else None
            if entry is None:
                term = self._decode(tid)
                try:
                    geom = as_geometry(to_value(term))
                except ExpressionError:
                    geom = None
                if geom is None or geom.is_empty:
                    box = None
                else:
                    e = geom.envelope
                    box = (e.minx, e.miny, e.maxx, e.maxy)
                entry = (term, geom is not None, box)
                if tid < LOCAL_BASE:
                    cache[tid] = entry
            terms.append(entry[0])
            ok[i] = entry[1]
            if entry[2] is not None:
                env[i] = entry[2]
        return terms, ok, env, inverse

    def _scalar_side(
        self, arg: ast.Expression, batch: Batch
    ) -> Optional[Tuple[List[Any], np.ndarray]]:
        """Distinct evaluation values of one comparison side.

        Returns ``(values, inverse)`` where ``values`` holds each
        distinct value (``_ERR`` marks cells the per-row engine would
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
                    for tid in uniq
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

    def _optional_batch(
        self, pattern: ast.GroupGraphPattern, batch: Batch
    ) -> Batch:
        if batch.length == 0:
            return batch
        relevant = _pattern_variables(pattern)
        names = sorted(n for n in relevant if n in batch.columns)
        combos, inverse = _distinct_combos(batch, names)
        subs: List[Batch] = []
        compat_idx: List[Optional[np.ndarray]] = []
        counts_per_combo = np.zeros(len(combos), dtype=np.int64)
        for ci, combo in enumerate(combos):
            seed_cols = {
                name: np.full(1, int(tid), dtype=np.int64)
                for name, tid in zip(names, combo)
                if tid != UNBOUND
            }
            sub = self._eval_group_batch(pattern, Batch(1, seed_cols))
            subs.append(sub)
            if sub.length == 0:
                compat_idx.append(None)
                counts_per_combo[ci] = 1  # the row passes through
                continue
            compat = np.ones(sub.length, dtype=bool)
            for name, tid in zip(names, combo):
                if tid == UNBOUND:
                    continue
                col = sub.columns.get(name)
                if col is not None:
                    compat &= (col == int(tid)) | (col == UNBOUND)
            idx = np.flatnonzero(compat)
            compat_idx.append(idx)
            counts_per_combo[ci] = len(idx)
        counts = counts_per_combo[inverse]
        total = int(counts.sum())
        row_idx = np.repeat(np.arange(batch.length), counts)
        offsets = np.cumsum(counts) - counts
        within = np.arange(total) - np.repeat(offsets, counts)
        combo_of_out = inverse[row_idx]
        out_cols = {
            name: col[row_idx] for name, col in batch.columns.items()
        }
        new_names: List[str] = []
        for sub in subs:
            for name in sub.columns:
                if name not in out_cols and name not in new_names:
                    new_names.append(name)
        for name in new_names:
            out_cols[name] = _empty_column(total)
        for ci, sub in enumerate(subs):
            idx = compat_idx[ci]
            if idx is None or len(idx) == 0:
                continue
            mask = combo_of_out == ci
            if not mask.any():
                continue
            pos = idx[within[mask]]
            for name, col in sub.columns.items():
                dest = out_cols[name]
                vals = col[pos]
                current = dest[mask]
                dest[mask] = np.where(
                    current != UNBOUND, current, vals
                )
        return Batch(total, out_cols)

    def _bind_batch(self, element: ast.Bind, batch: Batch) -> Batch:
        if batch.length == 0:
            return batch
        names = sorted(
            _expr_variables(element.expression) & set(batch.columns)
        )
        combos, inverse = _distinct_combos(batch, names)
        var = element.variable.name
        old = batch.columns.get(var)
        dest = (
            old.copy() if old is not None else _empty_column(batch.length)
        )
        for ci, combo in enumerate(combos):
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

    def _minus_batch(
        self, pattern: ast.GroupGraphPattern, batch: Batch
    ) -> Batch:
        if batch.length == 0:
            return batch
        relevant = _pattern_variables(pattern)
        names = sorted(n for n in relevant if n in batch.columns)
        combos, inverse = _distinct_combos(batch, names)
        keep_combo = np.zeros(len(combos), dtype=bool)
        for ci, combo in enumerate(combos):
            seed_cols = {
                name: np.full(1, int(tid), dtype=np.int64)
                for name, tid in zip(names, combo)
                if tid != UNBOUND
            }
            sub = self._eval_group_batch(pattern, Batch(1, seed_cols))
            keep_combo[ci] = sub.length == 0
        return batch.take(np.flatnonzero(keep_combo[inverse]))

    def _subselect_batch(
        self, query: ast.SelectQuery, batch: Batch
    ) -> Batch:
        sub = self.select(query)
        if batch.length == 0:
            return batch
        encode = self._encode
        sub_cols = {
            name: np.array(
                [
                    encode(row[name]) if row.get(name) is not None
                    else UNBOUND
                    for row in sub.rows
                ],
                dtype=np.int64,
            )
            for name in sub.variables
        }
        shared = [v for v in sub.variables if v in batch.columns]
        combos, inverse = _distinct_combos(batch, shared)
        n_sub = len(sub.rows)
        compat_idx: List[np.ndarray] = []
        counts_per_combo = np.zeros(len(combos), dtype=np.int64)
        for ci, combo in enumerate(combos):
            compat = np.ones(n_sub, dtype=bool)
            for name, tid in zip(shared, combo):
                if tid == UNBOUND:
                    continue
                col = sub_cols[name]
                compat &= (col == int(tid)) | (col == UNBOUND)
            idx = np.flatnonzero(compat)
            compat_idx.append(idx)
            counts_per_combo[ci] = len(idx)
        counts = counts_per_combo[inverse]
        total = int(counts.sum())
        row_idx = np.repeat(np.arange(batch.length), counts)
        offsets = np.cumsum(counts) - counts
        within = np.arange(total) - np.repeat(offsets, counts)
        combo_of_out = inverse[row_idx]
        out_cols = {
            name: col[row_idx] for name, col in batch.columns.items()
        }
        for name in sub.variables:
            if name not in out_cols:
                out_cols[name] = _empty_column(total)
        for ci in range(len(combos)):
            idx = compat_idx[ci]
            if len(idx) == 0:
                continue
            mask = combo_of_out == ci
            if not mask.any():
                continue
            pos = idx[within[mask]]
            for name in sub.variables:
                dest = out_cols[name]
                vals = sub_cols[name][pos]
                current = dest[mask]
                dest[mask] = np.where(
                    current != UNBOUND, current, vals
                )
        return Batch(total, out_cols)


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
