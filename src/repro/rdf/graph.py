"""A dictionary-encoded, triple-indexed RDF graph.

Terms are interned to integer identifiers; three nested-hash indexes
(SPO, POS, OSP) answer any triple pattern with at most one level of
iteration, mirroring how Strabon lays out its triple table plus indexes.
Identifiers are append-only for a graph's lifetime — removal and
:meth:`Graph.clear` drop index entries, never dictionary terms — so a
term id cached anywhere keeps naming the same term.

Two derived structures are maintained by every mutation so readers
never scan the store for them:

* a per-predicate triple counter (``count(None, p, None)`` is O(1)),
* an append-only **geometry log**: the ids of geometry-typed literals,
  appended whenever :meth:`Graph.add` makes such a literal the object of
  a triple while no other triple held it (a new literal, or one
  resurrected after all its triples were removed).  The stSPARQL
  engine feeds its R-tree from the log positions it has not indexed
  yet (:meth:`TripleReader.geometry_terms`); :meth:`Graph.clear` starts
  a new log and bumps :attr:`TripleReader.geometry_epoch`.

Two concrete classes share the read path (:class:`TripleReader`):

* :class:`Graph` — the mutable store refinement writes to,
* :class:`GraphSnapshot` — a frozen, generation-stamped view produced by
  :meth:`Graph.snapshot`.  Snapshots are **copy-on-write**: taking one is
  O(1) (the snapshot borrows the live indexes), and the *writer* pays for
  isolation by detaching onto private copies before its next mutation.
  Readers holding a snapshot therefore never block and never observe a
  torn update, no matter how the live graph moves on.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import SnapshotWriteError
from repro.rdf.term import Literal, Term, URI

Triple = Tuple[Term, Term, Term]
_Pattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]


class TripleReader:
    """The read-only face shared by :class:`Graph` and its snapshots."""

    _term_to_id: Dict[Term, int]
    _id_to_term: List[Term]
    _spo: Dict[int, Dict[int, Set[int]]]
    _pos: Dict[int, Dict[int, Set[int]]]
    _osp: Dict[int, Dict[int, Set[int]]]
    _predicate_counts: Dict[int, int]
    _geometry_log: List[int]
    _geometry_epoch: int
    _size: int
    _generation: int

    def _lookup(self, term: Term) -> Optional[int]:
        return self._term_to_id.get(term)

    # -- dictionary access -----------------------------------------------
    #
    # The columnar stSPARQL engine works on the integer identifiers the
    # graph already interns terms into, so the dictionary and the
    # ID-level index walk are part of the public read API.

    def term_id(self, term: Term) -> Optional[int]:
        """The dictionary identifier of ``term`` (None if not interned)."""
        return self._term_to_id.get(term)

    def term_for_id(self, tid: int) -> Term:
        """The term behind a dictionary identifier."""
        return self._id_to_term[tid]

    def term_count(self) -> int:
        """Number of interned terms (the dictionary size)."""
        return len(self._id_to_term)

    def triples_ids(
        self,
        si: Optional[int] = None,
        pi: Optional[int] = None,
        oi: Optional[int] = None,
    ) -> Iterator[Tuple[int, int, int]]:
        """Yield matching ``(sid, pid, oid)`` id-triples (None = wildcard).

        The ID-level twin of :meth:`triples`: callers that already hold
        dictionary identifiers skip the term lookups entirely.
        """
        if si is not None:
            by_p = self._spo.get(si, {})
            if pi is not None:
                objs = by_p.get(pi, ())
                if oi is not None:
                    if oi in objs:
                        yield (si, pi, oi)
                else:
                    for obj in list(objs):
                        yield (si, pi, obj)
            else:
                for pred, objs in list(by_p.items()):
                    if oi is not None:
                        if oi in objs:
                            yield (si, pred, oi)
                    else:
                        for obj in list(objs):
                            yield (si, pred, obj)
        elif pi is not None:
            by_o = self._pos.get(pi, {})
            if oi is not None:
                for subj in list(by_o.get(oi, ())):
                    yield (subj, pi, oi)
            else:
                for obj, subjects in list(by_o.items()):
                    for subj in list(subjects):
                        yield (subj, pi, obj)
        elif oi is not None:
            for subj, preds in list(self._osp.get(oi, {}).items()):
                for pred in list(preds):
                    yield (subj, pred, oi)
        else:
            for subj, by_p in list(self._spo.items()):
                for pred, objs in list(by_p.items()):
                    for obj in list(objs):
                        yield (subj, pred, obj)

    def count_ids(
        self,
        si: Optional[int] = None,
        pi: Optional[int] = None,
        oi: Optional[int] = None,
    ) -> int:
        """Cardinality of an ID-level pattern (cheap for bound pairs)."""
        if si is None and pi is None and oi is None:
            return self._size
        if si is not None and pi is not None and oi is None:
            return len(self._spo.get(si, {}).get(pi, ()))
        if pi is not None and oi is not None and si is None:
            return len(self._pos.get(pi, {}).get(oi, ()))
        if si is not None and pi is None and oi is None:
            return sum(
                len(objs) for objs in self._spo.get(si, {}).values()
            )
        if pi is not None and si is None and oi is None:
            return self._predicate_counts.get(pi, 0)
        if oi is not None and si is None and pi is None:
            return sum(
                len(preds)
                for preds in self._osp.get(oi, {}).values()
            )
        return sum(1 for _ in self.triples_ids(si, pi, oi))

    # -- access ----------------------------------------------------------

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        s, p, o = triple
        si, pi, oi = self._lookup(s), self._lookup(p), self._lookup(o)
        if si is None or pi is None or oi is None:
            return False
        return oi in self._spo.get(si, {}).get(pi, ())

    @property
    def generation(self) -> int:
        """Bumped on every mutation; used to invalidate derived indexes."""
        return self._generation

    def triples(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the pattern (None = wildcard)."""
        ids = self._triple_ids(s, p, o)
        terms = self._id_to_term
        for si, pi, oi in ids:
            yield (terms[si], terms[pi], terms[oi])

    def _triple_ids(
        self, s: Optional[Term], p: Optional[Term], o: Optional[Term]
    ) -> Iterator[Tuple[int, int, int]]:
        si = self._lookup(s) if s is not None else None
        pi = self._lookup(p) if p is not None else None
        oi = self._lookup(o) if o is not None else None
        if (s is not None and si is None) or (
            p is not None and pi is None
        ) or (o is not None and oi is None):
            return
        yield from self.triples_ids(si, pi, oi)

    def count(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> int:
        """Cardinality of a pattern (cheap for bound patterns)."""
        si = self._lookup(s) if s is not None else None
        pi = self._lookup(p) if p is not None else None
        oi = self._lookup(o) if o is not None else None
        if (s is not None and si is None) or (
            p is not None and pi is None
        ) or (o is not None and oi is None):
            return 0
        return self.count_ids(si, pi, oi)

    # -- convenience accessors ------------------------------------------

    def subjects(
        self, p: Optional[Term] = None, o: Optional[Term] = None
    ) -> Iterator[Term]:
        seen: Set[Term] = set()
        for s, _, _ in self.triples(None, p, o):
            if s not in seen:
                seen.add(s)
                yield s

    def objects(
        self, s: Optional[Term] = None, p: Optional[Term] = None
    ) -> Iterator[Term]:
        for _, _, o in self.triples(s, p, None):
            yield o

    def predicates(
        self, s: Optional[Term] = None, o: Optional[Term] = None
    ) -> Iterator[Term]:
        seen: Set[Term] = set()
        for _, p, _ in self.triples(s, None, o):
            if p not in seen:
                seen.add(p)
                yield p

    def value(
        self, s: Optional[Term] = None, p: Optional[Term] = None
    ) -> Optional[Term]:
        """First object of the pattern, or None."""
        for o in self.objects(s, p):
            return o
        return None

    def geometry_terms(self, start: int = 0) -> List[int]:
        """Term ids at geometry-log positions ``[start, count)``.

        The log may repeat an id (a literal removed and re-added), and
        may name literals that no triple holds any more; callers that
        need live geometries check :meth:`count_ids` on the object.
        """
        return self._geometry_log[start:self.geometry_term_count()]

    def geometry_term_count(self) -> int:
        """Length of the geometry log this reader sees."""
        return len(self._geometry_log)

    @property
    def geometry_epoch(self) -> int:
        """Which geometry log positions refer to; bumped by ``clear()``."""
        return self._geometry_epoch

    def geometry_literals(self) -> Iterator[Tuple[Term, Term, Literal]]:
        """Yield every triple whose object is a geometry-typed literal
        (a full scan; the spatial index reads the geometry log)."""
        for s, p, o in self.triples():
            if isinstance(o, Literal) and o.is_geometry:
                yield (s, p, o)

    def namespaces_used(self) -> Set[str]:
        """Distinct URI prefixes present in the graph (diagnostics)."""
        bases: Set[str] = set()
        for term in self._id_to_term:
            if isinstance(term, URI):
                value = term.value
                for sep in ("#", "/"):
                    if sep in value:
                        bases.add(value.rsplit(sep, 1)[0] + sep)
                        break
        return bases

    def copy(self) -> "Graph":
        """A fresh, independent *mutable* graph with the same triples."""
        g = Graph()
        g.add_all(self.triples())
        return g

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()


class Graph(TripleReader):
    """A mutable set of RDF triples with pattern-matching access."""

    def __init__(self) -> None:
        self._term_to_id = {}
        self._id_to_term = []
        self._spo = {}
        self._pos = {}
        self._osp = {}
        self._predicate_counts = {}
        # Append-only: snapshots read the prefix they captured, so the
        # writer appends in place and never copies the log.
        self._geometry_log = []
        self._geometry_epoch = 0
        self._size = 0
        self._generation = 0
        # Copy-on-write state: while ``_shared`` the index structures are
        # borrowed by at least one live snapshot and must not be mutated
        # in place.
        self._shared = False
        self._cached_snapshot: Optional["GraphSnapshot"] = None
        # Durability hook: when a repro.durable.GraphJournal is
        # attached here, every successful mutation is recorded for the
        # write-ahead log (None = no journaling, zero overhead).
        self._journal = None

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> "GraphSnapshot":
        """A frozen, generation-stamped view of the current state.

        O(1): the snapshot borrows the live index structures.  The first
        mutation after a snapshot was taken detaches the live graph onto
        private copies (:meth:`_detach`), so existing snapshots keep
        reading exactly the state they captured.  Repeated calls between
        mutations return the *same* snapshot object — derived structures
        built on it (R-trees, inference closures) are shared for free.
        """
        cached = self._cached_snapshot
        if cached is not None and cached.generation == self._generation:
            return cached
        snap = GraphSnapshot(self)
        self._cached_snapshot = snap
        self._shared = True
        return snap

    def _detach(self) -> None:
        """Replace borrowed index structures with private copies.

        Costs one pass over the graph, paid by the *writer* at most once
        per snapshot-then-mutate cycle; readers never pay anything.
        """
        if not self._shared:
            return
        self._term_to_id = dict(self._term_to_id)
        self._id_to_term = list(self._id_to_term)
        self._spo = {
            s: {p: set(o) for p, o in by_p.items()}
            for s, by_p in self._spo.items()
        }
        self._pos = {
            p: {o: set(s) for o, s in by_o.items()}
            for p, by_o in self._pos.items()
        }
        self._osp = {
            o: {s: set(p) for s, p in by_s.items()}
            for o, by_s in self._osp.items()
        }
        self._predicate_counts = dict(self._predicate_counts)
        self._shared = False

    # -- term interning ----------------------------------------------------

    def _intern(self, term: Term) -> int:
        tid = self._term_to_id.get(term)
        if tid is None:
            tid = len(self._id_to_term)
            self._term_to_id[term] = tid
            self._id_to_term.append(term)
        return tid

    # -- mutation ------------------------------------------------------------

    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Insert a triple; returns False when it was already present."""
        self._detach()
        si, pi, oi = self._intern(s), self._intern(p), self._intern(o)
        bucket = self._spo.setdefault(si, {}).setdefault(pi, set())
        if oi in bucket:
            return False
        bucket.add(oi)
        self._pos.setdefault(pi, {}).setdefault(oi, set()).add(si)
        by_s = self._osp.get(oi)
        if by_s is None:
            # No triple held ``o`` until now: a geometry becomes visible.
            if isinstance(o, Literal) and o.is_geometry:
                self._geometry_log.append(oi)
            by_s = self._osp[oi] = {}
        by_s.setdefault(si, set()).add(pi)
        counts = self._predicate_counts
        counts[pi] = counts.get(pi, 0) + 1
        self._size += 1
        self._generation += 1
        if self._journal is not None:
            self._journal.record_add(s, p, o)
        return True

    def add_all(self, triples) -> int:
        """Insert many triples; returns the number actually added."""
        added = 0
        for s, p, o in triples:
            if self.add(s, p, o):
                added += 1
        return added

    def remove(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> int:
        """Delete all triples matching the (possibly wildcard) pattern."""
        victims = list(self.triples(s, p, o))
        for triple in victims:
            self._remove_exact(*triple)
        return len(victims)

    def _remove_exact(self, s: Term, p: Term, o: Term) -> None:
        self._detach()
        si, pi, oi = self._lookup(s), self._lookup(p), self._lookup(o)
        if si is None or pi is None or oi is None:
            return
        try:
            self._spo[si][pi].remove(oi)
        except KeyError:
            return
        if not self._spo[si][pi]:
            del self._spo[si][pi]
            if not self._spo[si]:
                del self._spo[si]
        self._pos[pi][oi].discard(si)
        if not self._pos[pi][oi]:
            del self._pos[pi][oi]
            if not self._pos[pi]:
                del self._pos[pi]
        self._osp[oi][si].discard(pi)
        if not self._osp[oi][si]:
            del self._osp[oi][si]
            if not self._osp[oi]:
                del self._osp[oi]
        counts = self._predicate_counts
        counts[pi] -= 1
        if not counts[pi]:
            del counts[pi]
        self._size -= 1
        self._generation += 1
        if self._journal is not None:
            self._journal.record_remove(s, p, o)

    def clear(self) -> None:
        # Fresh indexes, counters and geometry log; live snapshots keep
        # the old ones.  The term dictionary survives, so ids stay
        # append-only for the graph's lifetime (while snapshots share
        # it, the next add detaches it like any other structure).  The
        # journal survives too — a clear is itself a journaled
        # mutation, not a detach.
        self._spo = {}
        self._pos = {}
        self._osp = {}
        self._predicate_counts = {}
        self._geometry_log = []
        self._geometry_epoch += 1
        self._size = 0
        self._generation += 1
        if self._journal is not None:
            self._journal.record_clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Graph with {self._size} triples>"


class GraphSnapshot(TripleReader):
    """An immutable, generation-stamped view of a :class:`Graph`.

    Shares the full read API of the live graph; any mutation attempt
    raises :class:`~repro.errors.SnapshotWriteError`.  Safe to hand to
    any number of concurrent reader threads — the structures it
    references are never mutated again (the owning graph detaches onto
    copies before its next write).
    """

    def __init__(self, source: Graph) -> None:
        self._term_to_id = source._term_to_id
        self._id_to_term = source._id_to_term
        self._spo = source._spo
        self._pos = source._pos
        self._osp = source._osp
        self._predicate_counts = source._predicate_counts
        # The writer keeps appending to this list; the snapshot reads
        # only the prefix that existed when it was taken.
        self._geometry_log = source._geometry_log
        self._geometry_count = len(source._geometry_log)
        self._geometry_epoch = source._geometry_epoch
        self._size = source._size
        self._generation = source._generation
        #: Lock for lazily-built per-snapshot structures (an R-tree, an
        #: inference closure) that first-touch builders may share.
        self.build_lock = threading.Lock()

    def geometry_term_count(self) -> int:
        return self._geometry_count

    # -- refused mutations -------------------------------------------------

    def _refuse(self, operation: str):
        raise SnapshotWriteError(
            f"cannot {operation} on a graph snapshot (generation "
            f"{self._generation}): snapshots are immutable — mutate the "
            f"live graph and take a new snapshot"
        )

    def add(self, s: Term, p: Term, o: Term) -> bool:
        self._refuse("add")

    def add_all(self, triples) -> int:
        self._refuse("add_all")

    def remove(self, s=None, p=None, o=None) -> int:
        self._refuse("remove")

    def clear(self) -> None:
        self._refuse("clear")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<GraphSnapshot generation={self._generation} "
            f"with {self._size} triples>"
        )
