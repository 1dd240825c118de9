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

Once :meth:`Graph.start_journal` is called the graph also records each
effective mutation as one op, until :meth:`Graph.drain_journal` hands
the list over: the one record of a commit, framed into the write-ahead
log and collapsed into the per-commit delta alike.

Two concrete classes share the read path (:class:`TripleReader`):

* :class:`Graph` — the mutable store refinement writes to,
* :class:`GraphSnapshot` — a frozen, generation-stamped view produced by
  :meth:`Graph.snapshot`.  Snapshots are **copy-on-write by bucket**:
  taking one is O(1) (the snapshot borrows the live indexes), and the
  *writer* pays for isolation in proportion to its delta.  Its first
  write after a snapshot shallow-copies the three top-level index dicts
  (and the term dictionary once it interns a new term); after that a
  write copies only the buckets it touches — ``_spo[s]``, ``_pos[p]``,
  ``_osp[o]`` and the inner sets under them — and only those the latest
  snapshot holds (the same object under the same key); a bucket the
  writer made since then is its own.  Ownership resets with every
  :meth:`Graph.snapshot`.  A snapshot therefore never
  references a container the writer mutates: readers never block and
  never observe a torn update, no matter how the live graph moves on.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import (
    AbstractSet,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import SnapshotWriteError
from repro.rdf.term import Literal, Term

Triple = Tuple[Term, Term, Term]
_Pattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]

# Mutation-journal opcodes (also the WAL's wire opcodes).
OP_ADD = 1
OP_REMOVE = 2
OP_CLEAR = 3

#: A journaled mutation: (opcode, triple-or-None).
Op = Tuple[int, Optional[Triple]]


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

    def terms(self, start: int = 0) -> List[Term]:
        """The dictionary from id ``start`` on, in id order (a copy):
        what the durable layer writes, whole or from its cursor."""
        return self._id_to_term[start:]

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

    def id_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every triple as three u32 id columns (subjects, predicates,
        objects), in :meth:`triples_ids` order.

        Read off the SPO index by C-level iteration: the objects as
        they lie in the buckets, the subjects and predicates repeated
        per bucket, so no Python object is made per id.
        """
        spo = self._spo
        by_subject = spo.values()
        leaves = list(chain.from_iterable(map(dict.values, by_subject)))
        per_leaf = np.fromiter(map(len, leaves), np.intp, len(leaves))
        leaf_subjects = np.repeat(
            np.fromiter(spo.keys(), np.uint32, len(spo)),
            np.fromiter(map(len, by_subject), np.intp, len(spo)),
        )
        leaf_predicates = np.fromiter(
            chain.from_iterable(map(dict.keys, by_subject)),
            np.uint32,
            len(leaves),
        )
        objects = np.fromiter(
            chain.from_iterable(leaves), np.uint32, self._size
        )
        return (
            np.repeat(leaf_subjects, per_leaf),
            np.repeat(leaf_predicates, per_leaf),
            objects,
        )

    def object_ids(
        self, si: Optional[int], pi: int
    ) -> Union[AbstractSet[int], Tuple[()]]:
        """Object ids of ``(si, pi, ?)``, or with ``si`` None the
        distinct objects of predicate ``pi``, as a read-only set view
        (``()`` when there are none).  O(1): membership probes and
        ``isdisjoint`` tests read the index itself; callers must not
        mutate the view."""
        if si is None:
            by_o = self._pos.get(pi)
            return by_o.keys() if by_o is not None else ()
        return self._spo.get(si, {}).get(pi, ())

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
        # Copy-on-write state.  ``_base`` holds the latest snapshot's
        # three index dicts (empty ones while nothing is shared): a
        # bucket of the live indexes is the snapshot's exactly when the
        # snapshot holds that very object under the same key, and the
        # writer copies it before writing into it.  While ``_shared`` the
        # snapshot also borrows the top-level dicts and the predicate
        # counters, while ``_terms_shared`` the term dictionary.
        self._shared = False
        self._terms_shared = False
        self._base: Tuple[dict, dict, dict] = ({}, {}, {})
        self._cached_snapshot: Optional["GraphSnapshot"] = None
        # The mutation journal: None until start_journal(), then one op
        # per effective mutation since the last drain_journal().
        self._ops: Optional[List[Op]] = None

    # -- the mutation journal ----------------------------------------------

    def start_journal(self) -> None:
        """Record every effective mutation from now on (idempotent).

        A duplicate add or a no-op remove records nothing, so the ops
        are exactly the state transitions that happened — what the
        write-ahead log frames and what the per-commit delta reads.
        """
        if self._ops is None:
            self._ops = []

    def drain_journal(self) -> List[Op]:
        """The ops recorded since the previous drain, oldest first
        (empty while journaling is off)."""
        ops = self._ops
        if ops is None:
            return []
        self._ops = []
        return ops

    @property
    def pending_ops(self) -> int:
        """Journaled ops not yet drained."""
        return 0 if self._ops is None else len(self._ops)

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> "GraphSnapshot":
        """A frozen, generation-stamped view of the current state.

        O(1): the snapshot borrows the live index structures, and every
        bucket now in them becomes the snapshot's: the writer copies a
        bucket before its first write into it (:meth:`_link`,
        :meth:`_unlink`), so existing snapshots keep reading exactly the
        state they captured.  Repeated calls between mutations return
        the *same* snapshot object — derived structures built on it
        (R-trees, inference closures) are shared for free.
        """
        cached = self._cached_snapshot
        if cached is not None and cached.generation == self._generation:
            return cached
        snap = GraphSnapshot(self)
        self._cached_snapshot = snap
        self._shared = self._terms_shared = True
        # Ownership resets: any bucket that exists now is held by it.
        self._base = (self._spo, self._pos, self._osp)
        return snap

    def _detach(self) -> None:
        """Take private copies of the top-level index dicts and the
        predicate counters before the first write after a snapshot.

        Shallow copies: the buckets under them stay shared until a write
        touches them.  Paid by the *writer* once per snapshot-then-mutate
        cycle; readers never pay anything.
        """
        if not self._shared:
            return
        self._spo = dict(self._spo)
        self._pos = dict(self._pos)
        self._osp = dict(self._osp)
        self._predicate_counts = dict(self._predicate_counts)
        self._shared = False

    @staticmethod
    def _link(index: dict, base: dict, a: int, b: int, c: int) -> None:
        """Add ``c`` to ``index[a][b]``, creating the buckets it needs;
        a bucket ``base`` (the latest snapshot's index) holds is copied
        before the write."""
        inner = index.get(a)
        if inner is None:
            index[a] = {b: {c}}
            return
        held = base.get(a)
        if inner is held:
            inner = index[a] = dict(inner)
        leaf = inner.get(b)
        if leaf is None:
            inner[b] = {c}
            return
        if held is not None and held.get(b) is leaf:
            leaf = inner[b] = set(leaf)
        leaf.add(c)

    @staticmethod
    def _unlink(index: dict, base: dict, a: int, b: int, c: int) -> None:
        """Drop ``c`` from ``index[a][b]``, pruning the buckets that
        empties; of the buckets ``base`` holds, only those written into
        are copied."""
        inner = index[a]
        leaf = inner[b]
        if len(leaf) == 1 and len(inner) == 1:
            del index[a]
            return
        held = base.get(a)
        if inner is held:
            inner = index[a] = dict(inner)
        if len(leaf) == 1:
            del inner[b]
            return
        if held is not None and held.get(b) is leaf:
            leaf = inner[b] = set(leaf)
        leaf.remove(c)

    # -- term interning ----------------------------------------------------

    def _intern(self, term: Term) -> int:
        tid = self._term_to_id.get(term)
        if tid is None:
            if self._terms_shared:
                self._term_to_id = dict(self._term_to_id)
                self._id_to_term = list(self._id_to_term)
                self._terms_shared = False
            tid = len(self._id_to_term)
            self._term_to_id[term] = tid
            self._id_to_term.append(term)
        return tid

    def extend_terms(self, terms: List[Term]) -> None:
        """Intern ``terms`` as the next ids, in order — how recovery
        rebuilds a dictionary.  Raises ValueError, interning nothing
        more, at a term the dictionary already holds: its id would not
        be its position."""
        for term in terms:
            if term in self._term_to_id:
                raise ValueError(f"term {term!r} is already interned")
            self._intern(term)

    def load_ids(
        self,
        subjects: Sequence[int],
        predicates: Sequence[int],
        objects: Sequence[int],
    ) -> None:
        """Fill a graph that holds no triples with the id triples
        ``zip(subjects, predicates, objects)`` of its dictionary, in one
        pass — how recovery loads a checkpoint.

        Builds exactly what :meth:`add` of each triple in turn would:
        the three indexes with every dict and set filled in the same
        order (so iteration orders match too), the predicate counts,
        the geometry log (an object's first triple logs a geometry
        literal) and the generation.  Not journaled.  Raises ValueError,
        leaving the graph empty, on an id beyond the dictionary or a
        repeated triple.
        """
        if self._size or self._ops is not None:
            raise ValueError(
                "load_ids needs an empty graph that is not journaling"
            )
        terms = self._id_to_term
        if not len(subjects) == len(predicates) == len(objects):
            raise ValueError("id columns of different lengths")
        for column in (subjects, predicates, objects):
            if len(column) and (
                min(column) < 0 or max(column) >= len(terms)
            ):
                raise ValueError(
                    f"triple names a term id beyond the {len(terms)}-term "
                    "dictionary"
                )
        spo: Dict[int, Dict[int, Set[int]]] = {}
        pos: Dict[int, Dict[int, Set[int]]] = {}
        osp: Dict[int, Dict[int, Set[int]]] = {}
        geometries: List[int] = []
        for s, p, o in zip(subjects, predicates, objects):
            by_p = spo.get(s)
            if by_p is None:
                spo[s] = {p: {o}}
            else:
                leaf = by_p.get(p)
                if leaf is None:
                    by_p[p] = {o}
                else:
                    leaf.add(o)
            by_o = pos.get(p)
            if by_o is None:
                pos[p] = {o: {s}}
            else:
                leaf = by_o.get(o)
                if leaf is None:
                    by_o[o] = {s}
                else:
                    leaf.add(s)
            by_s = osp.get(o)
            if by_s is None:
                osp[o] = {s: {p}}
                term = terms[o]
                if isinstance(term, Literal) and term.is_geometry:
                    geometries.append(o)
            else:
                leaf = by_s.get(s)
                if leaf is None:
                    by_s[s] = {p}
                else:
                    leaf.add(p)
        counts = {
            p: sum(map(len, by_o.values())) for p, by_o in pos.items()
        }
        size = sum(counts.values())
        if size != len(objects):
            raise ValueError(
                f"{len(objects) - size} repeated triple(s) in the load"
            )
        # New containers, all the writer's: snapshots of the empty
        # graph keep the ones they hold.
        self._spo, self._pos, self._osp = spo, pos, osp
        self._predicate_counts = counts
        self._shared = False
        self._base = ({}, {}, {})
        self._geometry_log.extend(geometries)
        self._size = size
        self._generation += size

    # -- mutation ------------------------------------------------------------

    def add(self, s: Term, p: Term, o: Term) -> bool:
        """Insert a triple; returns False when it was already present.

        A triple already present is no write: it returns before
        detaching, so it never copies indexes a snapshot shares.
        """
        if (s, p, o) in self:
            return False
        self._detach()
        si, pi, oi = self._intern(s), self._intern(p), self._intern(o)
        spo, pos, osp = self._base
        self._link(self._spo, spo, si, pi, oi)
        self._link(self._pos, pos, pi, oi, si)
        if oi not in self._osp and isinstance(o, Literal) and o.is_geometry:
            # No triple held ``o`` until now: a geometry becomes visible.
            self._geometry_log.append(oi)
        self._link(self._osp, osp, oi, si, pi)
        counts = self._predicate_counts
        counts[pi] = counts.get(pi, 0) + 1
        self._size += 1
        self._generation += 1
        if self._ops is not None:
            self._ops.append((OP_ADD, (s, p, o)))
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
        # An absent triple is no write: never detach for it.
        if (s, p, o) not in self:
            return
        self._detach()
        si, pi, oi = self._lookup(s), self._lookup(p), self._lookup(o)
        spo, pos, osp = self._base
        self._unlink(self._spo, spo, si, pi, oi)
        self._unlink(self._pos, pos, pi, oi, si)
        self._unlink(self._osp, osp, oi, si, pi)
        counts = self._predicate_counts
        counts[pi] -= 1
        if not counts[pi]:
            del counts[pi]
        self._size -= 1
        self._generation += 1
        if self._ops is not None:
            self._ops.append((OP_REMOVE, (s, p, o)))

    def clear(self) -> None:
        # Fresh indexes, counters and geometry log, all the writer's;
        # live snapshots keep the old ones.  The term dictionary
        # survives, so ids stay append-only for the graph's lifetime
        # (while snapshots share it, the next new term copies it).  A
        # clear is itself journaled; it voids the ops before it in the
        # same undrained batch, so they are dropped.
        self._spo = {}
        self._pos = {}
        self._osp = {}
        self._predicate_counts = {}
        self._shared = False
        self._base = ({}, {}, {})
        self._geometry_log = []
        self._geometry_epoch += 1
        self._size = 0
        self._generation += 1
        if self._ops is not None:
            self._ops = [(OP_CLEAR, None)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Graph with {self._size} triples>"


class GraphSnapshot(TripleReader):
    """An immutable, generation-stamped view of a :class:`Graph`.

    Shares the full read API of the live graph; any mutation attempt
    raises :class:`~repro.errors.SnapshotWriteError`.  Safe to hand to
    any number of concurrent reader threads — the structures it
    references are never mutated again (the owning graph copies each
    one before its first write into it), except the append-only
    geometry log, of which the snapshot reads only the prefix it
    captured.
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
