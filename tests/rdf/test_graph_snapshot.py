"""Copy-on-write graph snapshots (:meth:`Graph.snapshot`)."""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc

import pytest

from repro.errors import SnapshotWriteError
from repro.rdf import Graph, GraphSnapshot, Literal, TripleReader, URI

EX = "http://example.org/"


def u(name: str) -> URI:
    return URI(EX + name)


def populated(n: int = 5) -> Graph:
    g = Graph()
    for i in range(n):
        g.add(u(f"s{i}"), u("p"), Literal(i))
    return g


def test_snapshot_is_a_frozen_reader():
    g = populated()
    snap = g.snapshot()
    assert isinstance(snap, GraphSnapshot)
    assert isinstance(snap, TripleReader)
    assert len(snap) == len(g) == 5
    assert set(snap.triples(None, None, None)) == set(
        g.triples(None, None, None)
    )


def test_snapshot_is_generation_stamped():
    g = populated()
    before = g.generation
    snap = g.snapshot()
    assert snap.generation == before
    g.add(u("extra"), u("p"), Literal(99))
    assert g.generation > before
    assert snap.generation == before


def test_snapshot_is_cached_per_generation():
    g = populated()
    first = g.snapshot()
    assert g.snapshot() is first  # no mutation -> same frozen object
    g.add(u("extra"), u("p"), Literal(99))
    second = g.snapshot()
    assert second is not first
    assert second.generation > first.generation


def test_writer_mutations_do_not_leak_into_snapshot():
    g = populated()
    snap = g.snapshot()
    g.add(u("new"), u("p"), Literal(123))
    g.remove(u("s0"), u("p"), Literal(0))
    assert len(g) == 5  # +1 added, -1 removed
    assert len(snap) == 5
    assert (u("new"), u("p"), Literal(123)) not in snap
    assert (u("s0"), u("p"), Literal(0)) in snap
    assert (u("s0"), u("p"), Literal(0)) not in g


def allocated(action) -> int:
    """Peak bytes of memory ``action()`` allocates."""
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_no_op_write_does_not_copy_the_store():
    """Re-adding a present triple or removing an absent one is no
    write: it allocates nothing that grows with the store, leaves the
    generation alone and keeps the cached snapshot."""
    g = populated(10_000)
    snap = g.snapshot()
    generation = g.generation
    present = (u("s0"), u("p"), Literal(0))
    absent = (u("s0"), u("p"), Literal(99))
    nobody = (u("nobody"), u("p"), Literal(0))

    def no_ops():
        assert g.add(*present) is False
        g._remove_exact(*absent)
        g._remove_exact(*nobody)
        assert g.remove(*absent) == 0

    assert allocated(no_ops) < 4096
    assert g.generation == generation
    assert g.snapshot() is snap
    # A real write still isolates the snapshot.
    assert g.add(*absent) is True
    assert absent in g and absent not in snap
    assert len(snap) == 10_000


def test_snapshot_survives_writer_clear():
    g = populated()
    snap = g.snapshot()
    g.clear()
    assert len(g) == 0
    assert len(snap) == 5


def test_snapshot_iteration_is_stable_mid_write():
    """A reader mid-iteration never sees a torn or resized index."""
    g = populated(50)
    snap = g.snapshot()
    seen = []
    for index, triple in enumerate(snap.triples(None, None, None)):
        seen.append(triple)
        # The writer keeps mutating while the reader iterates.
        g.add(u(f"mid{index}"), u("q"), Literal(index))
        if index == 10:
            g.remove(u("s1"), u("p"), Literal(1))
    assert len(seen) == 50
    assert len(snap) == 50


def test_snapshot_refuses_writes():
    g = populated()
    snap = g.snapshot()
    with pytest.raises(SnapshotWriteError):
        snap.add(u("x"), u("p"), Literal(1))
    with pytest.raises(SnapshotWriteError):
        snap.remove(u("s0"), u("p"), Literal(0))
    with pytest.raises(SnapshotWriteError):
        snap.clear()
    # Immutability violations read as type errors to generic callers.
    with pytest.raises(TypeError):
        snap.add(u("x"), u("p"), Literal(1))
    assert len(snap) == 5


def test_snapshot_copy_is_mutable_again():
    g = populated()
    snap = g.snapshot()
    thawed = snap.copy()
    assert isinstance(thawed, Graph)
    assert len(thawed) == 5
    thawed.add(u("x"), u("p"), Literal(7))
    assert len(thawed) == 6
    assert len(snap) == 5  # the thawed copy detached first


def test_detach_happens_once_per_snapshot_cycle():
    """After the first post-snapshot write the writer owns what it
    copied: a further write into the same buckets copies nothing that
    grows with the store, and the snapshot keeps its own state."""
    g = populated(10_000)
    snap = g.snapshot()
    first = (u("s1"), u("p"), Literal(1000))
    second = (u("s1"), u("p"), Literal(2000))
    assert g.add(*first) is True
    assert allocated(lambda: g.add(*second)) < 8192
    assert first in g and second in g
    assert first not in snap and second not in snap
    assert len(snap) == 10_000 and len(g) == 10_002


def bucket_changes(graph: Graph, snap: GraphSnapshot) -> int:
    """How many of the snapshot's index buckets (the per-key dicts and
    the sets under them) the live graph no longer shares."""
    changed = 0
    for name in ("_spo", "_pos", "_osp"):
        live = getattr(graph, name)
        for key, inner in getattr(snap, name).items():
            mine = live.get(key)
            if mine is inner:
                continue
            changed += 1
            for key2, leaf in inner.items():
                changed += mine is None or mine.get(key2) is not leaf
    return changed


@pytest.mark.parametrize("size", [100, 10_000])
def test_a_write_copies_only_the_buckets_it_touches(size):
    g = populated(size)
    snap = g.snapshot()
    g.add(u("s0"), u("p"), Literal(size))
    g.remove(u("s1"), u("p"), Literal(1))
    # The add copies _spo[s0], _spo[s0][p] and _pos[p]; the remove
    # drops _spo[s1] and its set, _pos[p][1], _osp[1] and its set.
    assert bucket_changes(g, snap) == 8
    assert len(snap) == size and (u("s1"), u("p"), Literal(1)) in snap


# -- seeded random interleavings ---------------------------------------------

WKT = "http://strdf.di.uoa.gr/ontology#WKT"
SUBJECTS = [u(f"s{i}") for i in range(5)]
PREDICATES = [u(f"p{i}") for i in range(3)]
GEOMETRIES = [Literal(f"POINT ({i} {i})", datatype=WKT) for i in range(3)]
OBJECTS = GEOMETRIES + [Literal(i) for i in range(3)] + SUBJECTS[:2]
TERMS = SUBJECTS + PREDICATES + OBJECTS[:-2] + [u("never")]


def frozen(reader) -> dict:
    """Everything a reader answers about the test vocabulary."""
    ids = {term: reader.term_id(term) for term in TERMS}
    counts = {}
    for s in SUBJECTS + [None]:
        for p in PREDICATES + [None]:
            for o in OBJECTS + [None]:
                counts[s, p, o] = reader.count(s, p, o)
                id_pattern = [None if t is None else ids[t] for t in (s, p, o)]
                if all((t is None) == (i is None) for t, i in zip((s, p, o), id_pattern)):
                    counts["ids", s, p, o] = reader.count_ids(*id_pattern)
    return {
        "triples": sorted(map(repr, reader.triples())),
        "size": len(reader),
        "counts": counts,
        "predicates": {p: reader.count(None, p, None) for p in PREDICATES},
        "geometry_terms": reader.geometry_terms(),
        "term_count": reader.term_count(),
        "term_ids": ids,
    }


@pytest.mark.parametrize("seed", range(6))
def test_snapshots_keep_their_state_under_random_writes(seed):
    """Add, remove, re-add of removed geometry literals, ``clear()`` and
    ``snapshot()`` in a seeded random order: after every later write,
    each snapshot still answers exactly as the graph did when it was
    taken."""
    rng = random.Random(seed)
    g = Graph()
    taken = []
    removed_geometries = []
    for _ in range(400):
        roll = rng.random()
        present = sorted(g.triples(), key=repr)
        if roll < 0.45:
            g.add(rng.choice(SUBJECTS), rng.choice(PREDICATES), rng.choice(OBJECTS))
        elif roll < 0.65 and present:
            victim = rng.choice(present)
            g.remove(*victim)
            if victim[2] in GEOMETRIES:
                removed_geometries.append(victim)
        elif roll < 0.75 and removed_geometries:
            g.add(*removed_geometries.pop(rng.randrange(len(removed_geometries))))
        elif roll < 0.8:
            g.remove(rng.choice(SUBJECTS), None, None)
        elif roll < 0.83:
            g.clear()
        elif roll < 0.9:
            taken.append((g.snapshot(), frozen(g)))
    assert len(taken) > 10
    for snap, expected in taken:
        assert frozen(snap) == expected


def test_reader_threads_see_stable_snapshots_while_the_writer_runs():
    """Readers walk the latest snapshot while the writer keeps writing
    and snapshotting; every snapshot reads the same at every moment."""
    g = populated(200)
    published = [(g.snapshot(), frozen(g))]
    stop = threading.Event()
    failures = []

    def reader():
        while not stop.is_set():
            snap, expected = published[-1]
            try:
                assert frozen(snap) == expected
            except Exception as exc:  # reported by the main thread
                failures.append(exc)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=reader) for _ in range(3)]
    try:
        for t in threads:
            t.start()
        rng = random.Random(5)
        for step in range(300):
            triple = (rng.choice(SUBJECTS), rng.choice(PREDICATES), rng.choice(OBJECTS))
            if rng.random() < 0.6:
                g.add(*triple)
            else:
                g.remove(*triple)
            if step % 10 == 0:
                published.append((g.snapshot(), frozen(g)))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for t in threads:
            t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    assert not failures, failures[0]


def test_reads_work_identically_on_snapshot():
    g = populated()
    g.add(u("s0"), u("geo"), Literal("POINT(1 2)", datatype=(
        "http://strdf.di.uoa.gr/ontology#WKT")))
    snap = g.snapshot()
    assert snap.count(u("s0"), None, None) == g.count(u("s0"), None, None)
    assert set(snap.subjects(u("p"), Literal(0))) == {u("s0")}
    assert snap.value(u("s0"), u("p")) == Literal(0)
    geoms = list(snap.geometry_literals())
    assert len(geoms) == 1
