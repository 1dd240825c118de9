"""Copy-on-write graph snapshots (:meth:`Graph.snapshot`)."""

from __future__ import annotations

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


def test_a_no_op_write_does_not_copy_the_store():
    """Re-adding a present triple or removing an absent one is no
    write: the live graph keeps sharing its indexes with the snapshot
    instead of copying every one of them."""
    g = populated()
    snap = g.snapshot()
    generation = g.generation
    assert g.add(u("s0"), u("p"), Literal(0)) is False
    g._remove_exact(u("s0"), u("p"), Literal(99))
    g._remove_exact(u("nobody"), u("p"), Literal(0))
    assert g.remove(u("s0"), u("p"), Literal(99)) == 0
    assert g._spo is snap._spo and g._pos is snap._pos
    assert g.generation == generation
    assert g.snapshot() is snap
    # A real write still detaches, and the snapshot keeps its state.
    assert g.add(u("s0"), u("p"), Literal(99)) is True
    assert g._spo is not snap._spo
    assert (u("s0"), u("p"), Literal(99)) not in snap


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
    """After the first post-snapshot mutation the writer owns private
    indexes again — further writes must not re-copy (observable via
    the shared flag)."""
    g = populated()
    g.snapshot()
    assert g._shared is True
    g.add(u("a"), u("p"), Literal(1))
    assert g._shared is False
    spo_after_first = g._spo
    g.add(u("b"), u("p"), Literal(2))
    assert g._spo is spo_after_first


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
