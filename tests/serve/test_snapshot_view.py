"""Snapshot-aware stSPARQL execution (:class:`SnapshotView`)."""

from __future__ import annotations

import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import SnapshotWriteError
from repro.geometry import Envelope, Point
from repro.geometry.rtree import RTree
from repro.rdf import NOA, RDF, URI, Literal
from repro.rdf.namespace import STRDF
from repro.stsparql import SnapshotView, Strabon

PREFIX = (
    "PREFIX noa: "
    "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
)
SELECT_HOTSPOTS = PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot }"
ASK_HOTSPOTS = PREFIX + "ASK { ?h a noa:Hotspot }"
INSERT_ONE = (
    PREFIX + "INSERT DATA { noa:sneaky a noa:Hotspot . }"
)
SPATIAL = PREFIX + (
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
    "SELECT ?a WHERE { ?a strdf:hasGeometry ?g . "
    'FILTER(strdf:anyInteract(?g, "POINT(24.0 38.0)")) }'
)


@pytest.fixture()
def engine() -> Strabon:
    strabon = Strabon()
    for i in range(4):
        strabon.update(
            PREFIX + f"INSERT DATA {{ noa:h{i} a noa:Hotspot . }}"
        )
    return strabon


def test_view_matches_live_results(engine):
    live = engine.select(SELECT_HOTSPOTS)
    view = engine.snapshot_view()
    frozen = view.select(SELECT_HOTSPOTS)
    assert sorted(map(repr, frozen)) == sorted(map(repr, live))
    assert view.ask(ASK_HOTSPOTS) is True


def test_view_is_cached_per_generation(engine):
    view = engine.snapshot_view()
    assert engine.snapshot_view() is view
    engine.update(INSERT_ONE)
    fresh = engine.snapshot_view()
    assert fresh is not view
    assert fresh.generation > view.generation


def test_old_view_is_isolated_from_later_updates(engine):
    view = engine.snapshot_view()
    before = len(view.select(SELECT_HOTSPOTS))
    engine.update(INSERT_ONE)
    assert len(view.select(SELECT_HOTSPOTS)) == before
    assert len(engine.snapshot_view().select(SELECT_HOTSPOTS)) == (
        before + 1
    )


def test_view_refuses_updates(engine):
    view = engine.snapshot_view()
    with pytest.raises(SnapshotWriteError):
        view.query(INSERT_ONE)
    # Nothing leaked into the live store either.
    assert (URI(NOA.base + "sneaky"), RDF.type, NOA.Hotspot) not in (
        engine.graph
    )


def test_view_shares_the_engines_plan_cache(engine):
    view = engine.snapshot_view()
    assert view.plan_cache is engine.plan_cache
    baseline = engine.plan_cache.stats().hits
    view.select(SELECT_HOTSPOTS)  # miss (first sighting of the text)
    view.select(SELECT_HOTSPOTS)  # hit
    engine.select(SELECT_HOTSPOTS)  # hit — shared with the writer too
    assert engine.plan_cache.stats().hits >= baseline + 2


def test_concurrent_first_readers_build_the_frozen_rtree_once(
    strabon_with_aux, monkeypatch
):
    builds = []
    bulk_load = RTree.bulk_load

    def counting_bulk_load(entries):
        builds.append(len(entries))
        time.sleep(0.05)  # hold the build open so the readers pile up
        return bulk_load(entries)

    monkeypatch.setattr(RTree, "bulk_load", counting_bulk_load)
    view = strabon_with_aux.snapshot_view()
    probe = Point(24.0, 38.0)
    answers = []
    readers = [
        threading.Thread(
            target=lambda: answers.append(view.spatial_candidates(probe))
        )
        for _ in range(8)
    ]
    for reader in readers:
        reader.start()
    for reader in readers:
        reader.join(timeout=30)
    assert not any(reader.is_alive() for reader in readers)
    # Built lazily, once, under the snapshot's build lock — and every
    # reader saw the finished index, never a half-built one.
    assert len(builds) == 1 and builds[0] > 0
    assert len(answers) == 8
    assert all(answer == answers[0] for answer in answers)
    assert view.select(SPATIAL) == strabon_with_aux.select(SPATIAL)


def test_standalone_view_over_a_bare_snapshot(engine):
    snap = engine.graph.snapshot()
    view = SnapshotView(snap)
    assert len(view.select(SELECT_HOTSPOTS)) == 4
    assert view.plan_cache is not engine.plan_cache


def _box_literal(box) -> Literal:
    x, y, w, h = box
    return Literal(
        f"POLYGON (({x} {y}, {x + w} {y}, {x + w} {y + h}, "
        f"{x} {y + h}, {x} {y}))",
        datatype=STRDF.base + "WKT",
    )


_GEOMETRY = STRDF.term("hasGeometry")
_PROBES = [
    Envelope(0, 0, 3, 3),
    Envelope(2.5, 2.5, 6, 6),
    Envelope(-1, -1, 10, 10),
]


def _live(view, envelope):
    """The index's candidates that the view's snapshot still holds."""
    return {
        lit
        for lit in view.spatial_search(envelope)
        if view.graph.count(None, None, lit)
    }


def test_view_starts_from_the_writers_index(strabon_with_aux, monkeypatch):
    """A view seeded with the writer's runs packs only the geometry-log
    positions those runs lack — one new literal here, not the store."""
    strabon_with_aux.spatial_search(Envelope(20, 34, 30, 42))
    strabon_with_aux.add(
        NOA.term("fresh"), _GEOMETRY, _box_literal((24, 38, 0.1, 0.1))
    )
    builds = []
    bulk_load = RTree.bulk_load

    def counting_bulk_load(entries):
        builds.append(len(entries))
        return bulk_load(entries)

    monkeypatch.setattr(RTree, "bulk_load", counting_bulk_load)
    view = strabon_with_aux.snapshot_view()
    seeded = _live(view, Envelope(20, 34, 30, 42))
    assert builds == [1]
    assert seeded == _live(
        SnapshotView(view.snapshot), Envelope(20, 34, 30, 42)
    )


_BOX = st.tuples(
    st.integers(0, 6), st.integers(0, 6), st.integers(1, 3), st.integers(1, 3)
)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, 5), _BOX),
        st.tuples(st.just("remove"), st.integers(0, 50)),
        st.tuples(st.just("resurrect"), st.integers(0, 50)),
        st.tuples(st.just("clear")),
        st.tuples(st.just("probe")),
        st.tuples(st.just("snapshot")),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
# The writer drops a literal the snapshot still holds, then packs: its
# index must not seed the older snapshot's view.
@example(ops=[("add", 0, (0, 0, 1, 1)), ("snapshot",), ("remove", 0)])
def test_seeded_view_index_matches_a_fresh_one(ops):
    """Random add / remove / resurrect / clear sequences with writer
    probes and snapshots at random points: every view's live-filtered
    spatial answers equal those of a view built from its snapshot
    alone — when taken, after every later write, and when an old
    snapshot is offered the writer's newer index."""
    engine = Strabon(enable_inference=False)
    removed = []
    views = []

    def check(view, index=None):
        if index is not None:
            view = SnapshotView(
                view.snapshot, enable_inference=False, index=index
            )
        fresh = SnapshotView(view.snapshot, enable_inference=False)
        for envelope in _PROBES:
            assert _live(view, envelope) == _live(fresh, envelope)

    for op in ops:
        kind = op[0]
        if kind == "add":
            engine.add(NOA.term(f"s{op[1]}"), _GEOMETRY, _box_literal(op[2]))
        elif kind == "remove":
            held = sorted(
                engine.graph.triples(None, _GEOMETRY, None), key=repr
            )
            if held:
                triple = held[op[1] % len(held)]
                engine.graph.remove(*triple)
                removed.append(triple)
        elif kind == "resurrect":
            if removed:
                engine.add(*removed[op[1] % len(removed)])
        elif kind == "clear":
            engine.graph.clear()
        elif kind == "probe":
            engine.spatial_search(_PROBES[-1])
        else:
            views.append(engine.snapshot_view())
            check(views[-1])
    engine.spatial_search(_PROBES[-1])
    for view in views:
        check(view)
        check(view, index=engine._index)
