"""Snapshot-aware stSPARQL execution (:class:`SnapshotView`)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import SnapshotWriteError
from repro.geometry import Point
from repro.geometry.rtree import RTree
from repro.rdf import NOA, RDF, URI
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
