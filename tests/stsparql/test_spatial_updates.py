"""The spatial index under updates: a differential and a count guard.

The engine's R-tree is fed from the graph's geometry log as a stack of
bulk-loaded runs that merge as the log grows, dropping literals no
triple holds any more.  Seeded random interleavings of

* adding and removing geometry triples (some literals shared by two
  subjects),
* removing every triple of a literal, probing, then re-adding it (the
  resurrected literal must be indexed again — the case a naive "drop
  dead literals at merge" gets wrong),
* replacing a hotspot geometry with a templated update, the way Refine
  In Coast does,
* ``clear()``,
* snapshots taken mid-way and queried after the writer moved on,

are checked after every step: spatial SELECTs (the engine) and the
``WHERE`` of a templated update (the row-wise reference, over each
endpoint's index)
agree across the live :class:`Strabon`, its ``snapshot_view()``, a
``Strabon(enable_spatial_index=False)`` on the same graph and a fresh
``Strabon`` over ``graph.copy()``.

The count guard pins the per-update cost: with 1000 archived hotspot
geometries indexed, 20 updates that each add one geometry, each
followed by a spatial query, pack fewer than 1000 entries in total.
A threaded stress test holds snapshot views to their own log prefix
while the writer appends to the log they share.
"""

import random
import sys
import threading

import pytest

from reference import reference_evaluator

from repro.geometry import Polygon
from repro.geometry.rtree import RTree
from repro.rdf import Literal, NOA, RDF
from repro.rdf.namespace import STRDF
from repro.stsparql import Strabon
from repro.stsparql.eval import SolutionSet
from repro.stsparql.parser import parse

pytest.importorskip("numpy")

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)
WKT = STRDF.base + "WKT"
GEOMETRY = STRDF.term("hasGeometry")
HOTSPOT, AREA, COAST = (NOA.term(c) for c in ("Hotspot", "Area", "Coast"))

REGIONS = [
    "POLYGON ((0 0, 6 0, 6 6, 0 6, 0 0))",
    "POLYGON ((5 5, 14 5, 14 9, 5 9, 5 5))",
    "POLYGON ((12 0, 20 0, 20 20, 12 20, 12 0))",
]

#: Region probes, the Municipalities join (R-tree restriction then a
#: type check before the exact test) and the Delete In Sea OPTIONAL.
SELECTS = [
    "SELECT ?s ?g WHERE { ?s strdf:hasGeometry ?g . "
    f'FILTER(strdf:anyInteract(?g, "{region}"^^strdf:WKT)) }}'
    for region in REGIONS
] + [
    """SELECT ?h ?m WHERE {
         ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
         ?m a noa:Area ; strdf:hasGeometry ?mg .
         FILTER(strdf:anyInteract(?hg, ?mg)) }""",
    """SELECT ?h WHERE {
         ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
         OPTIONAL { ?c a noa:Coast ; strdf:hasGeometry ?cg .
                    FILTER(strdf:anyInteract(?hg, ?cg)) }
         FILTER(!bound(?c)) }""",
]

#: A templated update whose WHERE the reference runs with R-tree
#: restriction; only its bindings are compared.
COAST_UPDATE = parse(
    PREFIX
    + """DELETE { ?h strdf:hasGeometry ?hg }
         INSERT { ?h noa:nearCoast ?c }
         WHERE { ?h a noa:Hotspot ; noa:inBatch ?__batch ;
                    strdf:hasGeometry ?hg .
                 ?c a noa:Coast ; strdf:hasGeometry ?cg .
                 FILTER(strdf:anyInteract(?hg, ?cg)) }"""
)

REPLACE = (
    PREFIX
    + """DELETE { ?h strdf:hasGeometry ?old }
         INSERT { ?h strdf:hasGeometry ?__new }
         WHERE { ?h strdf:hasGeometry ?old }"""
)


def _square(rng):
    x, y = rng.randrange(0, 18), rng.randrange(0, 18)
    size = rng.choice((1, 2, 3))
    return Literal(
        f"POLYGON (({x} {y}, {x + size} {y}, {x + size} {y + size}, "
        f"{x} {y + size}, {x} {y}))",
        datatype=WKT,
    )


def _subjects():
    """Eight hotspots over two batches, four areas, two coasts."""
    subjects = []
    for i in range(8):
        subjects.append((NOA.term(f"h{i}"), HOTSPOT, Literal(i % 2)))
    for i in range(4):
        subjects.append((NOA.term(f"a{i}"), AREA, None))
    for i in range(2):
        subjects.append((NOA.term(f"c{i}"), COAST, None))
    return subjects


def _populate(graph, subjects, pool, rng):
    for node, cls, batch in subjects:
        graph.add(node, RDF.type, cls)
        if batch is not None:
            graph.add(node, NOA.term("inBatch"), batch)
        graph.add(node, GEOMETRY, rng.choice(pool))


def _row_wise(endpoint, text):
    """``text`` through the row-wise operators and the endpoint's
    index (the columnar join materialises simple patterns without it)."""
    return reference_evaluator(endpoint).select(parse(PREFIX + text))


def _answers(endpoint):
    out = [endpoint.select(PREFIX + text) for text in SELECTS]
    out += [_row_wise(endpoint, text) for text in SELECTS]
    for batch in (0, 1):
        rows = reference_evaluator(
            endpoint, initial={"__batch": Literal(batch)}
        ).update_bindings(COAST_UPDATE.where_pattern)
        out.append(SolutionSet(["h", "hg", "c", "cg", "__batch"], rows))
    return out


def _geometry_triples(graph):
    return sorted(graph.triples(None, GEOMETRY, None), key=repr)


@pytest.mark.parametrize("seed", range(4))
def test_spatial_answers_agree_under_random_updates(seed):
    rng = random.Random(seed)
    pool = [_square(rng) for _ in range(24)]
    subjects = _subjects()
    engine = Strabon()
    graph = engine.graph
    _populate(graph, subjects, pool, rng)
    no_index = Strabon(graph, enable_spatial_index=False)
    views = []
    for step in range(50):
        roll = rng.random()
        if roll < 0.3:
            node = rng.choice(subjects)[0]
            graph.add(node, GEOMETRY, rng.choice(pool))
        elif roll < 0.5:
            triples = _geometry_triples(graph)
            if triples:
                graph.remove(*rng.choice(triples))
        elif roll < 0.65:
            triples = _geometry_triples(graph)
            if triples:
                lit = rng.choice(triples)[2]
                held = list(graph.triples(None, None, lit))
                for triple in held:
                    graph.remove(*triple)
                # Probe while it is dead so a merge may drop it, then
                # mutate more so its run is re-packed, then resurrect.
                assert _answers(engine) == _answers(Strabon(graph.copy()))
                graph.add(rng.choice(subjects)[0], GEOMETRY, _square(rng))
                _row_wise(engine, SELECTS[0])
                for triple in held:
                    graph.add(*triple)
        elif roll < 0.85:
            node = rng.choice(subjects[:8])[0]
            engine.update(
                REPLACE, params={"h": node, "__new": rng.choice(pool)}
            )
        elif roll < 0.88:
            graph.clear()
            _populate(graph, subjects, pool, rng)
        else:
            view = engine.snapshot_view()
            views.append((view, _answers(Strabon(graph.copy()))))
        expected = _answers(Strabon(graph.copy()))
        assert _answers(engine) == expected, step
        assert _answers(engine.snapshot_view()) == expected, step
        assert _answers(no_index) == expected, step
        for view, captured in views:
            assert _answers(view) == captured, step


def test_a_resurrected_literal_is_indexed_again():
    engine = Strabon()
    graph = engine.graph
    lit = Literal("POINT (1 1)", datatype=WKT)
    graph.add(NOA.term("h"), GEOMETRY, lit)
    assert len(_row_wise(engine, SELECTS[0])) == 1
    graph.remove(NOA.term("h"), GEOMETRY, lit)
    # Grow the log past everything indexed so far: the next pack merges
    # every run, and drops the literal nobody holds.
    for n in range(4):
        far = Literal(f"POINT ({50 + n} 50)", datatype=WKT)
        graph.add(NOA.term(f"far{n}"), GEOMETRY, far)
    assert len(_row_wise(engine, SELECTS[0])) == 0
    graph.add(NOA.term("h"), GEOMETRY, lit)
    rows = _row_wise(engine, SELECTS[0])
    assert [row["s"] for row in rows] == [NOA.term("h")]


def test_views_index_their_log_prefix_while_the_writer_appends():
    """Readers index snapshot views while the writer keeps appending to
    the geometry log they share: every view's index holds exactly the
    geometries its snapshot holds (distinct literals, none removed)."""
    engine = Strabon()
    everything = Polygon([(-1, -1), (101, -1), (101, 101), (-1, 101)])
    latest = [engine.snapshot_view()]
    done = threading.Event()
    failures = []

    def read():
        while not done.is_set():
            view = latest[-1]
            found = view.spatial_candidates(everything)
            expected = view.graph.count(None, GEOMETRY, None)
            if len(found) != expected:
                failures.append((len(found), expected))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=read) for _ in range(4)]
    try:
        for reader in readers:
            reader.start()
        for n in range(300):
            engine.add(
                NOA.term(f"g{n}"),
                GEOMETRY,
                Literal(f"POINT ({n % 100} {n // 3})", datatype=WKT),
            )
            if n % 3 == 0:
                latest.append(engine.snapshot_view())
    finally:
        done.set()
        for reader in readers:
            reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    assert len(latest[-1].spatial_candidates(everything)) == 298


def test_updates_pack_only_what_they_add(monkeypatch):
    engine = Strabon()
    for n in range(1000):
        node = NOA.term(f"archived{n}")
        engine.add(node, RDF.type, HOTSPOT)
        engine.add(
            node,
            GEOMETRY,
            Literal(f"POINT ({n % 40 * 0.5} {n // 40 * 0.5})", datatype=WKT),
        )
    region = (
        "SELECT ?s WHERE { ?s strdf:hasGeometry ?g . "
        'FILTER(strdf:anyInteract(?g, "POLYGON ((0 0, 30 0, 30 30, '
        '0 30, 0 0))"^^strdf:WKT)) }'
    )
    assert len(_row_wise(engine, region)) == 1000  # indexes the archive
    packed = []
    bulk_load = RTree.bulk_load

    def counting_bulk_load(entries):
        packed.append(len(entries))
        return bulk_load(entries)

    monkeypatch.setattr(RTree, "bulk_load", counting_bulk_load)
    for n in range(20):
        engine.update(
            PREFIX
            + f"INSERT DATA {{ noa:new{n} strdf:hasGeometry "
            + f'"POINT (25 {n})"^^strdf:WKT }}'
        )
        assert len(_row_wise(engine, region)) == 1001 + n
    assert len(packed) == 20 and sum(packed) < 1000, packed
