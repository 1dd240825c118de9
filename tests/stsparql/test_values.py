"""Inline ``VALUES`` blocks: semantics and placement.

A block is one more relation of the BGP it is written among.  Its
answers equal the row-wise reference evaluator's, and the planner
places it by its row count: after a star anchored on bound subjects
(a seeded standing-query shape joins its constants once per seed
subject, never as a cross product in front of the star), in front of
an unanchored star it is smaller than (so a region constant still
drives an R-tree index join).
"""

import pytest

from reference import reference_evaluator

from repro.rdf import Literal, NOA, RDF, STRDF, URI
from repro.stsparql import Strabon
from repro.stsparql.engine import _param_rows
from repro.stsparql.parser import parse

pytest.importorskip("numpy")

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

#: Two standing-query regions lifted into one VALUES block, as the
#: subscription engine's shapes carry them.
SHAPE = PREFIX + (
    "SELECT ?h ?sub WHERE { VALUES (?sub ?region) { "
    '("a" "POLYGON ((0 0, 5 0, 5 5, 0 5, 0 0))"^^strdf:WKT) '
    '("b" "POLYGON ((4 4, 9 4, 9 9, 4 9, 4 4))"^^strdf:WKT) } '
    "?h a noa:Hotspot ; strdf:hasGeometry ?g . "
    "FILTER(strdf:anyInteract(?region, ?g)) }"
)


@pytest.fixture(scope="module")
def engine():
    strabon = Strabon()
    add = strabon.graph.add
    for n in range(40):
        h = URI(f"http://example.org/h{n}")
        add(h, RDF.type, NOA.Hotspot)
        add(h, NOA.hasConfidence, Literal(n / 40))
        add(
            h,
            STRDF.hasGeometry,
            Literal(f"POINT ({n % 10} {n // 4})", datatype=STRDF.WKT),
        )
    return strabon


def _reference(engine, text, params=None):
    return reference_evaluator(engine, initial=_param_rows(params)).select(
        parse(text)
    )


@pytest.mark.parametrize(
    "where",
    [
        # After the BGP, one column shared with it.
        "?h noa:hasConfidence ?c . VALUES ?c { 0.0 0.5 9.0 }",
        # Leading the group, joined by a FILTER; an UNDEF cell.
        "VALUES (?k ?tag) { (0.5 \"x\") (0.9 UNDEF) } "
        "?h noa:hasConfidence ?c . FILTER(?c >= ?k)",
        # Inside OPTIONAL and UNION branches.
        "?h a noa:Hotspot . OPTIONAL { ?h noa:hasConfidence ?c . "
        "VALUES ?c { 0.25 } } { VALUES ?x { 1 } } UNION "
        "{ ?h noa:hasConfidence ?x . VALUES ?x { 0.75 2 } }",
        # An empty block has no solutions.
        "?h a noa:Hotspot . VALUES ?k { }",
    ],
)
def test_answers_equal_the_reference(engine, where):
    text = PREFIX + f"SELECT * WHERE {{ {where} }}"
    assert engine.select(text) == _reference(engine, text)


def test_shape_answers_are_the_union_of_its_members(engine):
    rows = engine.select(SHAPE).rows
    for sub, region in (("a", "0 0, 5 0, 5 5, 0 5"), ("b", "4 4, 9 4, 9 9, 4 9")):
        alone = engine.select(
            PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot ; "
            "strdf:hasGeometry ?g . FILTER(strdf:anyInteract("
            f'"POLYGON (({region}, {region.split(",")[0]}))"^^strdf:WKT, '
            "?g)) }"
        )
        assert {r["h"] for r in rows if r["sub"].lexical == sub} == {
            r["h"] for r in alone.rows
        }
    assert engine.select(SHAPE) == _reference(engine, SHAPE)


def test_seeded_shape_joins_the_block_after_the_star(engine):
    params = [{"h": URI(f"http://example.org/h{n}")} for n in (3, 17, 30)]
    plan = engine.query(SHAPE, params=params, explain=True)
    (bgp,) = plan["plan"]
    *star, last = bgp["join_order"]
    assert last.startswith("VALUES (?sub ?region)")
    assert all(step.startswith("?h ") for step in star)
    seeded = engine.select(SHAPE, params)
    assert seeded == _reference(engine, SHAPE, params)


def test_unseeded_shape_probes_the_rtree_per_region(engine):
    plan = engine.query(SHAPE, explain=True)
    (bgp,) = plan["plan"]
    assert bgp["join_order"][0].startswith("VALUES (?sub ?region)")
    assert STRDF.hasGeometry.value in bgp["join_order"][1]
    assert bgp["probe_holders"][1] is not None  # went through the R-tree
