"""Differential testing: the engine == the row-wise reference.

Every read in the corpus runs through the engine (whose reads are
columnar) and through the per-row reference evaluator of
``reference.py`` over the same (seeded, randomised) graph; the
resulting :class:`SolutionSet`\\ s must be equal — same variables, same
multiset of rows (``SolutionSet.__eq__`` is deliberately row-order
insensitive).  The same corpus pins :class:`Strabon` and its
``snapshot_view()`` to one endpoint implementation: equal solutions,
equal explain documents.

The graph deliberately mixes plain ASCII, Greek and emoji literals
(the paper's corpora carry Greek toponyms) and WKT geometries, so the
dictionary-encoding round trip is exercised on non-trivial terms.
"""

import random

import pytest

from reference import reference_ask, reference_select

from repro.rdf import Literal, NOA, RDF, XSD
from repro.stsparql import Strabon

pytest.importorskip("numpy")

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
    "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"
)

#: Greek and emoji municipality names — exercise non-ASCII round trips.
PLACE_NAMES = [
    "Attica",
    "Πάρνηθα",
    "Λακωνία",
    "Μάνη 🔥",
    "Ηλεία",
    "forest-🌲",
]

SEED = 20130318  # EDBT 2013


def _wkt_square(x: int, y: int, size: int) -> str:
    x2, y2 = x + size, y + size
    return (
        f"POLYGON (({x} {y}, {x2} {y}, {x2} {y2}, {x} {y2}, {x} {y}))"
    )


def build_graph(seed: int = SEED, hotspots: int = 24):
    """A seeded random hotspot graph in the paper's vocabulary."""
    rng = random.Random(seed)
    triples = []
    strdf = "http://strdf.di.uoa.gr/ontology#"
    geom_dt = strdf + "geometry"
    period_dt = strdf + "period"
    for i in range(hotspots):
        h = NOA.term(f"hotspot{i}")
        triples.append((h, RDF.type, NOA.term("Hotspot")))
        triples.append(
            (
                h,
                NOA.term("hasConfidence"),
                Literal(
                    repr(round(rng.uniform(0.0, 1.0), 3)),
                    datatype=XSD.base + "double",
                ),
            )
        )
        triples.append(
            (
                h,
                NOA.term("producedBy"),
                Literal(rng.choice(PLACE_NAMES)),
            )
        )
        x, y = rng.randrange(0, 12), rng.randrange(0, 12)
        triples.append(
            (
                h,
                NOA.term("hasGeometry"),
                Literal(
                    _wkt_square(x, y, rng.randrange(1, 4)),
                    datatype=geom_dt,
                ),
            )
        )
        hour = rng.randrange(0, 20)
        triples.append(
            (
                h,
                NOA.term("hasValidTime"),
                Literal(
                    f"[2007-08-25T{hour:02d}:00:00, "
                    f"2007-08-25T{hour + 3:02d}:00:00)",
                    datatype=period_dt,
                ),
            )
        )
        if rng.random() < 0.5:
            triples.append(
                (
                    h,
                    NOA.term("hasAcquisitionTime"),
                    Literal(
                        f"2007-08-25T{hour:02d}:30:00",
                        datatype=XSD.base + "dateTime",
                    ),
                )
            )
    # A couple of regions for spatial joins and subclass inference.
    for j, name in enumerate(("coast", "forest")):
        r = NOA.term(name)
        triples.append((r, RDF.type, NOA.term("Region")))
        triples.append(
            (
                r,
                NOA.term("hasGeometry"),
                Literal(_wkt_square(j * 6, 0, 8), datatype=geom_dt),
            )
        )
    return triples


def make_engine():
    engine = Strabon()
    for s, p, o in build_graph():
        engine.add(s, p, o)
    return engine


QUERIES = [
    # Plain BGP joins.
    "SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c }",
    "SELECT * WHERE { ?h noa:producedBy ?src ; noa:hasConfidence ?c }",
    # Numeric filters (vectorised comparison path).
    """SELECT ?h WHERE { ?h noa:hasConfidence ?c .
       FILTER(?c > 0.5) }""",
    """SELECT ?h ?c WHERE { ?h noa:hasConfidence ?c .
       FILTER(?c >= 0.25 && ?c < 0.75) }""",
    """SELECT ?h WHERE { ?h noa:hasConfidence ?c .
       FILTER(!(?c <= 0.5) || ?c = 0.125) }""",
    # String / mixed comparisons (per-combination fallback path).
    """SELECT ?h ?src WHERE { ?h noa:producedBy ?src .
       FILTER(?src = "Πάρνηθα") }""",
    """SELECT ?h WHERE { ?h noa:producedBy ?src .
       FILTER(?src != "Μάνη 🔥") }""",
    # Datetime comparison (vectorised instant keys).
    """SELECT ?h ?t WHERE { ?h noa:hasAcquisitionTime ?t .
       FILTER(?t >= "2007-08-25T06:00:00"^^xsd:dateTime) }""",
    # Spatial join + predicate memo.
    """SELECT ?h WHERE {
       noa:coast noa:hasGeometry ?cg .
       ?h a noa:Hotspot ; noa:hasGeometry ?hg .
       FILTER(strdf:anyInteract(?hg, ?cg)) }""",
    """SELECT ?a ?b WHERE {
       ?a a noa:Region ; noa:hasGeometry ?ga .
       ?b a noa:Hotspot ; noa:hasGeometry ?gb .
       FILTER(strdf:contains(?ga, ?gb)) }""",
    # Temporal relations (vectorised Allen formulas).
    """SELECT ?h WHERE { ?h noa:hasValidTime ?t .
       FILTER(strdf:during("2007-08-25T10:30:00", ?t)) }""",
    """SELECT ?a ?b WHERE {
       ?a noa:hasValidTime ?ta . ?b noa:hasValidTime ?tb .
       FILTER(?a != ?b) FILTER(strdf:periodOverlaps(?ta, ?tb)) }""",
    """SELECT ?a ?b WHERE {
       ?a noa:hasValidTime ?ta . ?b noa:hasValidTime ?tb .
       FILTER(strdf:before(?ta, ?tb)) }""",
    # OPTIONAL / UNION / MINUS / BIND / EXISTS.
    """SELECT ?h ?t WHERE { ?h noa:hasConfidence ?c .
       OPTIONAL { ?h noa:hasAcquisitionTime ?t } }""",
    """SELECT ?x WHERE {
       { ?x a noa:Hotspot } UNION { ?x a noa:Region } }""",
    """SELECT ?h WHERE { ?h a noa:Hotspot .
       MINUS { ?h noa:hasAcquisitionTime ?t } }""",
    """SELECT ?h ?twice WHERE { ?h noa:hasConfidence ?c .
       BIND(?c * 2 AS ?twice) }""",
    """SELECT ?h WHERE { ?h a noa:Hotspot .
       FILTER(EXISTS { ?h noa:hasAcquisitionTime ?t }) }""",
    """SELECT ?h WHERE { ?h a noa:Hotspot .
       FILTER(!bound(?missing)) }""",
    # EXISTS in a BIND and in a projection (answered per row there).
    """SELECT ?h WHERE { ?h noa:hasConfidence ?c .
       BIND(EXISTS { ?h noa:hasAcquisitionTime ?t } || ?c > 0.9 AS ?keep)
       FILTER(?keep) }""",
    """SELECT ?h (EXISTS { ?h noa:hasAcquisitionTime ?t } AS ?timed)
       WHERE { ?h a noa:Hotspot }""",
    # Aggregation and grouping.
    """SELECT ?src (COUNT(?h) AS ?n) (AVG(?c) AS ?mean)
       WHERE { ?h noa:producedBy ?src ; noa:hasConfidence ?c }
       GROUP BY ?src""",
    """SELECT ?src (strdf:union(?g) AS ?area)
       WHERE { ?h noa:producedBy ?src ; noa:hasGeometry ?g }
       GROUP BY ?src""",
    """SELECT (COUNT(*) AS ?n) WHERE { ?h a noa:Hotspot }""",
    # Modifiers.
    """SELECT DISTINCT ?src WHERE { ?h noa:producedBy ?src }""",
    """SELECT ?h ?c WHERE { ?h noa:hasConfidence ?c }
       ORDER BY DESC(?c) ?h LIMIT 7""",
    """SELECT ?h WHERE { ?h a noa:Hotspot } OFFSET 5 LIMIT 5""",
    # Subselect join.
    """SELECT ?h ?src WHERE {
       ?h noa:producedBy ?src .
       { SELECT DISTINCT ?src WHERE {
           ?x noa:producedBy ?src ; noa:hasConfidence ?c .
           FILTER(?c > 0.6) } } }""",
    # Projection expressions over geometries and strings.
    """SELECT ?h (strdf:area(?g) AS ?a) WHERE {
       ?h a noa:Hotspot ; noa:hasGeometry ?g }""",
    """SELECT (str(?src) AS ?name) WHERE { ?h noa:producedBy ?src }""",
]

ASKS = [
    "ASK { ?h noa:hasConfidence ?c . FILTER(?c > 0.99) }",
    "ASK { ?h noa:producedBy \"Λακωνία\" }",
    "ASK { ?h noa:producedBy \"nowhere\" }",
]


@pytest.fixture(scope="module")
def engine():
    return make_engine()


@pytest.mark.parametrize("query", QUERIES)
def test_select_differential(engine, query):
    assert engine.select(PREFIX + query) == reference_select(
        engine, PREFIX + query
    )


@pytest.mark.parametrize("query", ASKS)
def test_ask_differential(engine, query):
    assert engine.ask(PREFIX + query) == reference_ask(
        engine, PREFIX + query
    )


@pytest.mark.parametrize("query", QUERIES + ASKS)
def test_live_store_and_snapshot_view_are_one_endpoint(engine, query):
    view = engine.snapshot_view()
    assert view.query(PREFIX + query) == engine.query(PREFIX + query)
    assert view.query(PREFIX + query, explain=True) == engine.query(
        PREFIX + query, explain=True
    )


def test_randomised_threshold_sweep(engine):
    """Seeded sweep: many filter thresholds, engine and reference
    agree."""
    rng = random.Random(SEED + 1)
    for _ in range(20):
        lo = round(rng.uniform(0.0, 1.0), 3)
        hi = round(rng.uniform(0.0, 1.0), 3)
        q = (
            PREFIX
            + f"""SELECT ?h ?c WHERE {{ ?h noa:hasConfidence ?c .
            FILTER(?c >= {lo} && ?c <= {hi}) }}"""
        )
        assert engine.select(q) == reference_select(engine, q)
