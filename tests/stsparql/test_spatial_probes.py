"""Subject checks inside R-tree probes: a differential and a count guard.

A probe around a geometry returns every holder of every co-located
geometry; the engine tests each holder against the rest of its star
(class, constant-object, parameter-object and comparison-filtered
object checks) before it becomes a row.  The checks are necessary
conditions taken from the BGP's mandatory conjuncts, so every answer
must equal the row-wise reference evaluator over
``Strabon(enable_spatial_index=False)`` — no probe, so no checks.

Seeded small graphs hold co-located geometries of several classes,
subclass instances, subjects with two timestamps (one inside the
window, one outside), and non-literal or ill-typed objects.  Each query
shape runs through the engine on the live store and on a
``snapshot_view()``, and through the reference with the endpoint's
index (the bindings an update ``WHERE`` would see).

The count guard pins what the probe saves: with a Municipalities-shaped
query, the rows leaving the R-tree step do not depend on how many
archived hotspots and detections share the probed pixel.
"""

import random

import pytest

from reference import reference_evaluator

from repro.rdf import Literal, NOA, RDF, XSD
from repro.rdf.namespace import RDFS, STRDF
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
TIME = NOA.term("hasAcquisitionDateTime")
CONFIDENCE = NOA.term("hasConfidence")
LAND_USE = NOA.term("hasLandUse")
CLASSES = [
    NOA.term(name)
    for name in ("Hotspot", "Detection", "Area", "Forest", "OldForest",
                 "Coast")
]


def _stamp(hour: int) -> Literal:
    return Literal(
        f"2007-08-24T{hour:02d}:00:00", datatype=XSD.base + "dateTime"
    )


STAMPS = [_stamp(hour) for hour in range(10, 16)]
#: Objects of the time and confidence predicates that are not what the
#: comparison expects: a URI, a plain string, an ill-typed dateTime.
ODD_OBJECTS = [
    NOA.term("someday"),
    Literal("yesterday"),
    Literal("not-a-time", datatype=XSD.base + "dateTime"),
]

#: Query shapes, each run with the params next to it.  ``?__ts`` /
#: ``?__start`` are a parameter window; a list of params is a seeded
#: VALUES batch whose values vary between rows.
SHAPES = [
    # Class checks, with subclass instances (Forest, OldForest < Area).
    ("""SELECT * WHERE {
          ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
          ?a a noa:Area ; strdf:hasGeometry ?ag .
          FILTER(strdf:anyInteract(?hg, ?ag)) }""", None),
    # A constant object and a parameter object.
    ("""SELECT * WHERE {
          ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?__ts ;
             strdf:hasGeometry ?hg .
          ?a noa:hasLandUse noa:forest ; strdf:hasGeometry ?ag .
          FILTER(strdf:anyInteract(?hg, ?ag)) }""", "ts"),
    # Time Persistence: a comparison-filtered window on the holder.
    ("""SELECT * WHERE {
          ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?__ts ;
             strdf:hasGeometry ?hg .
          ?p a noa:Hotspot ; noa:hasAcquisitionDateTime ?pt ;
             strdf:hasGeometry ?pg .
          FILTER(str(?pt) < str(?__ts)) .
          FILTER(str(?pt) >= str(?__start) && ?p != ?h) .
          FILTER(strdf:anyInteract(?hg, ?pg)) }""", "window"),
    # Numeric comparison over ill-typed confidences, and a comparison
    # between two pattern variables (not a pushable check).
    ("""SELECT * WHERE {
          ?h a noa:Hotspot ; noa:hasConfidence ?hc ;
             strdf:hasGeometry ?hg .
          ?d a noa:Detection ; noa:hasConfidence ?dc ;
             strdf:hasGeometry ?dg .
          FILTER(?dc > 0.4) . FILTER(?dc >= ?hc) .
          FILTER(strdf:anyInteract(?hg, ?dg)) }""", None),
    # A filter on an OPTIONAL variable.
    ("""SELECT * WHERE {
          ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
          ?a a noa:Area ; strdf:hasGeometry ?ag .
          OPTIONAL { ?a noa:hasConfidence ?ac }
          FILTER(!bound(?ac) || ?ac > 0.5) .
          FILTER(strdf:anyInteract(?hg, ?ag)) }""", None),
    # A star inside OPTIONAL (Delete In Sea), with its own filters.
    ("""SELECT * WHERE {
          ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
          OPTIONAL { ?c a noa:Coast ; noa:hasConfidence ?cc ;
                        strdf:hasGeometry ?cg .
                     FILTER(?cc <= 0.6) .
                     FILTER(strdf:anyInteract(?hg, ?cg)) } }""", None),
    # Stars inside UNION branches and inside NOT EXISTS.
    ("""SELECT * WHERE {
          ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
          { ?x a noa:Forest ; strdf:hasGeometry ?xg .
            FILTER(strdf:anyInteract(?hg, ?xg)) }
          UNION
          { ?x a noa:Detection ; noa:hasAcquisitionDateTime ?xt ;
               strdf:hasGeometry ?xg .
            FILTER(str(?xt) >= "2007-08-24T12") .
            FILTER(strdf:anyInteract(?hg, ?xg)) }
          FILTER NOT EXISTS {
            ?o a noa:Coast ; noa:hasLandUse noa:forest ;
               strdf:hasGeometry ?og .
            FILTER(strdf:anyInteract(?hg, ?og)) } }""", None),
    # A variable class under inference (the FILTER must see inferred
    # superclasses) and a variable predicate on the probed pattern.
    ("""SELECT * WHERE {
          ?h a noa:Hotspot ; strdf:hasGeometry ?hg .
          ?a a ?cls ; ?gp ?ag .
          FILTER(?cls = noa:Area) .
          FILTER(strdf:anyInteract(?hg, ?ag)) }""", None),
    # Seeded params whose values vary between rows: neither is a
    # constant, so neither may shape a check.
    ("""SELECT * WHERE {
          ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?__ts ;
             strdf:hasGeometry ?hg .
          ?p noa:hasAcquisitionDateTime ?__ts ; noa:hasConfidence ?pc ;
             strdf:hasGeometry ?pg .
          FILTER(?pc >= ?__min) .
          FILTER(strdf:anyInteract(?hg, ?pg)) }""", "varying"),
]


def _params(kind, rng):
    if kind is None:
        return None
    at = rng.randrange(1, len(STAMPS))
    if kind == "ts":
        return {"__ts": STAMPS[at]}
    if kind == "window":
        return {"__ts": STAMPS[at], "__start": STAMPS[at - 1]}
    # Rows in both orders of strictness, so a check that read the first
    # row's values as constants would drop the other row's holders.
    rows = [
        {"__ts": STAMPS[at], "__min": Literal(0.7)},
        {"__ts": STAMPS[at - 1], "__min": Literal(0.1)},
    ]
    return rows if rng.random() < 0.5 else rows[::-1]


def _square(rng):
    x, y = rng.randrange(0, 6), rng.randrange(0, 6)
    size = rng.choice((1, 2))
    return Literal(
        f"POLYGON (({x} {y}, {x + size} {y}, {x + size} {y + size}, "
        f"{x} {y + size}, {x} {y}))",
        datatype=WKT,
    )


def _graph(engine, rng):
    graph = engine.graph
    graph.add(NOA.term("Forest"), RDFS.subClassOf, NOA.term("Area"))
    graph.add(NOA.term("OldForest"), RDFS.subClassOf, NOA.term("Forest"))
    pool = [_square(rng) for _ in range(10)]
    for n in range(36):
        node = NOA.term(f"s{n}")
        for cls in rng.sample(CLASSES, rng.choice((0, 1, 1, 1, 2))):
            graph.add(node, RDF.type, cls)
        for geom in rng.sample(pool, rng.choice((1, 1, 2))):
            graph.add(node, GEOMETRY, geom)
        # One or two timestamps (often one inside a window, one
        # outside), sometimes an odd object instead.
        for _ in range(rng.choice((0, 1, 2))):
            graph.add(
                node,
                TIME,
                rng.choice(ODD_OBJECTS)
                if rng.random() < 0.1
                else rng.choice(STAMPS),
            )
        if rng.random() < 0.8:
            graph.add(
                node,
                CONFIDENCE,
                rng.choice(ODD_OBJECTS)
                if rng.random() < 0.1
                else Literal(rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))),
            )
        if rng.random() < 0.4:
            graph.add(node, LAND_USE, NOA.term("forest"))


def _rows(rows):
    names = sorted({name for row in rows for name in row})
    return SolutionSet(names, rows)


def _answers(endpoint, text, params):
    """The solutions of one shape on an endpoint: the engine's, and
    the reference's update ``WHERE`` bindings with the same index."""
    parsed = parse(PREFIX + text)
    rows = reference_evaluator(endpoint, initial=params).update_bindings(
        parsed.pattern
    )
    return _rows(endpoint.select(PREFIX + text, params).rows), _rows(rows)


@pytest.mark.parametrize("seed", range(6))
def test_probe_checks_leave_every_answer_unchanged(seed):
    rng = random.Random(seed)
    engine = Strabon()
    _graph(engine, rng)
    no_index = Strabon(engine.graph, enable_spatial_index=False)
    for index, (text, kind) in enumerate(SHAPES):
        params = _params(kind, rng)
        parsed = parse(PREFIX + text)
        expected = _rows(
            reference_evaluator(no_index, initial=params).update_bindings(
                parsed.pattern
            )
        )
        for endpoint in (engine, engine.snapshot_view()):
            columnar, row_wise = _answers(endpoint, text, params)
            assert columnar == expected, (seed, index)
            assert row_wise == expected, (seed, index)


def test_the_differential_exercises_pushed_checks():
    """The shapes above really probe with checks (a guard against a
    corpus that silently stopped reaching the mechanism)."""
    engine = Strabon()
    _graph(engine, random.Random(0))
    pushed = set()
    for text, kind in SHAPES:
        params = _params(kind, random.Random(1))
        for operation in (
            "SELECT * WHERE ",
            "INSERT { ?h noa:probed 1 } WHERE ",
        ):
            body = text.split("WHERE", 1)[1]
            plan = engine.query(
                PREFIX + operation + body, params=params, explain=True
            )["plan"]
            for bgp in plan:
                for checks in bgp["probe_checks"]:
                    pushed.update(checks or ())
    assert f"?h {RDF.type.n3()} {NOA.term('Hotspot').n3()}" in pushed
    assert f"?a {LAND_USE.n3()} {NOA.term('forest').n3()}" in pushed
    assert f"?p {TIME.n3()} ?pt" in pushed
    assert f"?c {CONFIDENCE.n3()} ?cc" in pushed


MUNICIPALITIES = """
  ?h a noa:Hotspot ; noa:hasAcquisitionDateTime ?__ts ;
     strdf:hasGeometry ?hGeo .
  ?m a noa:Dhmos ; strdf:hasGeometry ?mGeo .
  FILTER(strdf:anyInteract(?hGeo, ?mGeo)) }"""


def _archive(archived: int) -> Strabon:
    """Twenty municipalities, one current hotspot inside the first,
    and ``archived`` earlier hotspots and source detections on the same
    pixel (the co-located history a burning fire leaves)."""
    engine = Strabon()
    pixel = Literal("POLYGON ((1 1, 2 1, 2 2, 1 2, 1 1))", datatype=WKT)
    for n in range(20):
        x = 10 * n
        engine.add(NOA.term(f"m{n}"), RDF.type, NOA.term("Dhmos"))
        engine.add(
            NOA.term(f"m{n}"),
            GEOMETRY,
            Literal(
                f"POLYGON (({x} 0, {x + 4} 0, {x + 4} 4, {x} 4, {x} 0))",
                datatype=WKT,
            ),
        )
    for n in range(archived + 1):
        for cls in ("Hotspot", "Detection"):
            node = NOA.term(f"{cls}{n}")
            engine.add(node, RDF.type, NOA.term(cls))
            engine.add(node, TIME, _stamp(10) if n else _stamp(11))
            engine.add(
                node,
                GEOMETRY,
                pixel
                if cls == "Hotspot"
                else Literal(
                    f"POINT ({1.5 + n * 1e-6} 1.5)", datatype=WKT
                ),
            )
    return engine


@pytest.mark.parametrize(
    "operation",
    ["SELECT ?h ?m WHERE {", "INSERT { ?h noa:isIn ?m } WHERE {"],
    ids=["columnar", "row-wise"],
)
def test_probe_rows_do_not_grow_with_co_located_history(operation):
    plans = {}
    for archived in (10, 1000):
        (bgp,) = _archive(archived).query(
            PREFIX + operation + MUNICIPALITIES,
            params={"__ts": _stamp(11)},
            explain=True,
        )["plan"]
        plans[archived] = bgp
    small, large = plans[10], plans[1000]
    assert small["join_order"] == large["join_order"]
    step = large["join_order"].index(
        f"?m {GEOMETRY.n3()} ?mGeo"
    )
    # The probe around the current hotspot finds the municipality and
    # every archived holder on the pixel; only the municipality passes
    # its star, so the rows leaving the step stay the same ...
    assert large["probe_checks"][step] == [
        f"?m {RDF.type.n3()} {NOA.term('Dhmos').n3()}"
    ]
    assert small["actual_rows"] == large["actual_rows"]
    assert large["actual_rows"][step] == 1
    # ... while the walk over the index itself still grows (the part a
    # class- or time-partitioned index would remove).
    assert large["probe_holders"][step] > small["probe_holders"][step]
