"""The stSPARQL parsed-plan cache and parameterized execution."""

from __future__ import annotations

import pytest

from repro import obs
from repro.rdf import NOA, RDF, Literal, XSD
from repro.stsparql import SparqlEvalError, Strabon

PREFIX = (
    "PREFIX noa: "
    "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

TURTLE = """
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
noa:h1 a noa:Hotspot ; noa:hasAcquisitionTime
  "2007-08-24T12:00:00"^^xsd:dateTime .
noa:h2 a noa:Hotspot ; noa:hasAcquisitionTime
  "2007-08-24T12:15:00"^^xsd:dateTime .
"""

AT_TIME = PREFIX + (
    "SELECT ?h WHERE { ?h a noa:Hotspot ; "
    "noa:hasAcquisitionTime ?__ts . }"
)


def _ts(lexical: str) -> Literal:
    return Literal(lexical, datatype=XSD.base + "dateTime")


@pytest.fixture
def engine() -> Strabon:
    s = Strabon()
    s.load_turtle(TURTLE)
    return s


def test_identical_text_parses_once(engine):
    query = PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot . }"
    for _ in range(3):
        assert len(engine.select(query)) == 2
    stats = engine.plan_cache.stats()
    assert stats.misses == 1
    assert stats.hits == 2


def test_distinct_texts_get_distinct_entries(engine):
    engine.select(PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot . }")
    engine.ask(PREFIX + "ASK { ?h a noa:Hotspot }")
    assert engine.plan_cache.stats().misses == 2
    assert len(engine.plan_cache) == 2


def test_parameters_keep_text_constant_but_results_specific(engine):
    rows_noon = engine.select(
        AT_TIME, {"__ts": _ts("2007-08-24T12:00:00")}
    )
    rows_next = engine.select(
        AT_TIME, {"?__ts": _ts("2007-08-24T12:15:00")}  # '?' optional
    )
    assert len(rows_noon) == len(rows_next) == 1
    (noon,) = rows_noon.column("h")
    (next_,) = rows_next.column("h")
    assert noon != next_
    # One text, one plan: the second execution must be a cache hit.
    stats = engine.plan_cache.stats()
    assert stats.misses == 1 and stats.hits == 1


def test_unconvertible_parameter_is_a_typed_engine_error(engine):
    # A JSON object has no RDF term: the engine must say so with its
    # own error type (the serving tier maps it to a 4xx), naming the
    # parameter — not leak the evaluator-internal ExpressionError.
    for endpoint in (engine, engine.snapshot_view()):
        with pytest.raises(SparqlEvalError, match="__ts"):
            endpoint.query(AT_TIME, params={"__ts": {"a": 1}})


def test_parameter_is_planned_like_the_constant_it_stands_for():
    # 300 hotspots, 30 per acquisition, 50 municipalities: the time
    # pattern is the selective start whether the time is written into
    # the text or passed as a parameter.
    engine = Strabon()
    for i in range(300):
        h = NOA.term(f"h{i}")
        engine.add(h, RDF.type, NOA.Hotspot)
        engine.add(
            h, NOA.hasAcquisitionTime, _ts(f"2007-08-24T{i % 10:02d}:00:00")
        )
    for j in range(50):
        engine.add(NOA.term(f"m{j}"), RDF.type, NOA.Municipality)
    text = PREFIX + (
        "SELECT ?h ?m WHERE { ?h a noa:Hotspot ; "
        "noa:hasAcquisitionTime ?__ts . ?m a noa:Municipality . }"
    )
    at = _ts("2007-08-24T03:00:00")
    passed = engine.query(text, params={"__ts": at}, explain=True)
    written = engine.query(text.replace("?__ts", at.n3()), explain=True)
    for doc in (passed, written):
        assert "hasAcquisitionTime" in doc["plan"][0]["join_order"][0]
        assert doc["rows"] == 30 * 50
    assert passed["plan"][0]["estimates"] == written["plan"][0]["estimates"]


def test_updates_are_plan_cached_and_parameterized(engine):
    delete = PREFIX + (
        "DELETE { ?h noa:hasAcquisitionTime ?__ts } "
        "WHERE { ?h noa:hasAcquisitionTime ?__ts }"
    )
    first = engine.update(delete, {"__ts": _ts("2007-08-24T12:00:00")})
    second = engine.update(delete, {"__ts": _ts("2007-08-24T12:15:00")})
    assert first.removed == 1 and second.removed == 1
    stats = engine.plan_cache.stats()
    assert stats.misses == 1 and stats.hits == 1


def test_hit_and_miss_counters_reach_the_metrics_registry(engine):
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        query = PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot . }"
        for _ in range(3):
            engine.select(query)
        metrics = obs.get_metrics()
        hits = metrics.get("stsparql_plan_cache_hits_total")
        misses = metrics.get("stsparql_plan_cache_misses_total")
        assert misses is not None and misses.total() == 1.0
        assert hits is not None and hits.total() == 2.0
    finally:
        obs.disable()
        obs.reset()


def test_plan_cache_entries_are_reusable_not_stateful(engine):
    """Re-running a cached plan must not leak state between runs."""
    query = PREFIX + (
        "SELECT ?h WHERE { ?h a noa:Hotspot ; "
        "noa:hasAcquisitionTime ?t . } ORDER BY ?t"
    )
    first = [row["h"] for row in engine.select(query)]
    second = [row["h"] for row in engine.select(query)]
    assert first == second and len(first) == 2

