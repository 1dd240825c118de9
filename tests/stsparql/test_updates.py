"""SPARQL Update semantics, including the paper's refinement updates."""

import pytest

from repro.rdf import Literal, NOA, RDF, STRDF
from repro.stsparql import SparqlEvalError, Strabon

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX coast: <http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)


@pytest.fixture
def engine():
    s = Strabon()
    s.load_turtle(
        """
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
@prefix coast: <http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#> .
noa:land a noa:Hotspot ;
  strdf:hasGeometry "POLYGON ((21.3 37.4, 21.5 37.4, 21.5 37.6, 21.3 37.6, 21.3 37.4))"^^strdf:geometry ;
  noa:hasConfidence 1.0 .
noa:sea a noa:Hotspot ;
  strdf:hasGeometry "POLYGON ((30 30, 30.2 30, 30.2 30.2, 30 30.2, 30 30))"^^strdf:geometry ;
  noa:hasConfidence 0.5 .
noa:coastal a noa:Hotspot ;
  strdf:hasGeometry "POLYGON ((21.9 37.4, 22.1 37.4, 22.1 37.6, 21.9 37.6, 21.9 37.4))"^^strdf:geometry ;
  noa:hasConfidence 1.0 .
coast:Coastline_0 a coast:Coastline ;
  strdf:hasGeometry "POLYGON ((21 37, 22 37, 22 38, 21 38, 21 37))"^^strdf:geometry .
"""
    )
    return s


class TestDataForms:
    def test_insert_data(self, engine):
        result = engine.update(
            PREFIX + "INSERT DATA { noa:x a noa:Hotspot . }"
        )
        assert result.added == 1

    def test_insert_data_idempotent(self, engine):
        engine.update(PREFIX + "INSERT DATA { noa:x a noa:Hotspot }")
        again = engine.update(PREFIX + "INSERT DATA { noa:x a noa:Hotspot }")
        assert again.added == 0

    def test_delete_data(self, engine):
        result = engine.update(
            PREFIX + "DELETE DATA { noa:land a noa:Hotspot }"
        )
        assert result.removed == 1

    def test_data_with_variables_rejected(self, engine):
        with pytest.raises(SparqlEvalError):
            engine.update(PREFIX + "INSERT DATA { ?x a noa:Hotspot }")


class TestWhereForms:
    def test_insert_where(self, engine):
        result = engine.update(
            PREFIX
            + """INSERT { ?h noa:flagged noa:yes }
                 WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c .
                         FILTER(?c >= 1.0) }"""
        )
        assert result.added == 2

    def test_delete_where_pattern(self, engine):
        result = engine.update(
            PREFIX
            + """DELETE { ?h noa:hasConfidence ?c }
                 WHERE { ?h noa:hasConfidence ?c . FILTER(?c < 0.7) }"""
        )
        assert result.removed == 1

    def test_unbound_template_variable_skipped(self, engine):
        # ?missing is never bound: nothing is deleted, no crash (matches
        # SPARQL semantics; the paper's first update has this flavour).
        result = engine.update(
            PREFIX
            + """DELETE { ?h noa:hasConfidence ?missing }
                 WHERE { ?h a noa:Hotspot }"""
        )
        assert result.removed == 0

    def test_illegal_template_triples_skipped(self):
        # SPARQL 1.1 Update §3.1.3: a template triple with a literal
        # subject or a non-IRI predicate is neither inserted nor
        # deleted; the legal triples of the same solutions still are.
        engine = Strabon()
        a, b = NOA.term("a"), NOA.term("b")
        lit = Literal("lit")
        engine.add(a, NOA.term("p"), lit)
        engine.add(a, NOA.term("p"), b)
        before = len(engine.graph)
        flipped = engine.update(
            PREFIX + "INSERT { ?o noa:q ?s } WHERE { ?s noa:p ?o }"
        )
        assert flipped.added == 1
        assert (b, NOA.term("q"), a) in engine.graph
        assert not list(engine.graph.triples(lit, None, None))
        as_predicate = engine.update(
            PREFIX + "INSERT { ?s ?o noa:z } WHERE { ?s noa:p ?o }"
        )
        assert as_predicate.added == 1
        assert (a, b, NOA.term("z")) in engine.graph
        assert not list(engine.graph.triples(None, lit, None))
        assert len(engine.graph) == before + 2
        deleted = engine.update(
            PREFIX + "DELETE { ?o noa:p ?s } WHERE { ?s noa:p ?o }"
        )
        assert deleted.removed == 0
        built = engine.construct(
            PREFIX + "CONSTRUCT { ?o noa:q ?s } WHERE { ?s noa:p ?o }"
        )
        assert list(built.triples(None, None, None)) == [
            (b, NOA.term("q"), a)
        ]


class TestPaperUpdates:
    def test_delete_in_sea(self, engine):
        result = engine.update(
            PREFIX
            + """DELETE {?h ?hProperty ?hObject}
WHERE {
  ?h a noa:Hotspot;
  strdf:hasGeometry ?hGeo;
  ?hProperty ?hObject.
  OPTIONAL {
    ?c a coast:Coastline ;
    strdf:hasGeometry ?cGeo .
    FILTER (strdf:anyInteract(?hGeo, ?cGeo))}
  FILTER(!bound(?c))}"""
        )
        assert result.removed == 3  # all three triples of noa:sea
        remaining = engine.select(
            PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot }"
        )
        assert {row["h"].local_name() for row in remaining} == {
            "land",
            "coastal",
        }

    def test_refine_in_coast(self, engine):
        result = engine.update(
            PREFIX
            + """DELETE {?h strdf:hasGeometry ?hGeo}
INSERT {?h strdf:hasGeometry ?dif}
WHERE {
  SELECT DISTINCT ?h ?hGeo
  (strdf:intersection(?hGeo, strdf:union(?cGeo)) AS ?dif)
  WHERE {
    ?h a noa:Hotspot ;
    strdf:hasGeometry ?hGeo .
    ?c a coast:Coastline ;
    strdf:hasGeometry ?cGeo .
    FILTER(strdf:anyInteract(?hGeo, ?cGeo))}
  GROUP BY ?h ?hGeo
  HAVING strdf:overlap(?hGeo, strdf:union(?cGeo))}"""
        )
        assert result.removed == 1 and result.added == 1
        geom = engine.graph.value(NOA.coastal, STRDF.hasGeometry)
        # The coastal hotspot lost its sea half: 0.2x0.2 -> 0.1x0.2.
        assert geom.value.area == pytest.approx(0.02, rel=1e-6)
        # The fully-inland hotspot was not touched.
        land_geom = engine.graph.value(NOA.land, STRDF.hasGeometry)
        assert land_geom.value.area == pytest.approx(0.04, rel=1e-6)

    def test_refinement_updates_are_idempotent(self, engine):
        update = (
            PREFIX
            + """DELETE {?h ?p ?o}
WHERE {
  ?h a noa:Hotspot; strdf:hasGeometry ?hGeo; ?p ?o.
  OPTIONAL { ?c a coast:Coastline ; strdf:hasGeometry ?cGeo .
             FILTER (strdf:anyInteract(?hGeo, ?cGeo))}
  FILTER(!bound(?c))}"""
        )
        first = engine.update(update)
        second = engine.update(update)
        assert first.removed == 3
        assert second.removed == 0


class TestStats:
    def test_last_stats_populated(self, engine):
        engine.select(PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot }")
        stats = engine.last_stats
        assert stats.operation == "select"
        assert stats.rows == 3
        assert stats.total_seconds > 0
