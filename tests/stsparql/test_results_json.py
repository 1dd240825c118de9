"""SPARQL 1.1 Query Results JSON serialisation."""

import json

import pytest

from repro.stsparql import Strabon

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
)


@pytest.fixture
def engine():
    s = Strabon()
    s.load_turtle(
        """
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
noa:h1 a noa:Hotspot ; noa:conf 1.0 ; rdfs:label "Fire near Patras"@en .
noa:h2 a noa:Hotspot ; noa:conf 0.5 .
"""
    )
    return s


class TestSparqlJson:
    def test_head_vars(self, engine):
        result = engine.select(
            PREFIX + "SELECT ?h ?c WHERE { ?h noa:conf ?c }"
        )
        doc = result.to_sparql_json()
        assert doc["head"]["vars"] == ["h", "c"]
        assert len(doc["results"]["bindings"]) == 2

    def test_uri_encoding(self, engine):
        doc = engine.select(
            PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot } ORDER BY ?h"
        ).to_sparql_json()
        first = doc["results"]["bindings"][0]["h"]
        assert first["type"] == "uri"
        assert first["value"].endswith("#h1")

    def test_typed_literal_encoding(self, engine):
        doc = engine.select(
            PREFIX + "SELECT ?c WHERE { noa:h1 noa:conf ?c }"
        ).to_sparql_json()
        binding = doc["results"]["bindings"][0]["c"]
        assert binding["type"] == "literal"
        assert binding["datatype"].endswith("double")

    def test_language_tag_encoding(self, engine):
        doc = engine.select(
            PREFIX + "SELECT ?l WHERE { noa:h1 rdfs:label ?l }"
        ).to_sparql_json()
        binding = doc["results"]["bindings"][0]["l"]
        assert binding["xml:lang"] == "en"
        assert "datatype" not in binding

    def test_unbound_variables_omitted(self, engine):
        doc = engine.select(
            PREFIX
            + "SELECT ?h ?l WHERE { ?h a noa:Hotspot . "
            "OPTIONAL { ?h rdfs:label ?l } }"
        ).to_sparql_json()
        with_label = [
            b for b in doc["results"]["bindings"] if "l" in b
        ]
        assert len(with_label) == 1

    def test_json_serialisable(self, engine):
        doc = engine.select(
            PREFIX + "SELECT * WHERE { ?s ?p ?o }"
        ).to_sparql_json()
        text = json.dumps(doc)
        assert json.loads(text) == doc

    def test_bytes_are_the_json_dumps_of_the_document(self, engine):
        """The encoder writes what ``json.dumps`` makes of the W3C
        document built term by term."""
        from repro.stsparql.eval import _term_json

        result = engine.select(
            PREFIX
            + "SELECT ?h ?c ?l WHERE { ?h noa:conf ?c . "
            "OPTIONAL { ?h rdfs:label ?l } }"
        )
        document = {
            "head": {"vars": result.variables},
            "results": {
                "bindings": [
                    {
                        name: _term_json(row[name])
                        for name in result.variables
                        if name in row
                    }
                    for row in result.rows
                ]
            },
        }
        assert result.sparql_json_bytes() == json.dumps(document).encode()
