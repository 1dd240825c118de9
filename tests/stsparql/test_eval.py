"""stSPARQL evaluation: joins, filters, OPTIONAL, UNION, modifiers."""

import functools
import random

import pytest

from repro.rdf import Literal, NOA, RDF, RDFS, XSD
from repro.stsparql import Strabon

PREFIX = "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n" \
         "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n" \
         "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"


@pytest.fixture
def engine():
    s = Strabon()
    s.load_turtle(
        """
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
noa:h1 a noa:Hotspot ; noa:conf 1.0 ; noa:sensor "MSG1" ; rdfs:label "one" .
noa:h2 a noa:Hotspot ; noa:conf 0.5 ; noa:sensor "MSG2" .
noa:h3 a noa:Hotspot ; noa:conf 0.5 ; noa:sensor "MSG1" .
noa:other a noa:Shapefile .
"""
    )
    return s


class TestBasicMatching:
    def test_type_scan(self, engine):
        r = engine.select(PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot }")
        assert len(r) == 3

    def test_join_two_patterns(self, engine):
        r = engine.select(
            PREFIX
            + 'SELECT ?h WHERE { ?h a noa:Hotspot ; noa:sensor "MSG1" . }'
        )
        assert {row["h"].local_name() for row in r} == {"h1", "h3"}

    def test_select_star(self, engine):
        r = engine.select(PREFIX + "SELECT * WHERE { ?h noa:conf ?c }")
        assert set(r.variables) == {"h", "c"}

    def test_no_match_empty(self, engine):
        r = engine.select(PREFIX + "SELECT ?x WHERE { ?x a noa:Missing }")
        assert len(r) == 0

    def test_variable_predicate(self, engine):
        r = engine.select(
            PREFIX + "SELECT ?p ?o WHERE { noa:h1 ?p ?o }"
        )
        assert len(r) == 4

    def test_ask(self, engine):
        assert engine.ask(PREFIX + "ASK { ?h a noa:Hotspot }")
        assert not engine.ask(PREFIX + "ASK { ?h a noa:Volcano }")


class TestFilters:
    def test_numeric_comparison(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?h WHERE { ?h noa:conf ?c . FILTER(?c > 0.7) }"
        )
        assert [row["h"].local_name() for row in r] == ["h1"]

    def test_string_equality(self, engine):
        r = engine.select(
            PREFIX
            + 'SELECT ?h WHERE { ?h noa:sensor ?s . FILTER(?s = "MSG2") }'
        )
        assert len(r) == 1

    def test_str_comparison(self, engine):
        r = engine.select(
            PREFIX
            + 'SELECT ?h WHERE { ?h noa:conf ?c . FILTER(str(?c) = "1.0") }'
        )
        assert len(r) == 1

    def test_logical_operators(self, engine):
        r = engine.select(
            PREFIX
            + 'SELECT ?h WHERE { ?h noa:conf ?c ; noa:sensor ?s . '
            'FILTER(?c > 0.7 || ?s = "MSG2") }'
        )
        assert len(r) == 2

    def test_negation(self, engine):
        r = engine.select(
            PREFIX
            + 'SELECT ?h WHERE { ?h noa:sensor ?s . FILTER(!(?s = "MSG1")) }'
        )
        assert len(r) == 1

    def test_filter_error_is_false(self, engine):
        # conf of noa:other is unbound -> error -> row dropped, not raised.
        r = engine.select(
            PREFIX
            + "SELECT ?h WHERE { ?h a noa:Hotspot . "
            "OPTIONAL { ?h rdfs:label ?l } FILTER(strlen(?l) > 0) }"
        )
        assert len(r) == 1

    def test_regex(self, engine):
        r = engine.select(
            PREFIX
            + 'SELECT ?h WHERE { ?h noa:sensor ?s . FILTER(regex(?s, "^MSG")) }'
        )
        assert len(r) == 3

    def test_arithmetic_in_filter(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?h WHERE { ?h noa:conf ?c . FILTER(?c * 2 >= 1.0) }"
        )
        assert len(r) == 3


class TestOptionalUnionMinus:
    def test_optional_binds_when_present(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?h ?l WHERE { ?h a noa:Hotspot . "
            "OPTIONAL { ?h rdfs:label ?l } }"
        )
        labels = {row["h"].local_name(): row.get("l") for row in r}
        assert labels["h1"] is not None
        assert labels["h2"] is None

    def test_not_bound_idiom(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?h WHERE { ?h a noa:Hotspot . "
            "OPTIONAL { ?h rdfs:label ?l } FILTER(!bound(?l)) }"
        )
        assert {row["h"].local_name() for row in r} == {"h2", "h3"}

    def test_union(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?x WHERE { { ?x a noa:Hotspot } UNION { ?x a noa:Shapefile } }"
        )
        assert len(r) == 4

    def test_minus(self, engine):
        r = engine.select(
            PREFIX
            + 'SELECT ?h WHERE { ?h a noa:Hotspot . '
            'MINUS { ?h noa:sensor "MSG1" } }'
        )
        assert [row["h"].local_name() for row in r] == ["h2"]

    def test_exists(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?h WHERE { ?h a noa:Hotspot . "
            "FILTER EXISTS { ?h rdfs:label ?l } }"
        )
        assert len(r) == 1

    def test_not_exists(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?h WHERE { ?h a noa:Hotspot . "
            "FILTER NOT EXISTS { ?h rdfs:label ?l } }"
        )
        assert len(r) == 2


class TestModifiers:
    def test_distinct(self, engine):
        r = engine.select(
            PREFIX + "SELECT DISTINCT ?s WHERE { ?h noa:sensor ?s }"
        )
        assert len(r) == 2

    def test_order_by(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?h ?c WHERE { ?h noa:conf ?c } ORDER BY DESC(?c) ?h"
        )
        confs = [float(row["c"].lexical) for row in r]
        assert confs == sorted(confs, reverse=True)

    def test_order_by_ranks_by_the_first_key_first(self):
        s = Strabon()
        s.load_turtle(
            "@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .\n"
            "noa:x noa:a 1 ; noa:b 5 .\n"
            "noa:y noa:a 2 ; noa:b 9 .\n"
            "noa:z noa:a 1 ; noa:b 7 .\n"
        )
        r = s.select(
            PREFIX + "SELECT ?s ?a ?b WHERE { ?s noa:a ?a ; noa:b ?b } "
            "ORDER BY ?a DESC(?b)"
        )
        assert [row["s"].local_name() for row in r] == ["z", "x", "y"]

    @pytest.mark.parametrize("seed", range(6))
    def test_order_by_mixed_directions_equals_a_comparator(self, seed):
        rng = random.Random(seed)
        names = ("a", "b", "c")
        rows = {
            f"s{n:02d}": [rng.randrange(3) for _ in names] for n in range(25)
        }
        s = Strabon()
        s.load_turtle(
            "@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .\n"
            + "".join(
                f"noa:{subject} "
                + " ; ".join(f"noa:{n} {v}" for n, v in zip(names, values))
                + " .\n"
                for subject, values in rows.items()
            )
        )
        descending = [rng.random() < 0.5 for _ in names]
        keys = " ".join(
            f"DESC(?{n})" if down else f"?{n}"
            for n, down in zip(names, descending)
        )
        r = s.select(
            PREFIX + "SELECT ?s ?a ?b ?c WHERE "
            "{ ?s noa:a ?a ; noa:b ?b ; noa:c ?c } "
            f"ORDER BY {keys} ?s"
        )

        def compare(left, right):
            for i, down in enumerate(descending):
                if rows[left][i] != rows[right][i]:
                    sign = -1 if rows[left][i] < rows[right][i] else 1
                    return -sign if down else sign
            return (left > right) - (left < right)

        want = sorted(rows, key=functools.cmp_to_key(compare))
        assert [row["s"].local_name() for row in r] == want

    @staticmethod
    def _numbered():
        """s2 (a=1), s23 (a=2) and s3 (a=2, with a twin value)."""
        s = Strabon()
        s.load_turtle(
            "@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .\n"
            "noa:s2 noa:a 1 .\n"
            "noa:s23 noa:a 2 .\n"
            "noa:s3 noa:a 2 .\n"
        )
        return s

    def test_order_by_an_unprojected_key(self):
        r = self._numbered().select(
            PREFIX + "SELECT ?s WHERE { ?s noa:a ?a } ORDER BY DESC(?a) ?s"
        )
        assert r.variables == ["s"]
        assert [row["s"].local_name() for row in r] == ["s23", "s3", "s2"]
        assert all(set(row) == {"s"} for row in r)

    def test_iris_order_by_their_iri_string(self):
        r = self._numbered().select(
            PREFIX + "SELECT ?s WHERE { ?s noa:a ?a } ORDER BY ?s"
        )
        assert [row["s"].local_name() for row in r] == ["s2", "s23", "s3"]

    def test_order_by_a_projected_expression(self):
        r = self._numbered().select(
            PREFIX + "SELECT ?s ((?a * 10) AS ?x) WHERE { ?s noa:a ?a } "
            "ORDER BY DESC(?x) ?s"
        )
        assert [
            (row["s"].local_name(), int(row["x"].lexical)) for row in r
        ] == [("s23", 20), ("s3", 20), ("s2", 10)]

    def test_distinct_with_order_by(self):
        r = self._numbered().select(
            PREFIX + "SELECT DISTINCT ?a WHERE { ?s noa:a ?a } "
            "ORDER BY DESC(?a)"
        )
        assert [int(row["a"].lexical) for row in r] == [2, 1]
        # An unprojected key orders the rows DISTINCT then collapses.
        r = self._numbered().select(
            PREFIX + "SELECT DISTINCT ?a WHERE { ?s noa:a ?a } ORDER BY ?s"
        )
        assert [int(row["a"].lexical) for row in r] == [1, 2]

    def test_limit_offset_slice_the_ordered_rows(self):
        r = self._numbered().select(
            PREFIX + "SELECT ?s WHERE { ?s noa:a ?a } "
            "ORDER BY DESC(?a) ?s LIMIT 2 OFFSET 1"
        )
        assert [row["s"].local_name() for row in r] == ["s3", "s2"]

    def test_limit_offset(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?h WHERE { ?h a noa:Hotspot } ORDER BY ?h LIMIT 1 OFFSET 1"
        )
        assert len(r) == 1
        assert r.rows[0]["h"].local_name() == "h2"

    def test_bind(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?h ?twice WHERE { ?h noa:conf ?c . "
            "BIND(?c * 2 AS ?twice) }"
        )
        for row in r:
            assert row["twice"] is not None


class TestAggregates:
    def test_count_group(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?s (COUNT(?h) AS ?n) WHERE { ?h noa:sensor ?s } GROUP BY ?s"
        )
        by_sensor = {row["s"].lexical: int(row["n"].lexical) for row in r}
        assert by_sensor == {"MSG1": 2, "MSG2": 1}

    def test_having(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT ?s WHERE { ?h noa:sensor ?s } GROUP BY ?s "
            "HAVING (COUNT(?h) >= 2)"
        )
        assert len(r) == 1

    def test_aggregate_without_group_by(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT (COUNT(?h) AS ?n) (AVG(?c) AS ?avg) "
            "WHERE { ?h noa:conf ?c }"
        )
        assert int(r.rows[0]["n"].lexical) == 3
        assert float(r.rows[0]["avg"].lexical) == pytest.approx(2.0 / 3)

    def test_min_max_sum(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT (MIN(?c) AS ?lo) (MAX(?c) AS ?hi) (SUM(?c) AS ?total) "
            "WHERE { ?h noa:conf ?c }"
        )
        row = r.rows[0]
        assert float(row["lo"].lexical) == 0.5
        assert float(row["hi"].lexical) == 1.0
        assert float(row["total"].lexical) == 2.0

    def test_count_distinct(self, engine):
        r = engine.select(
            PREFIX
            + "SELECT (COUNT(DISTINCT ?s) AS ?n) WHERE { ?h noa:sensor ?s }"
        )
        assert int(r.rows[0]["n"].lexical) == 2


class TestRDFSInference:
    def test_subclass_instances_visible(self):
        s = Strabon()
        s.load_turtle(
            """
@prefix clc: <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
clc:ConiferousForest rdfs:subClassOf clc:Forests .
clc:lu1 a clc:ConiferousForest .
"""
        )
        r = s.select(
            "PREFIX clc: <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#>\n"
            "SELECT ?x WHERE { ?x a clc:Forests }"
        )
        assert len(r) == 1

    def test_inference_disabled(self):
        s = Strabon(enable_inference=False)
        s.load_turtle(
            """
@prefix clc: <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
clc:ConiferousForest rdfs:subClassOf clc:Forests .
clc:lu1 a clc:ConiferousForest .
"""
        )
        r = s.select(
            "PREFIX clc: <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#>\n"
            "SELECT ?x WHERE { ?x a clc:Forests }"
        )
        assert len(r) == 0
