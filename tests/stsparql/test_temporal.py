"""stRDF valid time: period literals and temporal stSPARQL functions."""

from datetime import datetime, timedelta

import pytest
from hypothesis import given, strategies as st

from repro.rdf.temporal import PERIOD_DATATYPE, Period, PeriodError
from repro.stsparql import Strabon

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

DATA = """
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
noa:fire1 a noa:Hotspot ;
  noa:hasValidTime "[2007-08-24T14:00:00, 2007-08-24T18:00:00)"^^strdf:period .
noa:fire2 a noa:Hotspot ;
  noa:hasValidTime "[2007-08-24T17:00:00, 2007-08-24T20:00:00)"^^strdf:period .
noa:fire3 a noa:Hotspot ;
  noa:hasValidTime "[2007-08-25T09:00:00, 2007-08-25T11:00:00)"^^strdf:period .
"""

instants = st.integers(min_value=0, max_value=10_000)


class TestPeriodModel:
    def test_parse_and_lexical_roundtrip(self):
        p = Period.parse("[2007-08-24T14:00:00, 2007-08-24T18:00:00)")
        assert Period.parse(p.lexical()) == p

    def test_degenerate_rejected(self):
        with pytest.raises(PeriodError):
            Period(datetime(2007, 1, 1), datetime(2007, 1, 1))

    def test_bad_lexical_rejected(self):
        with pytest.raises(PeriodError):
            Period.parse("2007-08-24/2007-08-25")

    def test_half_open_semantics(self):
        p = Period.parse("[2007-08-24T14:00:00, 2007-08-24T18:00:00)")
        assert p.contains_instant(datetime(2007, 8, 24, 14, 0))
        assert not p.contains_instant(datetime(2007, 8, 24, 18, 0))

    def test_overlaps_touching_is_false(self):
        a = Period(datetime(2007, 1, 1), datetime(2007, 1, 2))
        b = Period(datetime(2007, 1, 2), datetime(2007, 1, 3))
        assert not a.overlaps(b)
        assert a.meets(b)
        assert a.before(b) and b.after(a)

    def test_intersection_and_union(self):
        a = Period(datetime(2007, 1, 1), datetime(2007, 1, 3))
        b = Period(datetime(2007, 1, 2), datetime(2007, 1, 4))
        inter = a.intersection(b)
        assert inter == Period(datetime(2007, 1, 2), datetime(2007, 1, 3))
        assert a.union(b) == Period(
            datetime(2007, 1, 1), datetime(2007, 1, 4)
        )

    def test_literal_value_parses(self):
        from repro.rdf import Literal

        lit = Literal(
            "[2007-08-24T14:00:00, 2007-08-24T18:00:00)",
            datatype=PERIOD_DATATYPE,
        )
        assert isinstance(lit.value, Period)

    @given(instants, instants, instants, instants)
    def test_relation_trichotomy(self, a0, a1, b0, b1):
        base = datetime(2007, 1, 1)
        mk = lambda lo, hi: Period(
            base + timedelta(minutes=min(lo, hi)),
            base + timedelta(minutes=max(lo, hi) + 1),
        )
        a, b = mk(a0, a1), mk(b0, b1)
        # Exactly one of: before, after, or sharing an instant (closed
        # sense: overlap of closures).
        relations = [a.before(b), a.after(b), a.overlaps(b)]
        assert any(relations)
        assert not (a.before(b) and a.after(b))
        if a.overlaps(b):
            assert not a.before(b) and not a.after(b)


class TestTemporalQueries:
    @pytest.fixture
    def engine(self):
        s = Strabon()
        s.load_turtle(DATA)
        return s

    def test_during_instant(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT ?h WHERE { ?h noa:hasValidTime ?t .
                FILTER(strdf:during("2007-08-24T15:30:00", ?t)) }"""
        )
        assert [row["h"].local_name() for row in r] == ["fire1"]

    def test_period_overlaps_join(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT ?a ?b WHERE {
              ?a noa:hasValidTime ?ta . ?b noa:hasValidTime ?tb .
              FILTER(?a != ?b) FILTER(strdf:periodOverlaps(?ta, ?tb)) }"""
        )
        pairs = {
            frozenset((row["a"].local_name(), row["b"].local_name()))
            for row in r
        }
        assert pairs == {frozenset(("fire1", "fire2"))}

    def test_before_after(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT ?h WHERE { ?h noa:hasValidTime ?t .
                FILTER(strdf:before(?t,
                  "[2007-08-25T00:00:00, 2007-08-26T00:00:00)")) }"""
        )
        assert {row["h"].local_name() for row in r} == {"fire1", "fire2"}

    def test_period_intersection_projection(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:periodIntersection(?ta, ?tb) AS ?common)
              WHERE { noa:fire1 noa:hasValidTime ?ta .
                      noa:fire2 noa:hasValidTime ?tb . }"""
        )
        common = r.rows[0]["common"].value
        assert isinstance(common, Period)
        assert common.end - common.start == timedelta(hours=1)

    def test_period_constructor_and_accessors(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT
               (strdf:periodStart(?t) AS ?s)
               (strdf:periodEnd(?t) AS ?e)
              WHERE { noa:fire1 noa:hasValidTime ?t }"""
        )
        row = r.rows[0]
        assert row["s"].lexical.startswith("2007-08-24T14")
        assert row["e"].lexical.startswith("2007-08-24T18")

    def test_disjoint_periods_no_intersection(self, engine):
        # Error (no intersection) -> filter false -> zero rows.
        r = engine.select(
            PREFIX
            + """SELECT ?x WHERE {
              noa:fire1 noa:hasValidTime ?ta . noa:fire3 noa:hasValidTime ?tb .
              BIND(strdf:periodIntersection(?ta, ?tb) AS ?x)
              FILTER(bound(?x)) }"""
        )
        assert len(r) == 0


class TestConstruct:
    def test_construct_builds_graph(self):
        s = Strabon()
        s.load_turtle(DATA)
        got = s.construct(
            PREFIX
            + """CONSTRUCT { ?h a noa:TimedObservation ;
                              noa:observedDuring ?t . }
                 WHERE { ?h noa:hasValidTime ?t }"""
        )
        assert len(got) == 6
        from repro.rdf import NOA, RDF

        assert (NOA.fire1, RDF.type, NOA.TimedObservation) in got

    def test_construct_with_limit(self):
        s = Strabon()
        s.load_turtle(DATA)
        got = s.construct(
            PREFIX
            + """CONSTRUCT { ?h a noa:TimedObservation }
                 WHERE { ?h noa:hasValidTime ?t } LIMIT 1"""
        )
        assert len(got) == 1
