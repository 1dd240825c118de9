"""Spatial function and aggregate evaluation (the strdf:* vocabulary)."""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Polygon, loads_wkt
from repro.geometry.predicates import intersects
from repro.rdf import Literal, NOA
from repro.rdf.namespace import STRDF
from repro.stsparql import Strabon, columnar

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

DATA = """
@prefix noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> .
@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .
noa:a a noa:Region ; strdf:hasGeometry "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))"^^strdf:geometry .
noa:b a noa:Region ; strdf:hasGeometry "POLYGON ((2 2, 6 2, 6 6, 2 6, 2 2))"^^strdf:geometry .
noa:c a noa:Region ; strdf:hasGeometry "POLYGON ((10 10, 11 10, 11 11, 10 11, 10 10))"^^strdf:geometry .
noa:p a noa:Site ; strdf:hasGeometry "POINT (1 1)"^^strdf:geometry .
"""


@pytest.fixture
def engine():
    s = Strabon()
    s.load_turtle(DATA)
    return s


class TestSpatialPredicates:
    def test_any_interact_pairs(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT ?x ?y WHERE {
              ?x a noa:Region ; strdf:hasGeometry ?gx .
              ?y a noa:Region ; strdf:hasGeometry ?gy .
              FILTER(?x != ?y) FILTER(strdf:anyInteract(?gx, ?gy)) }"""
        )
        pairs = {(row["x"].local_name(), row["y"].local_name()) for row in r}
        assert pairs == {("a", "b"), ("b", "a")}

    def test_contains_constant_region(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT ?x WHERE {
              ?x strdf:hasGeometry ?g .
              FILTER(strdf:contains("POLYGON ((-1 -1, 7 -1, 7 7, -1 7, -1 -1))"^^strdf:WKT, ?g)) }"""
        )
        assert {row["x"].local_name() for row in r} == {"a", "b", "p"}

    def test_point_inside_polygon(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT ?x WHERE {
              noa:p strdf:hasGeometry ?pg .
              ?x a noa:Region ; strdf:hasGeometry ?g .
              FILTER(strdf:contains(?g, ?pg)) }"""
        )
        assert [row["x"].local_name() for row in r] == ["a"]

    def test_disjoint(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT ?x WHERE {
              noa:c strdf:hasGeometry ?cg .
              ?x a noa:Region ; strdf:hasGeometry ?g .
              FILTER(?x != noa:c) FILTER(strdf:disjoint(?g, ?cg)) }"""
        )
        assert len(r) == 2

    def test_distance_function(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:distance(?ga, ?gc) AS ?d) WHERE {
              noa:a strdf:hasGeometry ?ga . noa:c strdf:hasGeometry ?gc . }"""
        )
        d = float(r.rows[0]["d"].lexical)
        assert d == pytest.approx(((10 - 4) ** 2 * 2) ** 0.5)


class TestSpatialConstructors:
    def test_intersection_area(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:area(strdf:intersection(?ga, ?gb)) AS ?area)
              WHERE { noa:a strdf:hasGeometry ?ga . noa:b strdf:hasGeometry ?gb . }"""
        )
        assert float(r.rows[0]["area"].lexical) == pytest.approx(4.0)

    def test_boundary_returns_geometry_literal(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:boundary(?g) AS ?b) WHERE {
                noa:a strdf:hasGeometry ?g }"""
        )
        geom = r.rows[0]["b"].value
        assert geom.length == pytest.approx(16.0)

    def test_buffer(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:area(strdf:buffer(?g, 1.0)) AS ?a) WHERE {
                noa:p strdf:hasGeometry ?g }"""
        )
        assert float(r.rows[0]["a"].lexical) == pytest.approx(3.14, abs=0.2)

    def test_envelope_and_dimension(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:dimension(?g) AS ?d)
                (strdf:area(strdf:envelope(?g)) AS ?a)
              WHERE { noa:b strdf:hasGeometry ?g }"""
        )
        assert int(r.rows[0]["d"].lexical) == 2
        assert float(r.rows[0]["a"].lexical) == pytest.approx(16.0)

    def test_difference(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:area(strdf:difference(?ga, ?gb)) AS ?a)
              WHERE { noa:a strdf:hasGeometry ?ga . noa:b strdf:hasGeometry ?gb . }"""
        )
        assert float(r.rows[0]["a"].lexical) == pytest.approx(12.0)


class TestNonFiniteCoordinates:
    """WKT with an overflowing coordinate (``1e999``) is not a geometry:
    expressions over it are errors, so projections stay unbound and
    filters reject the row — never ``nan``, ``inf`` or a silent
    ``false``."""

    PLANE = (
        "POLYGON ((-1e999 -1e999, 1e999 -1e999, 1e999 1e999, "
        "-1e999 1e999, -1e999 -1e999))"
    )

    def test_projections_over_it_are_unbound(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT ?x
              (strdf:area("POLYGON ((0 0, 1e999 0, 1 1, 0 0))"^^strdf:WKT)
                AS ?a)
              (strdf:envelope("POINT (1e999 1e999)"^^strdf:WKT) AS ?e)
              (strdf:anyInteract("%s"^^strdf:WKT,
                                 "POINT (20.5 35.5)"^^strdf:WKT) AS ?i)
              WHERE { noa:p strdf:hasGeometry ?x }""" % self.PLANE
        )
        (row,) = r.rows
        assert set(row) == {"x"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_filters_over_it_reject_every_row(self, engine):
        for negate in ("", "!"):
            r = engine.select(
                PREFIX
                + """SELECT ?x WHERE { ?x strdf:hasGeometry ?g .
                  FILTER(%sstrdf:anyInteract("%s"^^strdf:WKT, ?g)) }"""
                % (negate, self.PLANE)
            )
            assert len(r) == 0


class TestSpatialAggregates:
    def test_union_aggregate(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:area(strdf:union(?g)) AS ?a) WHERE {
              ?x a noa:Region ; strdf:hasGeometry ?g .
              FILTER(?x != noa:c) }
              GROUP BY ?x"""
        )
        # grouped by x: each group has one geometry.
        areas = sorted(float(row["a"].lexical) for row in r)
        assert areas == [16.0, 16.0]

    def test_union_aggregate_single_group(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:area(strdf:union(?g)) AS ?a) WHERE {
              ?x a noa:Region ; strdf:hasGeometry ?g . FILTER(?x != noa:c) }"""
        )
        # a ∪ b: 16 + 16 - 4 overlap
        assert float(r.rows[0]["a"].lexical) == pytest.approx(28.0)

    def test_extent_aggregate(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:extent(?g) AS ?e) WHERE {
              ?x a noa:Region ; strdf:hasGeometry ?g . }"""
        )
        extent = r.rows[0]["e"].value
        assert extent.envelope.as_tuple() == (0.0, 0.0, 11.0, 11.0)

    def test_intersection_aggregate(self, engine):
        r = engine.select(
            PREFIX
            + """SELECT (strdf:area(strdf:intersection(?g)) AS ?a) WHERE {
              ?x a noa:Region ; strdf:hasGeometry ?g . FILTER(?x != noa:c) }"""
        )
        assert float(r.rows[0]["a"].lexical) == pytest.approx(4.0)


class TestSpatialIndexAssist:
    def test_index_and_scan_agree(self, engine):
        query = (
            PREFIX
            + """SELECT ?x ?y WHERE {
              ?x a noa:Region ; strdf:hasGeometry ?gx .
              ?y a noa:Region ; strdf:hasGeometry ?gy .
              FILTER(strdf:anyInteract(?gx, ?gy)) }"""
        )
        with_index = {
            (row["x"], row["y"]) for row in engine.select(query)
        }
        no_index = Strabon(enable_spatial_index=False)
        no_index.load_turtle(DATA)
        without = {(row["x"], row["y"]) for row in no_index.select(query)}
        assert with_index == without
        assert len(with_index) == 5  # 3 self-pairs + (a,b) + (b,a)


class TestBoxContainment:
    """A box (a polygon equal to its envelope) meets every geometry
    whose envelope lies inside it; the engine answers those pairs
    without the exact test, and must agree with the per-row
    reference."""

    SHAPES = {
        "inside": "POLYGON ((1 1, 2 1, 2 2, 1 1))",
        "edge": "POINT (0 3)",
        "crossing": "LINESTRING (-1 1, 1 1)",
        "outside": "POINT (9 9)",
        "multi": "MULTIPOINT ((1 1), (3 3))",
        # Inside the box; outside the bow tie and the triangle, though
        # inside their envelopes.
        "gap": "POINT (2 0.5)",
        "corner": "POINT (3 3.5)",
    }
    REGIONS = [
        "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))",  # a box
        "POLYGON ((0 0, 4 4, 4 0, 0 4, 0 0))",  # a bow tie: no box
        "POLYGON ((0 0, 4 0, 0 4, 0 0))",  # a triangle: no box
    ]

    def test_matches_the_reference(self):
        from reference import reference_select

        engine = Strabon()
        engine.load_turtle(
            "@prefix noa: <http://teleios.di.uoa.gr/ontologies/"
            "noaOntology.owl#> .\n"
            "@prefix strdf: <http://strdf.di.uoa.gr/ontology#> .\n"
            + "".join(
                f'noa:{name} strdf:hasGeometry "{wkt}"^^strdf:geometry .\n'
                for name, wkt in self.SHAPES.items()
            )
        )
        for region in self.REGIONS:
            text = (
                PREFIX + "SELECT ?s WHERE { ?s strdf:hasGeometry ?g . "
                f'FILTER(strdf:anyInteract("{region}"^^strdf:WKT, ?g)) }}'
            )
            assert engine.select(text) == reference_select(engine, text)
        inside = {
            row["s"].local_name()
            for row in engine.select(
                PREFIX + "SELECT ?s WHERE { ?s strdf:hasGeometry ?g . "
                f'FILTER(strdf:anyInteract("{self.REGIONS[0]}"'
                "^^strdf:WKT, ?g)) }"
            )
        }
        assert inside == {
            "inside", "edge", "crossing", "multi", "gap", "corner",
        }


#: A box on a quarter-degree grid — so boxes share edges and corners,
#: nest and coincide — optionally nudged by 1e-9 (a near miss where it
#: would have touched).
_BOXES = st.builds(
    lambda x, y, w, h, nudge: (
        x / 4 + nudge, y / 4, (x + w) / 4 + nudge, (y + h) / 4
    ),
    st.integers(0, 8),
    st.integers(0, 8),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from([0.0, 0.0, 1e-9, -1e-9]),
)


def _box_wkt(box) -> str:
    x0, y0, x1, y1 = box
    return (
        f"POLYGON (({x0!r} {y0!r}, {x1!r} {y0!r}, {x1!r} {y1!r}, "
        f"{x0!r} {y1!r}, {x0!r} {y0!r}))"
    )


class TestBoxPairs:
    """Two boxes whose envelopes interact share a point: the engine
    answers those pairs with no exact test, and must agree with
    :func:`~repro.geometry.predicates.intersects` on every pair."""

    @settings(max_examples=120, deadline=None)
    @given(
        left=st.lists(_BOXES, min_size=1, max_size=5),
        right=st.lists(_BOXES, min_size=1, max_size=5),
    )
    def test_matches_exact_intersects(self, left, right):
        engine = Strabon()
        wkt = STRDF.base + "WKT"
        for side, boxes in (("left", left), ("right", right)):
            for i, box in enumerate(boxes):
                engine.add(
                    NOA.term(f"{side}{i}"),
                    NOA.term(side),
                    Literal(_box_wkt(box), datatype=wkt),
                )
        text = (
            PREFIX + "SELECT ?a ?b WHERE { ?a noa:left ?ga . "
            "?b noa:right ?gb . FILTER(strdf:anyInteract(?ga, ?gb)) }"
        )
        exact = []
        original = columnar.ColumnarEvaluator._eval_expr

        def counting(evaluator, expr, row, group_rows=None):
            exact.append(expr)
            return original(evaluator, expr, row, group_rows)

        with mock.patch.object(
            columnar.ColumnarEvaluator, "_eval_expr", counting
        ):
            answer = {
                (row["a"].local_name(), row["b"].local_name())
                for row in engine.select(text)
            }
        want = {
            (f"left{i}", f"right{j}")
            for i, a in enumerate(left)
            for j, b in enumerate(right)
            if intersects(loads_wkt(_box_wkt(a)), loads_wkt(_box_wkt(b)))
        }
        assert answer == want
        assert exact == []  # every pair settled by its envelopes
