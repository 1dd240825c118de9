"""Columnar-engine specifics: explain plans, metrics, one engine.

Result *equality* with the row-wise reference evaluator lives in
``test_differential.py`` and ``test_random_differential.py``; this file
covers the machinery around the engine — the EXPLAIN surface, the
observability counters, reads and updates sharing one engine, and the
SolutionSet helpers the executor leans on.
"""

import pytest

from reference import reference_evaluator

from repro import obs
from repro.rdf import Literal, NOA, RDF, XSD
from repro.rdf.namespace import STRDF
from repro.stsparql import Strabon, columnar
from repro.stsparql.eval import SolutionSet
from repro.stsparql.parser import parse

pytest.importorskip("numpy")

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
)


def small_engine():
    engine = Strabon()
    for i in range(8):
        node = NOA.term(f"h{i}")
        engine.add(node, RDF.type, NOA.term("Hotspot"))
        engine.add(
            node,
            NOA.term("hasConfidence"),
            Literal(repr(i / 8), datatype=XSD.base + "double"),
        )
    return engine


@pytest.fixture()
def observability():
    obs.enable()
    try:
        yield obs
    finally:
        obs.disable()
        obs.reset()


class TestExplain:
    def test_explain_reports_join_order_and_engine(self):
        # One engine runs every request, so the document no longer
        # names it; the per-BGP plan is what it reports.
        engine = small_engine()
        doc = engine.query(
            PREFIX
            + """SELECT ?h ?c WHERE {
                ?h a noa:Hotspot ; noa:hasConfidence ?c .
                FILTER(?c > 0.5) }""",
            explain=True,
        )
        assert "engine" not in doc
        assert doc["operation"] == "select"
        assert doc["rows"] == 3
        (bgp,) = doc["plan"]
        assert bgp["operator"] == "bgp"
        assert "engine" not in bgp
        assert len(bgp["join_order"]) == 2
        assert len(bgp["estimates"]) == 2
        # Estimates are the planner's scores: ordered greedily.
        assert all(isinstance(e, int) for e in bgp["estimates"])

    def test_explain_still_executes(self):
        engine = small_engine()
        doc = engine.query(
            PREFIX + "INSERT { ?h noa:seen 1 } "
            "WHERE { ?h a noa:Hotspot }",
            explain=True,
        )
        assert doc["operation"] == "update"
        assert len(doc["plan"]) == 1
        assert engine.ask(PREFIX + "ASK { ?h noa:seen 1 }")

    def test_snapshot_view_explain(self):
        engine = small_engine()
        view = engine.snapshot_view()
        doc = view.query(
            PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot }",
            explain=True,
        )
        assert doc["operation"] == "select"
        assert doc["rows"] == 8
        assert doc["plan"][0]["join_order"]

    def test_explain_reports_actual_rows_per_step(self):
        engine = small_engine()
        text = PREFIX + """SELECT ?h ?c WHERE {
            ?h a noa:Hotspot ; noa:hasConfidence ?c .
            FILTER(?c > 0.5) }"""
        (bgp,) = engine.query(text, explain=True)["plan"]
        # 8 hotspots, then their confidences i/8 filtered to 5/8..7/8.
        assert bgp["join_order"][0].endswith(NOA.term("Hotspot").n3())
        assert bgp["actual_rows"] == [8, 3]
        view = engine.snapshot_view()
        assert view.query(text, explain=True)["plan"] == [bgp]
        # An empty step short-circuits: later steps report 0 rows.
        (bgp,) = engine.query(
            PREFIX + "SELECT ?h WHERE { ?h a noa:Fire ; noa:x ?y }",
            explain=True,
        )["plan"]
        assert bgp["actual_rows"] == [0, 0]

    def test_membership_checks_run_before_spatial_filters(self):
        """Filters wait for a pattern that only checks bound variables.

        Geometries around P = (5 5): area ``a0`` contains it, area
        ``a1`` is a triangle whose envelope covers P but whose shape
        does not, ``o0`` contains it but is no area, ``a2`` is far.
        """
        shapes = {
            "a0": ("Area", "POLYGON ((4 4, 6 4, 6 6, 4 6, 4 4))"),
            "a1": ("Area", "POLYGON ((4 4, 6 4, 4 5.5, 4 4))"),
            "a2": ("Area", "POLYGON ((10 10, 11 10, 11 11, 10 11, 10 10))"),
            "o0": ("Other", "POLYGON ((4.5 4.5, 5.5 4.5, 5.5 5.5, "
                            "4.5 5.5, 4.5 4.5))"),
        }
        engine = Strabon()
        for name, (cls, shape) in shapes.items():
            engine.add(NOA.term(name), RDF.type, NOA.term(cls))
            engine.add(
                NOA.term(name),
                STRDF.term("hasGeometry"),
                Literal(shape, datatype=STRDF.base + "WKT"),
            )
        where = """{ ?m a noa:Area ; strdf:hasGeometry ?mg .
                     FILTER(strdf:anyInteract(?p, ?mg)) }"""
        params = {"p": Literal("POINT (5 5)", datatype=STRDF.base + "WKT")}
        prefixes = PREFIX + (
            "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
        )
        join_order = [
            f"?m {STRDF.term('hasGeometry').n3()} ?mg",
            f"?m {RDF.type.n3()} {NOA.term('Area').n3()}",
        ]
        # The R-tree yields the holders a0, a1 and o0.  The probe tests
        # each against the rest of its star (?m a noa:Area), so o0 never
        # becomes a row: the probe step leaves a0, a1 (it left all three
        # before subject checks were pushed into probes), and the exact
        # test after the type check keeps a0.  Updates and reads run
        # the same engine and take the same probe (the R-tree index
        # join).
        for operation in (
            "INSERT { ?m noa:covers ?p } WHERE ",
            "SELECT ?m WHERE ",
        ):
            doc = engine.query(
                prefixes + operation + where, params=params, explain=True
            )
            (bgp,) = doc["plan"]
            assert bgp["join_order"] == join_order
            assert bgp["actual_rows"] == [2, 1]
            assert bgp["probe_holders"] == [3, None]
            assert bgp["probe_checks"] == [[join_order[1]], None]
        assert doc["rows"] == 1

    def test_interpreted_engine_explains_too(self):
        # The row-wise test oracle shares the planner, so it logs the
        # same plan the engine does.
        engine = small_engine()
        text = PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot }"
        plan = []
        reference_evaluator(engine, explain_log=plan).select(parse(text))
        assert plan == engine.query(text, explain=True)["plan"]


class TestMetrics:
    def test_columnar_metrics_registered(self, observability):
        engine = small_engine()
        engine.select(
            PREFIX
            + """SELECT ?h ?c WHERE {
                ?h a noa:Hotspot ; noa:hasConfidence ?c .
                FILTER(?c >= 0.25) }"""
        )
        names = {
            m["name"] for m in observability.get_metrics().collect()
        }
        assert "stsparql_columnar_batches_total" in names
        assert "stsparql_columnar_batch_rows" in names
        assert "stsparql_columnar_dictionary_terms" in names
        assert "stsparql_columnar_vectorised_filters_total" in names

    def test_filter_memo_counters(self, observability):
        engine = small_engine()
        # A string filter takes the per-distinct-combination path.
        engine.add(
            NOA.term("h0"), NOA.term("producedBy"), Literal("MSG2")
        )
        engine.add(
            NOA.term("h1"), NOA.term("producedBy"), Literal("MSG2")
        )
        engine.select(
            PREFIX
            + """SELECT ?h WHERE { ?h noa:producedBy ?s .
                FILTER(?s = "MSG2") }"""
        )
        names = {
            m["name"] for m in observability.get_metrics().collect()
        }
        assert "stsparql_columnar_filter_memo_misses_total" in names


class TestEnginePolicy:
    def test_updates_plan_like_reads(self, observability):
        # One engine: an update's WHERE runs the columnar operators
        # and reports the plan the same pattern gets as a read, on the
        # live store and on its frozen view alike.
        engine = small_engine()
        where = "WHERE { ?h noa:hasConfidence ?c . FILTER(?c > 0.5) }"
        read = engine.query(PREFIX + "SELECT ?h " + where, explain=True)
        view = engine.snapshot_view().query(
            PREFIX + "SELECT ?h " + where, explain=True
        )
        assert view["plan"] == read["plan"]
        doc = engine.query(
            PREFIX + "DELETE { ?h noa:hasConfidence ?c } " + where,
            explain=True,
        )
        assert doc["plan"] == read["plan"]
        assert engine.last_stats.triples_removed == 3
        names = {
            m["name"] for m in observability.get_metrics().collect()
        }
        assert "stsparql_columnar_batches_total" in names

    def test_batch_size_one_still_correct(self, monkeypatch):
        monkeypatch.setattr(columnar, "CHUNK_ROWS", 1)
        got = small_engine().select(
            PREFIX
            + """SELECT ?h ?c WHERE {
                ?h a noa:Hotspot ; noa:hasConfidence ?c .
                FILTER(?c > 0.3) }"""
        )
        assert len(got) == 5


class TestSolutionSet:
    def test_column_raises_for_unknown_variable(self):
        ss = SolutionSet(["a"], [{"a": Literal("x")}])
        assert ss.column("a") == [Literal("x")]
        assert ss.column("?a") == [Literal("x")]
        with pytest.raises(KeyError):
            ss.column("missing")

    def test_equality_ignores_row_order(self):
        r1 = {"a": Literal("x")}
        r2 = {"a": Literal("y")}
        assert SolutionSet(["a"], [r1, r2]) == SolutionSet(
            ["a"], [r2, r1]
        )
        assert SolutionSet(["a"], [r1]) != SolutionSet(["a"], [r2])
        assert SolutionSet(["a"], [r1, r1]) != SolutionSet(
            ["a"], [r1]
        )

    def test_equality_needs_same_variables(self):
        row = {"a": Literal("x")}
        assert SolutionSet(["a"], [row]) != SolutionSet(
            ["a", "b"], [row]
        )
