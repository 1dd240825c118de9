"""The ``timeout=`` deadline, checked inside every operator.

Each operator test enters the operator with a deadline that has just
passed (the wrapped method moves the evaluator's deadline into the past
on entry) and asserts that the :class:`QueryTimeoutError` escapes from
inside that operator — a check only at group boundaries would let the
operator finish and raise later, outside it.  The real-clock tests
bound the stall of large inputs; result encoding (SELECT JSON and the
CONSTRUCT / update templates) checks the deadline as well.
"""

import time

import pytest

from repro.rdf import Literal, NOA, RDF, XSD
from repro.rdf.namespace import RDFS, STRDF
from repro.stsparql import Strabon, columnar, engine as engine_module
from repro.stsparql.errors import QueryTimeoutError
from repro.stsparql.eval import Evaluator, SolutionSet, deadline_checked
from repro.stsparql.parser import parse

pytest.importorskip("numpy")

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
)


def _box(x, y, size=1.0):
    return Literal(
        f"POLYGON (({x} {y}, {x + size} {y}, {x + size} {y + size}, "
        f"{x} {y + size}, {x} {y}))",
        datatype=STRDF.base + "WKT",
    )


def _engine(count: int) -> Strabon:
    """``count`` hotspots with a confidence, a box footprint and (every
    other one) a label."""
    engine = Strabon()
    for i in range(count):
        node = NOA.term(f"h{i}")
        engine.add(node, RDF.type, NOA.term("Hotspot"))
        engine.add(
            node,
            NOA.term("hasConfidence"),
            Literal(repr(i / count), datatype=XSD.base + "double"),
        )
        engine.add(node, STRDF.term("hasGeometry"), _box(i % 7, i // 7))
        if i % 2:
            engine.add(node, RDFS.label, Literal(f"fire {i}"))
    return engine


@pytest.fixture(scope="module")
def engine():
    return _engine(24)


STAR = "?h a noa:Hotspot ; noa:hasConfidence ?c . "

#: Operator -> (the class defining it, a query that runs through it).
OPERATORS = {
    # BGP extend: the per-chunk loop (sorted-array join) ...
    "_extend_batch": (
        columnar.ColumnarEvaluator,
        PREFIX + "SELECT ?h ?c WHERE { " + STAR + "}",
    ),
    # ... and the per-combination loop (a variable predicate).
    "_extend_chunk": (
        columnar.ColumnarEvaluator,
        PREFIX + "SELECT ?h ?p WHERE { " + STAR + "?h ?p ?o }",
    ),
    "_generic_filter_mask": (
        columnar.ColumnarEvaluator,
        PREFIX
        + "SELECT ?h WHERE { "
        + STAR
        + 'FILTER(CONTAINS(STR(?h), "h1")) }',
    ),
    "_vector_spatial": (
        columnar.ColumnarEvaluator,
        PREFIX
        + "SELECT ?a ?b WHERE { ?a strdf:hasGeometry ?ga . "
        "?b strdf:hasGeometry ?gb . FILTER(strdf:contains(?ga, ?gb)) }",
    ),
    "_optional_batch": (
        columnar.ColumnarEvaluator,
        PREFIX
        + "SELECT ?h ?l WHERE { "
        + STAR
        + "OPTIONAL { ?h rdfs:label ?l } }",
    ),
    "_union_batch": (
        columnar.ColumnarEvaluator,
        PREFIX
        + "SELECT ?h WHERE { { ?h rdfs:label ?l } UNION "
        "{ ?h noa:hasConfidence ?c } }",
    ),
    "_minus_batch": (
        columnar.ColumnarEvaluator,
        PREFIX
        + "SELECT ?h WHERE { "
        + STAR
        + "MINUS { ?h rdfs:label ?l } }",
    ),
    "_evaluate_grouped": (
        Evaluator,
        PREFIX
        + "SELECT ?l (COUNT(?h) AS ?n) WHERE { "
        + STAR
        + "OPTIONAL { ?h rdfs:label ?l } } GROUP BY ?l",
    ),
    "_eval_aggregate": (
        Evaluator,
        PREFIX + "SELECT (MAX(?c) AS ?top) WHERE { " + STAR + "}",
    ),
    "_order": (
        Evaluator,
        PREFIX + "SELECT ?h WHERE { " + STAR + "} ORDER BY DESC(?c)",
    ),
    "_finalise": (
        Evaluator,
        PREFIX + "SELECT DISTINCT ?c WHERE { " + STAR + "}",
    ),
    "_evaluate_plain": (
        Evaluator,
        PREFIX + "SELECT ?h (STR(?c) AS ?s) WHERE { " + STAR + "}",
    ),
    "_batch_to_rows": (
        columnar.ColumnarEvaluator,
        PREFIX + "SELECT * WHERE { " + STAR + "}",
    ),
}


@pytest.mark.parametrize("name", sorted(OPERATORS))
def test_deadline_expiring_inside_an_operator_raises_there(
    engine, monkeypatch, name
):
    owner, text = OPERATORS[name]
    original = getattr(owner, name)
    entered, raised = [], []

    def expiring(self, *args, **kwargs):
        entered.append(name)
        self.deadline = time.perf_counter() - 1.0
        try:
            return original(self, *args, **kwargs)
        except QueryTimeoutError:
            raised.append(name)
            raise

    # The query answers with a generous budget ...
    assert engine.query(text, timeout=60.0)
    monkeypatch.setattr(owner, name, expiring)
    # ... and times out from inside the operator once its deadline has
    # passed there.
    with pytest.raises(QueryTimeoutError):
        engine.query(text, timeout=60.0)
    assert entered, f"{name} never ran"
    assert raised == [name] * len(raised) and raised


def test_without_a_deadline_operators_run_unchecked(engine):
    rows = [{"x": 1}]
    assert deadline_checked(rows, None) is rows
    unbounded = engine.query(
        PREFIX + "SELECT ?h WHERE { " + STAR + "} ORDER BY ?c"
    )
    assert len(unbounded) == 24


def test_select_encoding_checks_the_deadline(engine):
    result = engine.select(PREFIX + "SELECT ?h ?c WHERE { " + STAR + "}")
    assert isinstance(result, SolutionSet)
    past = time.perf_counter() - 1.0
    with pytest.raises(QueryTimeoutError):
        result.sparql_json_bytes(past)
    with pytest.raises(QueryTimeoutError):
        result.to_sparql_json(past)
    doc = result.to_sparql_json(time.perf_counter() + 60.0)
    assert len(doc["results"]["bindings"]) == 24


def test_template_instantiation_checks_the_deadline(engine):
    construct = parse(
        PREFIX
        + "CONSTRUCT { ?h noa:seen ?c } WHERE { "
        + STAR
        + "}"
    )
    rows = engine.select(
        PREFIX + "SELECT ?h ?c WHERE { " + STAR + "}"
    ).rows
    with pytest.raises(QueryTimeoutError):
        engine_module._instantiate(
            construct.template, rows, time.perf_counter() - 1.0
        )
    assert len(engine_module._instantiate(construct.template, rows)) == 24


def test_construct_times_out_while_instantiating(engine, monkeypatch):
    """CONSTRUCT passes the request's deadline to the template step."""
    original = engine_module._instantiate
    seen = []

    def expiring(templates, bindings, deadline=None):
        seen.append(deadline)
        return original(templates, bindings, time.perf_counter() - 1.0)

    monkeypatch.setattr(engine_module, "_instantiate", expiring)
    text = PREFIX + "CONSTRUCT { ?h noa:seen ?c } WHERE { " + STAR + "}"
    with pytest.raises(QueryTimeoutError):
        engine.query(text, timeout=60.0)
    assert seen and seen[0] is not None


def test_a_large_cross_product_stops_near_its_deadline():
    """Real clock, large input: a 2-way cross product of 400 stars
    (160 000 rows) filtered per distinct pair overruns a 0.1 s budget
    and stops within a few blocks of it, well before it would finish."""
    big = _engine(400)
    text = (
        PREFIX
        + "SELECT ?a ?b WHERE { ?a a noa:Hotspot . ?b a noa:Hotspot . "
        'FILTER(CONCAT(STR(?a), STR(?b)) != "") }'
    )
    view = big.snapshot_view()
    started = time.perf_counter()
    with pytest.raises(QueryTimeoutError):
        view.query(text, timeout=0.1)
    assert time.perf_counter() - started < 0.1 + 0.25


def test_a_large_filter_runs_in_chunks_under_the_deadline(engine, monkeypatch):
    """FILTER (and BIND) hand a large batch to their numpy calls one
    CHUNK_ROWS slice at a time, with the deadline checked between
    slices: no slice starts once it has passed, and the answer is the
    unchunked one."""
    text = (
        PREFIX
        + "SELECT ?h ?d WHERE { "
        + STAR
        + "BIND(STR(?c) AS ?d) "
        'FILTER(CONTAINS(STR(?h), "1")) }'
    )
    whole = engine.select(text)
    monkeypatch.setattr(columnar, "CHUNK_ROWS", 5)
    assert engine.select(text) == whole
    chunks = []
    original = columnar.ColumnarEvaluator._filter_chunk

    def expiring(self, expr, batch):
        chunks.append(batch.length)
        kept = original(self, expr, batch)
        if len(chunks) == 2:  # the deadline passes between slices
            self.deadline = time.perf_counter() - 1.0
        return kept

    monkeypatch.setattr(columnar.ColumnarEvaluator, "_filter_chunk", expiring)
    with pytest.raises(QueryTimeoutError):
        engine.query(text, timeout=60.0)
    assert chunks == [5, 5]


def test_a_vector_join_product_expands_in_chunks_under_the_deadline(
    monkeypatch,
):
    """A cross product through the sorted-array join builds its rows
    one ``CHUNK_ROWS`` slice of output at a time, with the deadline
    checked between slices: 1 500 holders make 2.25 million rows, so
    the query stops at its 0.02 s deadline within a slice of it rather
    than after building them all in one call."""
    big = Strabon()
    for i in range(1500):
        big.add(NOA.term(f"a{i}"), NOA.term("p"), Literal(i))
    sizes = []
    original = columnar._expand

    def recording(counts):
        row_idx, within = original(counts)
        sizes.append(len(row_idx))
        return row_idx, within

    monkeypatch.setattr(columnar, "_expand", recording)
    text = PREFIX + "SELECT ?a ?b WHERE { ?a noa:p ?x . ?b noa:p ?y }"
    with pytest.raises(QueryTimeoutError):
        big.snapshot_view().query(text, timeout=0.02)
    assert len(sizes) > 1
    assert max(sizes) <= columnar.CHUNK_ROWS


@pytest.mark.parametrize(
    "body",
    [
        "?a a noa:Hotspot . ?b a noa:Hotspot . ",
        STAR + "OPTIONAL { ?h rdfs:label ?l } ",
        STAR + "FILTER NOT EXISTS { ?h rdfs:label ?l } ",
        STAR + "{ SELECT ?h WHERE { ?h rdfs:label ?l } } ",
    ],
)
def test_chunked_expansion_and_combinations_answer_as_one_call(
    engine, monkeypatch, body
):
    """Vector-join expansion and the distinct combinations of OPTIONAL,
    EXISTS and subselect joins give the unchunked answer when the
    batch spans many ``CHUNK_ROWS`` slices."""
    text = PREFIX + "SELECT * WHERE { " + body + "}"
    whole = engine.select(text)
    assert len(whole)
    monkeypatch.setattr(columnar, "CHUNK_ROWS", 5)
    assert engine.select(text) == whole
