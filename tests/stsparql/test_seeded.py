"""Seeded evaluation: ``params=`` as a sequence of mappings.

A sequence of parameter mappings has SPARQL ``VALUES`` semantics: the
request is evaluated once, from one seed row per mapping.  For every
read of the differential corpus that binds ``?h``:

* on :class:`Strabon` and on its ``snapshot_view()``, the engine's
  seeded answer equals the row-wise reference evaluator seeded with
  the same rows;
* where the query distributes over its seed (no solution modifier,
  aggregate or subselect), the seeded answer is the multiset union of
  the single-mapping runs.

The probe guard pins the bound-subject R-tree restriction: with
``?h`` bound, matching ``?h strdf:hasGeometry ?g`` under
``strdf:anyInteract(region, ?g)`` costs the same number of index walks
whatever the number of geometries inside the region.
"""

import pytest

from reference import reference_evaluator
from test_differential import PREFIX, QUERIES, make_engine

from repro.rdf import Literal, NOA, URI
from repro.rdf.graph import TripleReader
from repro.stsparql import Strabon, ast
from repro.stsparql.errors import SparqlEvalError
from repro.stsparql.eval import SolutionSet, _pattern_variables
from repro.stsparql.parser import parse

pytest.importorskip("numpy")


def _binds_h(text):
    parsed = parse(PREFIX + text)
    return isinstance(parsed, ast.SelectQuery) and (
        "h" in _pattern_variables(parsed.pattern)
    )


def _distributes(text):
    """No modifier, aggregate or subselect: the answer is a union over
    the seed rows."""
    parsed = parse(PREFIX + text)
    return not (
        parsed.distinct
        or parsed.group_by
        or parsed.having
        or parsed.order_by
        or parsed.limit is not None
        or parsed.offset
        or any(
            isinstance(p.expression, ast.Aggregate)
            for p in parsed.projections
        )
        or any(
            isinstance(e, ast.SubSelect) for e in parsed.pattern.elements
        )
    )


H_QUERIES = [q for q in QUERIES if _binds_h(q)]
#: Corpus positions as test ids (the texts span lines).
H_IDS = [f"q{QUERIES.index(q)}" for q in H_QUERIES]


def _h(n):
    return NOA.term(f"hotspot{n}")


def _confidence(engine, n):
    return engine.graph.value(_h(n), NOA.term("hasConfidence"))


SEEDS = {
    "present": lambda e: [{"h": _h(n)} for n in (1, 4, 7, 12)],
    "absent": lambda e: [
        {"h": _h(2)},
        {"h": NOA.term("nowhere")},
        {"h": URI("http://example.org/not-in-the-graph")},
    ],
    "duplicates": lambda e: [{"h": _h(n)} for n in (3, 3, 5, 3)],
    "one-row": lambda e: [{"h": _h(6)}],
    "two-variables": lambda e: [
        {"h": _h(1), "c": _confidence(e, 1)},
        {"h": _h(2), "c": _confidence(e, 3)},  # never matches ?c
        {"h": _h(3), "c": _confidence(e, 3)},
    ],
}


@pytest.fixture(scope="module")
def engine():
    return make_engine()


def _endpoints(engine):
    return {"strabon": engine, "snapshot": engine.snapshot_view()}


def _union(results):
    variables = []
    rows = []
    for result in results:
        for name in result.variables:
            if name not in variables:
                variables.append(name)
        rows.extend(result.rows)
    return SolutionSet(variables, rows)


@pytest.mark.parametrize("endpoint", ["strabon", "snapshot"])
@pytest.mark.parametrize("seeds", sorted(SEEDS))
@pytest.mark.parametrize("query", H_QUERIES, ids=H_IDS)
def test_seeded_equals_reference_and_per_mapping_union(
    engine, endpoint, seeds, query
):
    source = _endpoints(engine)[endpoint]
    rows = SEEDS[seeds](engine)
    text = PREFIX + query
    batched = source.select(text, params=rows)
    reference = reference_evaluator(engine, initial=rows)
    assert batched == reference.select(parse(text))
    if _distributes(query):
        singles = [source.select(text, params=row) for row in rows]
        assert batched == _union(singles)


@pytest.mark.parametrize("query", H_QUERIES, ids=H_IDS)
def test_one_row_sequence_is_the_single_mapping(engine, query):
    text = PREFIX + query
    row = {"h": _h(9)}
    for source in _endpoints(engine).values():
        assert source.select(text, params=[row]) == source.select(
            text, params=row
        )


def test_the_corpus_exercises_both_checks():
    assert len(H_QUERIES) >= 20
    assert sum(map(_distributes, H_QUERIES)) >= 15


def test_empty_sequence_has_no_solutions(engine):
    text = PREFIX + "SELECT ?h ?c WHERE { ?h noa:hasConfidence ?c }"
    assert len(engine.select(text, params=[])) == 0
    assert not engine.ask(
        PREFIX + "ASK { ?h noa:hasConfidence ?c }", params=[]
    )


def test_seed_rows_must_bind_the_same_variables(engine):
    text = PREFIX + "SELECT ?h WHERE { ?h noa:hasConfidence ?c }"
    with pytest.raises(SparqlEvalError):
        engine.select(text, params=[{"h": _h(1)}, {"c": 0.5}])
    with pytest.raises(SparqlEvalError):
        engine.select(text, params=[{"h": _h(1)}, "not a mapping"])


def test_seeded_update_inserts_once_per_row():
    engine = make_engine()
    added = engine.update(
        PREFIX
        + 'INSERT { ?h noa:seen "yes" } '
        + "WHERE { ?h a noa:Hotspot }",
        params=[{"h": _h(n)} for n in (1, 2, 2, 40)],
    )
    assert added.added == 2  # duplicates collapse; hotspot40 is absent


# -- the bound-subject spatial probe ----------------------------------------

WKT = "http://strdf.di.uoa.gr/ontology#WKT"
REGION = "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0))"
PROBE = (
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
    "SELECT ?h WHERE { ?h strdf:hasGeometry ?g . "
    f'FILTER(strdf:anyInteract("{REGION}"^^strdf:WKT, ?g)) }}'
)
GEOMETRY = URI("http://strdf.di.uoa.gr/ontology#hasGeometry")


def _geometry_store(inside):
    """One hotspot plus ``inside`` other geometries, all in REGION."""
    engine = Strabon()
    for n in range(inside + 1):
        x, y = 0.5 + (n % 90) * 0.1, 0.5 + (n // 90) * 0.1
        engine.add(
            NOA.term(f"g{n}"),
            GEOMETRY,
            Literal(f"POINT ({x:.2f} {y:.2f})", datatype=WKT),
        )
    return engine


def _index_walks(monkeypatch, run):
    calls = []
    for name in ("triples", "triples_ids"):
        original = getattr(TripleReader, name)

        def counted(self, *args, _original=original, **kwargs):
            calls.append(1)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(TripleReader, name, counted)
    try:
        result = run()
    finally:
        monkeypatch.undo()
    return len(calls), result


def _probes(monkeypatch, inside):
    engine = _geometry_store(inside)
    view = engine.snapshot_view()
    params = {"h": NOA.term("g0")}

    def row_wise():
        evaluator = reference_evaluator(engine, initial=params)
        return evaluator.select(parse(PROBE))

    runs = {
        "columnar": lambda: engine.select(PROBE, params=params),
        "snapshot": lambda: view.select(PROBE, params=params),
        "row-wise": row_wise,
    }
    out = {}
    for name, run in runs.items():
        run()  # warm the R-tree and the candidate memo
        walks, result = _index_walks(monkeypatch, run)
        assert [r["h"] for r in result] == [NOA.term("g0")]
        out[name] = walks
    return out


def test_bound_subject_probe_cost_is_independent_of_the_region(
    monkeypatch,
):
    few = _probes(monkeypatch, 10)
    many = _probes(monkeypatch, 1000)
    assert few == many, (few, many)
