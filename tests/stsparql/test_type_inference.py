"""``rdf:type`` under RDFS inference, in every binding state.

The oracle evaluates with ``inference=None`` over a copy of the graph in
which the rdfs9 entailments over the rdfs11 closure are materialised, so
it cannot share a bug with :class:`~repro.rdf.inference.RDFSInference`.
Each query runs through the row-wise evaluator, the columnar evaluator
and the engine; nested groups force both join orders, because a BGP's
own order is the planner's choice.
"""

import pytest

from repro.rdf import Graph, RDF, RDFS, Literal, URI
from repro.rdf.inference import RDFSInference
from repro.stsparql import Strabon
from repro.stsparql.columnar import ColumnarEvaluator
from repro.stsparql.eval import Evaluator
from repro.stsparql.parser import parse

EX = "http://ex.org/"
PREFIX = (
    "PREFIX ex: <http://ex.org/>\n"
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
)


def ex(name):
    return URI(EX + name)


def taxonomy() -> Graph:
    g = Graph()
    # Conifer < Forest < Area < Thing, plus a two-class cycle.
    g.add(ex("Forest"), RDFS.subClassOf, ex("Area"))
    g.add(ex("Conifer"), RDFS.subClassOf, ex("Forest"))
    g.add(ex("Area"), RDFS.subClassOf, ex("Thing"))
    g.add(ex("Left"), RDFS.subClassOf, ex("Right"))
    g.add(ex("Right"), RDFS.subClassOf, ex("Left"))
    for node, cls in [
        ("a", "Area"), ("f", "Forest"), ("c", "Conifer"),
        ("o", "Other"), ("l", "Left"), ("r", "Right"), ("c", "Other"),
    ]:
        g.add(ex(node), RDF.type, ex(cls))
    # Links that bind subjects and classes from the row.
    for s, p, o in [
        ("a", "near", "f"), ("f", "near", "c"), ("o", "near", "a"),
        ("a", "kind", "Thing"), ("f", "kind", "Area"),
        ("c", "kind", "Conifer"), ("o", "kind", "Area"),
        ("l", "kind", "Right"), ("r", "kind", "Forest"),
    ]:
        g.add(ex(s), ex(p), ex(o))
    g.add(ex("a"), ex("label"), Literal("a"))
    return g


def materialised(g: Graph) -> Graph:
    direct = {}
    for s, _, o in g.triples(None, RDFS.subClassOf, None):
        direct.setdefault(s, set()).add(o)

    def supers(cls):
        reached, stack = set(), list(direct.get(cls, ()))
        while stack:
            c = stack.pop()
            if c not in reached:
                reached.add(c)
                stack.extend(direct.get(c, ()))
        return reached

    out = g.copy()
    for s, _, t in list(g.triples(None, RDF.type, None)):
        for sup in supers(t):
            out.add(s, RDF.type, sup)
    return out


# Subject x object binding states: constant, fresh, bound by the row.
QUERIES = {
    "const-const": "ASK { ex:c a ex:Thing }",
    "const-const-false": "ASK { ex:o a ex:Area }",
    "const-fresh": "SELECT ?t { ex:c a ?t }",
    "fresh-const": "SELECT ?y { ?y a ex:Area }",
    "fresh-fresh": "SELECT ?y ?t { ?y a ?t }",
    "cycle": "SELECT ?y { ?y a ex:Left }",
    "bgp-subject-bound": "SELECT ?x ?y { ?x ex:near ?y . ?y a ex:Forest }",
    "bgp-object-bound": "SELECT ?y { ex:a ex:kind ?t . ?y a ?t }",
    "bgp-both-bound": "SELECT ?y ?t { ?y ex:kind ?t . ?y a ?t }",
    "bgp-shared-class": "SELECT ?y { ex:f a ?t . ?y a ?t }",
    "bound-predicate": "SELECT ?y { BIND(rdf:type AS ?p) ?y ?p ex:Area }",
    "literal-class-false": "SELECT ?y { ex:a ex:label ?t . ?y a ?t }",
}

# Both join orders, forced by nested groups.
for first, second in [
    ("?y ex:near ?z", "?y a ex:Forest"),
    ("ex:a a ?t", "?y a ?t"),
    ("ex:r ex:kind ?t", "?y a ?t"),
    ("?y ex:kind ?t", "?y a ?t"),
    ("?y a ?t", "?y ex:kind ?t"),
]:
    QUERIES[f"{{{first}}} {{{second}}}"] = (
        f"SELECT * {{ {{ {first} }} {{ {second} }} }}"
    )
    QUERIES[f"{{{second}}} {{{first}}}"] = (
        f"SELECT * {{ {{ {second} }} {{ {first} }} }}"
    )


def run(evaluator, text):
    query = parse(PREFIX + text)
    if text.startswith("ASK"):
        return evaluator.ask(query)
    return evaluator.select(query)


@pytest.fixture(scope="module")
def graphs():
    g = taxonomy()
    return g, materialised(g)


@pytest.mark.parametrize("name", sorted(QUERIES))
@pytest.mark.parametrize("engine", ["interpreted", "columnar", "strabon"])
def test_matches_materialised_closure(graphs, name, engine):
    g, closed = graphs
    text = QUERIES[name]
    expected = run(Evaluator(closed, inference=None), text)
    if engine == "strabon":
        endpoint = Strabon(g)
        got = (
            endpoint.ask(PREFIX + text)
            if text.startswith("ASK")
            else endpoint.select(PREFIX + text)
        )
    else:
        cls = Evaluator if engine == "interpreted" else ColumnarEvaluator
        got = run(cls(g, inference=RDFSInference(g)), text)
    assert got == expected
    # Every other case has answers, so equality is not vacuous.
    assert bool(expected) != name.endswith("-false")


def _bound_subject_probe_eq_calls(monkeypatch, cls, instances):
    g = Graph()
    for i in range(instances):
        g.add(ex(f"h{i}"), RDF.type, ex("Hotspot"))
    g.add(ex("h3"), ex("tag"), Literal("x"))
    evaluator = cls(g, inference=RDFSInference(g))
    # ?h is bound by the selective tag pattern, then probed for its type.
    query = parse(PREFIX + 'SELECT ?h { ?h ex:tag "x" . ?h a ex:Hotspot }')
    assert [row["h"] for row in evaluator.select(query)] == [ex("h3")]
    calls = [0]
    original = URI.__eq__

    def counting_eq(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(URI, "__eq__", counting_eq)
    evaluator.select(query)
    monkeypatch.setattr(URI, "__eq__", original)
    return calls[0]


@pytest.mark.parametrize("cls", [Evaluator, ColumnarEvaluator])
def test_bound_subject_type_probe_is_constant_cost(monkeypatch, cls):
    small = _bound_subject_probe_eq_calls(monkeypatch, cls, 10)
    large = _bound_subject_probe_eq_calls(monkeypatch, cls, 10_000)
    assert large <= small + 2 and small < 50, (small, large)
