"""Seeded random differential testing of the stSPARQL engine.

Two generators, each driven by one integer seed:

* :func:`check_query_seed` builds a small random stRDF graph — subjects
  share geometry literals the way re-detected pixels do, and classes
  form ``rdfs:subClassOf`` chains — and random queries nesting
  OPTIONAL, MINUS, ``FILTER (NOT) EXISTS`` (also inside ``||``), UNION
  and inline ``VALUES`` blocks (with ``UNDEF`` cells, leading a group
  or after its triples), whose operators see columns bound in some rows
  and unbound in others.  Every query runs on the engine and on the row-wise
  reference evaluator of ``reference.py``; the solutions must be equal.
* :func:`check_template_seed` builds a small random world in the
  paper's vocabulary and runs every refinement update template, with
  its parameters, acquisition after acquisition, once through the
  engine and once through the reference bindings on a second store;
  the sorted triples must be identical after every update.

Tier-1 runs a fixed seed budget (``test_random_differential.py``).  For
a longer run over a seed range::

    PYTHONPATH=src python tests/stsparql/random_differential.py \\
        --query-seeds 0:1200 --template-seeds 0:80
"""

from __future__ import annotations

import argparse
import random
import sys
from datetime import datetime, timedelta, timezone
from typing import Iterable, List, Optional

from reference import reference_evaluator

from repro.core import refinement
from repro.datasets.corine import CLC_TAXONOMY, taxonomy_triples
from repro.rdf import CLC, COAST, GAG, NOA, RDF, RDFS, STRDF, Literal, URI
from repro.stsparql import Strabon
from repro.stsparql.engine import _instantiate, _param_rows
from repro.stsparql.eval import SolutionSet
from repro.stsparql.functions import to_term
from repro.stsparql.parser import parse

EX = "http://example.org/fuzz#"
PREFIX = (
    f"PREFIX ex: <{EX}>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)
GEOMETRY = STRDF.base + "geometry"

#: ``C3 ⊂ C2 ⊂ C1 ⊂ C0`` and ``D ⊂ C1``.
CLASSES = ("C0", "C1", "C2", "C3", "D")
SUBCLASS_OF = (("C3", "C2"), ("C2", "C1"), ("C1", "C0"), ("D", "C1"))


def ex(name: str) -> URI:
    return URI(EX + name)


def square(x: float, y: float, size: float) -> Literal:
    x2, y2 = x + size, y + size
    return Literal(
        f"POLYGON (({x} {y}, {x2} {y}, {x2} {y2}, {x} {y2}, {x} {y}))",
        datatype=GEOMETRY,
    )


# -- random queries ---------------------------------------------------------


def random_graph(rng: random.Random) -> Strabon:
    engine = Strabon()
    add = engine.graph.add
    for sub, sup in SUBCLASS_OF:
        add(ex(sub), RDFS.subClassOf, ex(sup))
    pool = [
        square(rng.randrange(6), rng.randrange(6), rng.randrange(1, 4))
        for _ in range(4)
    ]
    subjects = [ex(f"s{i}") for i in range(rng.randrange(5, 9))]
    for node in subjects:
        for cls in rng.sample(CLASSES, rng.randrange(1, 3)):
            add(node, RDF.type, ex(cls))
        for other in rng.sample(subjects, rng.randrange(1, 4)):
            add(node, ex("p"), other)
        if rng.random() < 0.7:
            add(node, ex("q"), to_term(rng.randrange(4)))
        if rng.random() < 0.5:
            add(node, ex("r"), to_term(rng.choice("ab")))
        if rng.random() < 0.8:
            add(node, STRDF.hasGeometry, rng.choice(pool))
    return engine


class QueryGenerator:
    """Random group graph patterns over the :func:`random_graph`
    vocabulary."""

    NODES = ("a", "b")
    NUMBERS = ("c", "d")
    SHAPES = ("g", "k")

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def triple(self) -> str:
        rng = self.rng
        x = rng.choice(self.NODES)
        kind = rng.randrange(5)
        if kind == 0:
            return f"?{x} a ex:{rng.choice(CLASSES)} ."
        if kind == 1:
            return f"?{x} ex:p ?{rng.choice(self.NODES)} ."
        if kind == 2:
            return f"?{x} ex:q ?{rng.choice(self.NUMBERS)} ."
        if kind == 3:
            return f'?{x} ex:r "{rng.choice("ab")}" .'
        return f"?{x} strdf:hasGeometry ?{rng.choice(self.SHAPES)} ."

    def condition(self) -> str:
        rng = self.rng
        kind = rng.randrange(5)
        if kind == 0:
            return f"?{rng.choice(self.NUMBERS)} > {rng.randrange(3)}"
        if kind == 1:
            return "?a != ?b"
        if kind == 2:
            return "strdf:anyInteract(?g, ?k)"
        if kind == 3:
            return f"!bound(?{rng.choice(self.NUMBERS + self.SHAPES)})"
        return f"bound(?{rng.choice(self.NODES + self.NUMBERS)})"

    def values(self) -> str:
        """A VALUES block over one or two of the node and number
        variables: subjects, numbers ``ex:q`` holds, and ``UNDEF``."""
        rng = self.rng
        names = rng.sample(self.NODES + self.NUMBERS, rng.randrange(1, 3))

        def cell(name: str) -> str:
            if rng.random() < 0.2:
                return "UNDEF"
            if name in self.NODES:
                return f"ex:s{rng.randrange(9)}"
            return str(rng.randrange(4))

        rows = [[cell(n) for n in names] for _ in range(rng.randrange(4))]
        if len(names) == 1 and rng.random() < 0.5:
            cells = " ".join(row[0] for row in rows)
            return f"VALUES ?{names[0]} {{ {cells} }}"
        head = " ".join(f"?{n}" for n in names)
        body = " ".join("(" + " ".join(row) + ")" for row in rows)
        return f"VALUES ({head}) {{ {body} }}"

    def exists(self, depth: int) -> str:
        negated = "NOT " if self.rng.random() < 0.5 else ""
        return f"{negated}EXISTS {self.group(depth)}"

    def element(self, depth: int) -> str:
        rng = self.rng
        kinds = ["triple", "filter", "bind", "values"]
        if depth > 0:
            kinds += [
                "optional", "optional", "minus", "exists", "exists_or",
                "union", "group",
            ]
        kind = rng.choice(kinds)
        if kind == "triple":
            return self.triple()
        if kind == "values":
            return self.values()
        if kind == "filter":
            return f"FILTER({self.condition()})"
        if kind == "bind":
            # BIND may rebind a variable, which OPTIONAL must reconcile.
            target, source = rng.sample(self.NUMBERS, 2)
            return f"BIND(?{source} + 1 AS ?{target})"
        sub = depth - 1
        if kind == "optional":
            return f"OPTIONAL {self.group(sub)}"
        if kind == "minus":
            return f"MINUS {self.group(sub)}"
        if kind == "exists":
            return f"FILTER {self.exists(sub)}"
        if kind == "exists_or":
            left, right = self.exists(sub), self.condition()
            if rng.random() < 0.5:
                left, right = right, left
            return f"FILTER({left} || {right})"
        if kind == "union":
            return f"{self.group(sub)} UNION {self.group(sub)}"
        return self.group(sub)

    def group(self, depth: int) -> str:
        # A leading triple (sometimes under an OPTIONAL or UNION, or
        # after a VALUES block) so the group binds something, then a
        # few random elements.
        parts = [self.triple()]
        if self.rng.random() < 0.2:
            parts.insert(0, self.values())
        parts += [
            self.element(depth) for _ in range(self.rng.randrange(1, 4))
        ]
        return "{ " + " ".join(parts) + " }"

    def query(self) -> str:
        # Anchored on a pattern most subjects match, so the operators
        # that follow see rows.
        rng = self.rng
        depth = rng.randrange(1, 4)
        parts = [rng.choice(("?a ex:p ?b .", "?a a ex:C0 ."))]
        parts += [self.element(depth) for _ in range(rng.randrange(1, 4))]
        return "SELECT * WHERE { " + " ".join(parts) + " }"

    def params(self, engine: Strabon) -> Optional[List[dict]]:
        """None, or seed rows binding ``?a`` (SPARQL ``VALUES``)."""
        rng = self.rng
        if rng.random() < 0.7:
            return None
        subjects = sorted(
            {s for s, _, _ in engine.graph.triples(None, None, None)
             if isinstance(s, URI) and s.value.startswith(EX + "s")},
            key=lambda u: u.value,
        )
        rows = rng.randrange(1, 4)
        return [{"a": rng.choice(subjects)} for _ in range(rows)]


def check_query_seed(seed: int, queries: int = 4) -> None:
    rng = random.Random(seed)
    engine = random_graph(rng)
    generator = QueryGenerator(rng)
    for index in range(queries):
        text = PREFIX + generator.query()
        params = generator.params(engine)
        got = engine.select(text, params)
        want = reference_evaluator(
            engine, initial=_param_rows(params)
        ).select(parse(text))
        assert got == want, (
            f"seed {seed} query {index} params {params}:\n{text}\n"
            f"engine {_rows(got)}\nreference {_rows(want)}"
        )


def _rows(solutions: SolutionSet) -> List[str]:
    return sorted(
        str(sorted((k, v.n3()) for k, v in row.items()))
        for row in solutions.rows
    )


# -- refinement templates ---------------------------------------------------


def reference_update(endpoint: Strabon, text: str, params=None) -> None:
    """Apply an update with its ``WHERE`` answered by the reference
    evaluator (the same template instantiation as the engine)."""
    request = parse(text)
    rows = reference_evaluator(
        endpoint, initial=_param_rows(params)
    ).update_bindings(request.where_pattern)
    graph = endpoint.graph
    for triple in _instantiate(request.delete_template, rows):
        graph.remove(*triple)
    for triple in _instantiate(request.insert_template, rows):
        graph.add(*triple)


def random_world(rng: random.Random) -> List[tuple]:
    """Municipalities, coastline, CLC areas over the land-use taxonomy
    and static heat sources, on a small grid of squares."""
    triples = list(taxonomy_triples())
    triples.append((GAG.Dhmos, RDFS.subClassOf, GAG.AdministrativeUnit))
    for i in range(3):
        node = GAG.term(f"m{i}")
        triples += [
            (node, RDF.type, GAG.Dhmos),
            (node, STRDF.hasGeometry, square(i * 4, 0, 4)),
        ]
    for i in range(2):
        node = COAST.term(f"c{i}")
        triples += [
            (node, RDF.type, COAST.Coastline),
            (node, STRDF.hasGeometry, square(rng.randrange(5), 0, 5)),
        ]
    uses = sorted(CLC_TAXONOMY)
    for i in range(5):
        node, use = CLC.term(f"area{i}"), CLC.term(rng.choice(uses))
        triples += [
            (use, RDF.type, CLC.term(CLC_TAXONOMY[use.local_name()][0])),
            (node, RDF.type, CLC.Area),
            (node, CLC.hasLandUse, use),
            (node, STRDF.hasGeometry, square(rng.randrange(10), 0, 3)),
        ]
    site = NOA.term("site0")
    triples += [
        (site, RDF.type, NOA.StaticHeatSource),
        (site, STRDF.hasGeometry, square(rng.randrange(10), 0, 2)),
    ]
    return triples


def acquisition(
    rng: random.Random, index: int, when: datetime, pool: List[Literal]
) -> List[tuple]:
    """Hotspots and federated detections of one acquisition; hotspots
    draw their geometry from ``pool`` (re-detections share literals)."""
    stamp = refinement._ts_param(when)
    triples = []
    for j in range(rng.randrange(1, 6)):
        node = NOA.term(f"h{index}_{j}")
        triples += [
            (node, RDF.type, NOA.Hotspot),
            (node, NOA.hasAcquisitionDateTime, stamp),
            (node, STRDF.hasGeometry, rng.choice(pool)),
            (node, NOA.hasConfidence, to_term(rng.choice((0.5, 0.8)))),
        ]
    for j in range(rng.randrange(0, 3)):
        node = NOA.term(f"d{index}_{j}")
        triples += [
            (node, RDF.type, NOA.SourceDetection),
            (node, NOA.fromSource, NOA.term(rng.choice(("firms", "eo")))),
            (node, NOA.hasConfidence, to_term(0.7)),
            (node, NOA.hasAcquisitionDateTime, stamp),
            (node, STRDF.hasGeometry, rng.choice(pool)),
        ]
    return triples


def refinement_requests(pipeline, when: datetime) -> Iterable[tuple]:
    """Every refinement request of one acquisition, in pipeline order:
    ``(label, text, params, is_update)``."""
    ts = refinement._ts_param(when)
    window = {
        "__ts": ts,
        "__window_start": refinement._ts_param(when - timedelta(minutes=15)),
    }
    at = {"__ts": ts}
    yield "Municipalities", refinement._MUNICIPALITIES_UPDATE, at, True
    yield "Delete In Sea", refinement._DELETE_IN_SEA_UPDATE, at, True
    yield "Invalid For Fires", refinement._INVALID_FOR_FIRES_UPDATE, at, True
    yield "Refine In Coast", refinement._REFINE_IN_COAST_UPDATE, at, True
    yield "Cross Confirm", refinement._CROSS_MATCH_QUERY, window, False
    yield "Cross Confirm", refinement._ACQ_SURVIVORS_QUERY, window, False
    yield "Static Sources", pipeline._static_update, at, True
    yield "Time Persistence", pipeline._confirm_update, window, True
    yield "Time Persistence", refinement._MARK_UNCONFIRMED_UPDATE, window, True


def check_template_seed(seed: int, acquisitions: int = 4) -> None:
    rng = random.Random(seed)
    engine, oracle = Strabon(), Strabon()
    pipeline = refinement.RefinementPipeline(
        engine, persistence_min_detections=2
    )
    refinement.RefinementPipeline(oracle)  # the same ontology
    world = random_world(rng)
    pool = [
        square(rng.randrange(12) - 1, rng.randrange(3) - 1, rng.choice((1, 2)))
        for _ in range(4)
    ]
    when = datetime(2007, 8, 24, 12, 0, tzinfo=timezone.utc)
    for store in (engine, oracle):
        store.graph.add_all(world)
    for index in range(acquisitions):
        triples = acquisition(rng, index, when, pool)
        for store in (engine, oracle):
            store.graph.add_all(triples)
        for label, text, params, is_update in refinement_requests(
            pipeline, when
        ):
            where = f"seed {seed} acquisition {index} {label}"
            if is_update:
                engine.update(text, params)
                reference_update(oracle, text, params)
                assert _triples(engine) == _triples(oracle), where
            else:
                got = engine.select(text, params)
                want = reference_evaluator(
                    oracle, initial=_param_rows(params)
                ).select(parse(text))
                assert got == want, where
        when += timedelta(minutes=5)


def _triples(endpoint: Strabon) -> List[tuple]:
    return sorted(
        tuple(term.n3() for term in triple)
        for triple in endpoint.graph.triples(None, None, None)
    )


# -- command line ------------------------------------------------------------


def _seed_range(text: str) -> range:
    start, _, stop = text.partition(":")
    return range(int(start), int(stop))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--query-seeds", type=_seed_range, default=range(0))
    parser.add_argument("--template-seeds", type=_seed_range, default=range(0))
    args = parser.parse_args(argv)
    for seed in args.query_seeds:
        check_query_seed(seed)
    for seed in args.template_seeds:
        check_template_seed(seed)
    print(
        f"{len(args.query_seeds)} query seeds and "
        f"{len(args.template_seeds)} template seeds agree"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
