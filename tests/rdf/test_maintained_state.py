"""State every graph mutation maintains: predicate counts and the
geometry log.

Seeded random add / remove / ``clear()`` / snapshot-then-mutate
sequences, checked after every step against a brute-force model:

* ``count(None, p, None)`` equals the number of triples with predicate
  ``p``, on the graph and on every snapshot taken along the way (which
  must keep answering for the state it captured);
* every geometry literal some triple holds is in the geometry log at or
  after the position the log had when the literal last went from no
  holder to one — a new literal, or one resurrected after all its
  triples were removed — and a snapshot sees exactly the log prefix it
  captured.
"""

from __future__ import annotations

import random

import pytest

from repro.rdf import Graph, Literal, URI

EX = "http://example.org/"
WKT = "http://strdf.di.uoa.gr/ontology#WKT"

SUBJECTS = [URI(f"{EX}s{i}") for i in range(6)]
PREDICATES = [URI(f"{EX}p{i}") for i in range(3)]
OBJECTS = [Literal(f"POINT ({i} {i})", datatype=WKT) for i in range(5)] + [
    Literal(i) for i in range(4)
]


def _random_triple(rng):
    return (rng.choice(SUBJECTS), rng.choice(PREDICATES), rng.choice(OBJECTS))


class _Model:
    """The brute-force oracle: a set of triples plus, per geometry
    literal, the log length when it last gained its first holder."""

    def __init__(self, graph):
        self.triples = set(graph.triples())
        self.first_hold_at = {}

    def holders(self, obj):
        return sum(1 for t in self.triples if t[2] == obj)

    def add(self, graph, triple):
        if triple[2].is_geometry and not self.holders(triple[2]):
            self.first_hold_at[triple[2]] = graph.geometry_term_count()
        graph.add(*triple)
        self.triples.add(triple)

    def remove(self, graph, triple):
        graph.remove(*triple)
        self.triples.discard(triple)

    def clear(self, graph):
        graph.clear()
        self.triples = set()
        self.first_hold_at = {}


def _check(reader, triples, first_hold_at):
    for p in PREDICATES:
        expected = sum(1 for t in triples if t[1] == p)
        assert reader.count(None, p, None) == expected
    log = reader.geometry_terms()
    assert len(log) == reader.geometry_term_count()
    for obj in {t[2] for t in triples if t[2].is_geometry}:
        assert reader.term_id(obj) in log[first_hold_at[obj]:], obj


@pytest.mark.parametrize("seed", range(8))
def test_counts_and_geometry_log_follow_random_mutations(seed):
    rng = random.Random(seed)
    graph = Graph()
    model = _Model(graph)
    snapshots = []
    for _ in range(300):
        roll = rng.random()
        if roll < 0.5:
            model.add(graph, _random_triple(rng))
        elif roll < 0.8:
            if model.triples:
                victim = rng.choice(sorted(model.triples, key=repr))
            else:
                victim = _random_triple(rng)
            model.remove(graph, victim)
        elif roll < 0.85:
            # Remove every triple holding one object, then re-add them:
            # the resurrected literal must be logged again.
            obj = rng.choice(OBJECTS)
            held = [t for t in model.triples if t[2] == obj]
            for triple in held:
                model.remove(graph, triple)
            _check(graph, model.triples, model.first_hold_at)
            for triple in held:
                model.add(graph, triple)
        elif roll < 0.88:
            model.clear(graph)
        else:
            snap = graph.snapshot()
            snapshots.append(
                (
                    snap,
                    set(model.triples),
                    dict(model.first_hold_at),
                    snap.geometry_terms(),
                )
            )
        _check(graph, model.triples, model.first_hold_at)
        for snap, triples, first_hold_at, log in snapshots:
            _check(snap, triples, first_hold_at)
            assert snap.geometry_terms() == log


def test_clear_starts_a_new_log_and_keeps_term_ids():
    graph = Graph()
    point = Literal("POINT (1 1)", datatype=WKT)
    graph.add(SUBJECTS[0], PREDICATES[0], point)
    pid = graph.term_id(point)
    snap = graph.snapshot()
    epoch = graph.geometry_epoch
    graph.clear()
    assert graph.geometry_epoch == epoch + 1
    assert graph.geometry_terms() == []
    assert snap.geometry_epoch == epoch and snap.geometry_terms() == [pid]
    # Ids are append-only for the graph's lifetime: a term re-added
    # after clear() keeps its id, so id-keyed caches stay valid.
    other = Literal("POINT (2 2)", datatype=WKT)
    graph.add(SUBJECTS[1], PREDICATES[0], other)
    graph.add(SUBJECTS[0], PREDICATES[0], point)
    assert graph.term_id(point) == pid
    assert graph.term_for_id(pid) == point
    assert graph.geometry_terms() == [graph.term_id(other), pid]
