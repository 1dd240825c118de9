"""Triple store pattern matching and mutation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal, NOA, RDF, STRDF, URI


@pytest.fixture
def small_graph():
    g = Graph()
    g.add(NOA.h1, RDF.type, NOA.Hotspot)
    g.add(NOA.h2, RDF.type, NOA.Hotspot)
    g.add(NOA.h1, NOA.hasConfidence, Literal(1.0))
    g.add(NOA.h2, NOA.hasConfidence, Literal(0.5))
    g.add(NOA.h1, NOA.isProducedBy, NOA.noa)
    return g


class TestMutation:
    def test_add_returns_true_once(self):
        g = Graph()
        assert g.add(NOA.a, NOA.p, NOA.b) is True
        assert g.add(NOA.a, NOA.p, NOA.b) is False
        assert len(g) == 1

    def test_remove_exact(self, small_graph):
        removed = small_graph.remove(NOA.h1, RDF.type, NOA.Hotspot)
        assert removed == 1
        assert (NOA.h1, RDF.type, NOA.Hotspot) not in small_graph

    def test_remove_wildcard_subject(self, small_graph):
        removed = small_graph.remove(NOA.h1, None, None)
        assert removed == 3
        assert len(small_graph) == 2

    def test_remove_nonexistent(self, small_graph):
        assert small_graph.remove(NOA.h9, None, None) == 0

    def test_generation_bumps(self, small_graph):
        before = small_graph.generation
        small_graph.add(NOA.x, NOA.p, NOA.y)
        assert small_graph.generation > before

    def test_clear(self, small_graph):
        small_graph.clear()
        assert len(small_graph) == 0


class TestPatterns:
    def test_fully_bound(self, small_graph):
        assert (NOA.h1, RDF.type, NOA.Hotspot) in small_graph

    def test_spo_lookup(self, small_graph):
        got = list(small_graph.triples(NOA.h1, None, None))
        assert len(got) == 3

    def test_pos_lookup(self, small_graph):
        got = list(small_graph.triples(None, RDF.type, NOA.Hotspot))
        assert {s for s, _, _ in got} == {NOA.h1, NOA.h2}

    def test_object_lookup(self, small_graph):
        got = list(small_graph.triples(None, None, NOA.noa))
        assert got == [(NOA.h1, NOA.isProducedBy, NOA.noa)]

    def test_unknown_term_matches_nothing(self, small_graph):
        assert list(small_graph.triples(URI("http://nowhere/"), None, None)) == []

    def test_count(self, small_graph):
        assert small_graph.count(None, RDF.type, None) == 2
        assert small_graph.count() == 5

    def test_subjects_objects_helpers(self, small_graph):
        assert set(small_graph.subjects(RDF.type)) == {NOA.h1, NOA.h2}
        assert small_graph.value(NOA.h1, NOA.isProducedBy) == NOA.noa

    def test_geometry_literals(self):
        g = Graph()
        g.add(
            NOA.h1,
            STRDF.hasGeometry,
            Literal("POINT (1 2)", datatype=STRDF.base + "geometry"),
        )
        g.add(NOA.h1, NOA.hasConfidence, Literal(1.0))
        got = list(g.geometry_literals())
        assert len(got) == 1
        assert got[0][1] == STRDF.hasGeometry

    def test_copy_independent(self, small_graph):
        clone = small_graph.copy()
        clone.add(NOA.x, NOA.p, NOA.y)
        assert len(clone) == len(small_graph) + 1


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 3), st.integers(0, 8)
            ),
            max_size=60,
        )
    )
    def test_add_remove_inverse(self, triples):
        g = Graph()
        terms = lambda i: NOA.term(f"t{i}")
        unique = set()
        for s, p, o in triples:
            g.add(terms(s), terms(100 + p), terms(o))
            unique.add((s, p, o))
        assert len(g) == len(unique)
        for s, p, o in unique:
            g.remove(terms(s), terms(100 + p), terms(o))
        assert len(g) == 0

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)
            ),
            max_size=40,
        )
    )
    def test_all_indexes_agree(self, triples):
        g = Graph()
        terms = lambda i: NOA.term(f"t{i}")
        for s, p, o in triples:
            g.add(terms(s), terms(100 + p), terms(o))
        full = set(g.triples())
        by_s = {
            t
            for s in set(x[0] for x in triples)
            for t in g.triples(terms(s), None, None)
        }
        by_p = {
            t
            for p in set(x[1] for x in triples)
            for t in g.triples(None, terms(100 + p), None)
        }
        by_o = {
            t
            for o in set(x[2] for x in triples)
            for t in g.triples(None, None, terms(o))
        }
        assert full == by_s == by_p == by_o


def _layout(graph):
    """The three indexes with every dict and set in iteration order."""
    return [
        [(a, [(b, list(leaf)) for b, leaf in inner.items()])
         for a, inner in index.items()]
        for index in (graph._spo, graph._pos, graph._osp)
    ]


def _dictionary():
    """Nine URIs, then geometry and plain literals (ids 9 to 16)."""
    terms = [NOA.term(f"t{i}") for i in range(9)]
    terms += [
        Literal(f"POINT ({i} {i})", datatype=STRDF.WKT) for i in range(4)
    ]
    terms += [Literal(f"v{i}") for i in range(4)]
    return terms


class TestBulkLoad:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 8), st.integers(0, 3), st.integers(0, 16)
            ),
            unique=True,
            max_size=80,
        )
    )
    def test_load_ids_builds_what_adds_build(self, triples):
        """In any order, not only the grouped order a checkpoint
        stores: the same indexes filled in the same order, geometry
        log, predicate counts, size and generation."""
        terms = _dictionary()
        added = Graph()
        added.extend_terms(terms)
        for s, p, o in triples:
            added.add(terms[s], terms[p], terms[o])
        loaded = Graph()
        loaded.extend_terms(terms)
        loaded.load_ids(*zip(*triples) if triples else ((), (), ()))
        assert _layout(loaded) == _layout(added)
        assert loaded.geometry_terms(0) == added.geometry_terms(0)
        assert list(loaded._predicate_counts.items()) == list(
            added._predicate_counts.items()
        )
        assert len(loaded) == len(added) == len(triples)
        assert loaded.generation == added.generation
        columns = [c.tolist() for c in loaded.id_columns()]
        assert list(zip(*columns)) == list(loaded.triples_ids())

    def test_load_ids_after_a_snapshot_leaves_the_snapshot_empty(self):
        terms = _dictionary()
        g = Graph()
        g.extend_terms(terms)
        snap = g.snapshot()
        g.load_ids([0, 1], [2, 2], [9, 9])
        assert len(snap) == 0 and not list(snap.triples_ids())
        assert snap.geometry_terms(0) == []
        assert g.geometry_terms(0) == [9]
        assert g.snapshot() is not snap
        g.add(terms[0], terms[2], terms[10])  # the writer's own buckets
        assert g.count_ids(0, 2, None) == 2

    def test_load_ids_refuses_bad_input(self):
        terms = _dictionary()
        g = Graph()
        g.extend_terms(terms)
        with pytest.raises(ValueError, match="repeated"):
            g.load_ids([0, 0], [1, 1], [2, 2])
        with pytest.raises(ValueError, match="dictionary"):
            g.load_ids([0], [1], [len(terms)])
        with pytest.raises(ValueError, match="lengths"):
            g.load_ids([0, 1], [1], [2])
        assert len(g) == 0 and not list(g.triples_ids())
        g.add(terms[0], terms[1], terms[2])
        with pytest.raises(ValueError, match="empty"):
            g.load_ids([3], [1], [2])
        journaled = Graph()
        journaled.extend_terms(terms)
        journaled.start_journal()
        with pytest.raises(ValueError, match="journal"):
            journaled.load_ids([3], [1], [2])


def test_journal_records_only_effective_mutations():
    graph = Graph()
    graph.start_journal()
    graph.add(NOA.h1, NOA.hasConfidence, Literal("v1"))
    graph.add(NOA.h1, NOA.hasConfidence, Literal("v1"))  # duplicate
    assert graph.pending_ops == 1
    graph.remove(NOA.h2, None, None)  # nothing matched
    assert graph.pending_ops == 1
    graph.remove(NOA.h1, None, None)
    assert graph.pending_ops == 2
