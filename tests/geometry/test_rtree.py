"""R-tree index: correctness against brute force."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Envelope, RTree

finite = st.floats(
    min_value=-100, max_value=100, allow_nan=False, allow_infinity=False
)


def rand_env(a, b, w, h):
    return Envelope(a, b, a + abs(w), b + abs(h))


env_strategy = st.builds(
    rand_env,
    finite,
    finite,
    st.floats(min_value=0, max_value=10),
    st.floats(min_value=0, max_value=10),
)


class TestBasics:
    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert list(tree.search(Envelope(0, 0, 1, 1))) == []

    def test_single_item(self):
        tree = RTree()
        tree.insert(Envelope(0, 0, 1, 1), "a")
        assert list(tree.search(Envelope(0.5, 0.5, 2, 2))) == ["a"]
        assert list(tree.search(Envelope(5, 5, 6, 6))) == []

    def test_min_entries_validation(self):
        with pytest.raises(ValueError):
            RTree(max_entries=2)

    def test_grid_search(self):
        tree = RTree(max_entries=4)
        for i in range(10):
            for j in range(10):
                tree.insert(Envelope(i, j, i + 0.5, j + 0.5), (i, j))
        hits = set(tree.search(Envelope(2.25, 2.25, 4.25, 4.25)))
        assert hits == {(i, j) for i in (2, 3, 4) for j in (2, 3, 4)}

    def test_bulk_load_matches_incremental(self):
        items = [
            (Envelope(i, i % 7, i + 1, i % 7 + 1), i) for i in range(100)
        ]
        bulk = RTree.bulk_load(items)
        incremental = RTree()
        for env, payload in items:
            incremental.insert(env, payload)
        probe = Envelope(10, 0, 20, 8)
        assert set(bulk.search(probe)) == set(incremental.search(probe))

    def test_items_roundtrip(self):
        items = [(Envelope(i, 0, i + 1, 1), i) for i in range(25)]
        tree = RTree.bulk_load(items)
        assert sorted(p for _, p in tree.items()) == list(range(25))


class _Item:
    """A payload compared by identity, as ``RTree.remove`` finds it."""

    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        self.n = n


class TestRemove:
    def test_remove_missing_returns_false(self):
        tree = RTree.bulk_load([(Envelope(0, 0, 1, 1), "a")])
        assert not tree.remove(Envelope(0, 0, 1, 1), "b")
        assert not tree.remove(Envelope(5, 5, 6, 6), "a")
        assert len(tree) == 1

    def test_remove_goes_by_identity_not_envelope(self):
        env = Envelope(0, 0, 1, 1)
        first, second = _Item(1), _Item(2)
        tree = RTree()
        tree.insert(env, first)
        tree.insert(env, second)
        assert tree.remove(env, first)
        assert not tree.remove(env, first)
        assert list(tree.search(env)) == [second]

    def test_remove_everything_then_reuse(self):
        items = [
            (Envelope(i, j, i + 1, j + 1), _Item(i * 10 + j))
            for i in range(10)
            for j in range(10)
        ]
        tree = RTree.bulk_load(items, max_entries=4)
        for env, item in items:
            assert tree.remove(env, item)
        assert len(tree) == 0
        assert tree.envelope is None
        assert list(tree.search(Envelope(-1, -1, 20, 20))) == []
        tree.insert(Envelope(3, 3, 4, 4), "again")
        assert list(tree.search(Envelope(0, 0, 5, 5))) == ["again"]

    def test_envelope_shrinks_along_the_path(self):
        tree = RTree(max_entries=4)
        far = _Item(0)
        tree.insert(Envelope(50, 50, 60, 60), far)
        for n in range(1, 20):
            tree.insert(Envelope(n, n, n + 1, n + 1), _Item(n))
        assert tree.remove(Envelope(50, 50, 60, 60), far)
        assert tree.envelope == Envelope(1, 1, 20, 20)


class TestAgainstBruteForce:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(env_strategy, min_size=0, max_size=60), env_strategy)
    def test_search_equals_bruteforce(self, envs, probe):
        items = [(e, i) for i, e in enumerate(envs)]
        tree = RTree.bulk_load(items)
        expected = {i for e, i in items if e.intersects(probe)}
        assert set(tree.search(probe)) == expected

    @settings(max_examples=20, deadline=None)
    @given(st.lists(env_strategy, min_size=0, max_size=50))
    def test_incremental_insert_consistency(self, envs):
        tree = RTree(max_entries=5)
        for i, e in enumerate(envs):
            tree.insert(e, i)
        assert len(tree) == len(envs)
        everything = Envelope(-200, -200, 200, 200)
        assert set(tree.search(everything)) == set(range(len(envs)))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(env_strategy, max_size=30),
        st.lists(
            st.one_of(
                st.tuples(st.just("insert"), env_strategy),
                st.tuples(st.just("remove"), st.integers(0, 1000)),
                st.tuples(st.just("bulk_load"), st.none()),
            ),
            max_size=80,
        ),
        env_strategy,
    )
    def test_interleaved_updates_equal_bruteforce(self, initial, ops, probe):
        """Random bulk_load / insert / remove sequences: every search is
        the brute-force multiset, and a removed item never comes back."""
        live = [(env, _Item(n)) for n, env in enumerate(initial)]
        tree = RTree.bulk_load(live, max_entries=4)
        removed = set()
        everything = Envelope(-200, -200, 200, 200)
        for step, (op, arg) in enumerate(ops):
            if op == "insert":
                entry = (arg, _Item(len(initial) + step))
                tree.insert(*entry)
                live.append(entry)
            elif op == "remove" and live:
                env, item = live.pop(arg % len(live))
                assert tree.remove(env, item)
                assert not tree.remove(env, item)
                removed.add(item.n)
            elif op == "bulk_load":
                tree = RTree.bulk_load(live, max_entries=4)
            assert len(tree) == len(live)
            for window in (probe, everything):
                got = Counter(item.n for item in tree.search(window))
                want = Counter(
                    item.n for env, item in live if env.intersects(window)
                )
                assert got == want
            assert not removed & {item.n for item in tree.search(everything)}
        if live:
            assert tree.envelope == Envelope.union_all(e for e, _ in live)
        else:
            assert tree.envelope is None
