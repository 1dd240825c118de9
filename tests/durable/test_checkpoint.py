"""DurableStore: commit, compaction, recovery."""

from __future__ import annotations

import os
import random

import pytest

from repro.durable import DurableStore
from repro.errors import DurabilityError
from repro.rdf.graph import Graph
from repro.rdf.term import Literal, URI


def _uri(n: int) -> URI:
    return URI(f"http://example.org/{n}")


def _triple(n: int, value: str = "v"):
    return (_uri(n), _uri(1000), Literal(f"{value}{n}"))


def _triple_set(graph: Graph):
    return set(graph.triples())


@pytest.fixture()
def store_dir(tmp_path):
    return str(tmp_path / "durable")


def test_commit_recover_roundtrip(store_dir):
    graph = Graph()
    store = DurableStore(store_dir, graph=graph, fsync="never")
    graph.start_journal()
    for n in range(10):
        graph.add(*_triple(n))
    store.commit(graph.drain_journal(), meta={"batch": 1})
    graph.remove(_uri(3), None, None)
    graph.add(
        _uri(3),
        _uri(1000),
        Literal(
            "POINT (21.73 38.24)",
            datatype="http://strdf.di.uoa.gr/ontology#WKT",
        ),
    )
    store.commit(graph.drain_journal(), meta={"batch": 2})
    expected = _triple_set(graph)
    store.close()

    recovered_graph = Graph()
    recovered = DurableStore(store_dir, graph=recovered_graph, fsync="never")
    try:
        assert recovered.recovery is not None
        assert recovered.recovery.replayed_records == 2
        assert recovered.recovery.last_meta == {"batch": 2}
        assert _triple_set(recovered_graph) == expected
    finally:
        recovered.close()


def test_clear_is_durable(store_dir):
    graph = Graph()
    store = DurableStore(store_dir, graph=graph, fsync="never")
    graph.start_journal()
    for n in range(5):
        graph.add(*_triple(n))
    store.commit(graph.drain_journal())
    store.checkpoint()  # bake the 5 triples into the checkpoint
    graph.clear()
    graph.add(*_triple(99))
    store.commit(graph.drain_journal())
    store.close()

    recovered_graph = Graph()
    recovered = DurableStore(store_dir, graph=recovered_graph, fsync="never")
    try:
        assert _triple_set(recovered_graph) == {_triple(99)}
    finally:
        recovered.close()


def test_checkpoint_refuses_uncommitted_journal(store_dir):
    graph = Graph()
    store = DurableStore(store_dir, graph=graph, fsync="never")
    graph.start_journal()
    try:
        graph.add(*_triple(1))
        with pytest.raises(DurabilityError):
            store.checkpoint()
        store.commit(graph.drain_journal())
        store.checkpoint()  # fine once drained
    finally:
        store.close()


def test_compaction_shrinks_the_wal_and_preserves_state(store_dir):
    graph = Graph()
    store = DurableStore(
        store_dir, graph=graph, fsync="never", checkpoint_interval=4
    )
    graph.start_journal()
    checkpoints = 0
    for n in range(12):
        graph.add(*_triple(n))
        store.commit(graph.drain_journal())
        if store.maybe_checkpoint():
            checkpoints += 1
    assert checkpoints == 3
    assert store.batches_since_checkpoint == 0
    wal_bytes_after = store.wal.size_bytes()
    expected = _triple_set(graph)
    last_seq = store.wal.last_seq
    store.close()

    # The WAL holds only the header after compaction, but numbering
    # carried over, and recovery needs no replay at all.
    recovered_graph = Graph()
    recovered = DurableStore(store_dir, graph=recovered_graph, fsync="never")
    try:
        assert recovered.recovery.replayed_records == 0
        assert recovered.recovery.checkpoint_seq == last_seq
        assert recovered.wal.size_bytes() == wal_bytes_after
        assert _triple_set(recovered_graph) == expected
    finally:
        recovered.close()


def test_corrupt_checkpoint_is_a_hard_error(store_dir):
    graph = Graph()
    store = DurableStore(store_dir, graph=graph, fsync="never")
    graph.start_journal()
    graph.add(*_triple(1))
    store.commit(graph.drain_journal())
    store.checkpoint()
    store.close()
    path = os.path.join(store_dir, DurableStore.CHECKPOINT_NAME)
    with open(path, "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([byte[0] ^ 0xFF]))
    with pytest.raises(DurabilityError):
        DurableStore(store_dir, graph=Graph(), fsync="never")


def test_stale_wal_without_checkpoint_is_discarded(store_dir):
    # A crash during the very first baseline checkpoint can leave a WAL
    # with no checkpoint beside it: nothing was ever committed.
    os.makedirs(store_dir)
    from repro.durable.wal import WriteAheadLog

    stale = WriteAheadLog(
        os.path.join(store_dir, DurableStore.WAL_NAME), fsync="never"
    )
    stale.append(b"pre-commit garbage")
    stale.close()
    graph = Graph()
    store = DurableStore(store_dir, graph=graph, fsync="never")
    try:
        assert store.recovery is None
        assert store.wal.last_seq == 0
        assert len(graph) == 0
    finally:
        store.close()


@pytest.mark.parametrize("seed", range(5))
def test_randomized_mutation_history_recovers_exactly(store_dir, seed):
    """Seeded random add/remove/commit/checkpoint interleavings: the
    recovered graph always equals the live one at the last commit."""
    rng = random.Random(seed)
    graph = Graph()
    store = DurableStore(
        store_dir,
        graph=graph,
        fsync="never",
        checkpoint_interval=rng.randrange(1, 5),
    )
    graph.start_journal()
    live = set()
    for _ in range(rng.randrange(5, 15)):
        for _ in range(rng.randrange(1, 10)):
            n = rng.randrange(30)
            if rng.random() < 0.7:
                graph.add(*_triple(n))
                live.add(_triple(n))
            else:
                graph.remove(_uri(n), None, None)
                live = {t for t in live if t[0] != _uri(n)}
        store.commit(graph.drain_journal())
        store.maybe_checkpoint()
    assert _triple_set(graph) == live
    store.close()

    recovered_graph = Graph()
    recovered = DurableStore(store_dir, graph=recovered_graph, fsync="never")
    try:
        assert _triple_set(recovered_graph) == live
    finally:
        recovered.close()
