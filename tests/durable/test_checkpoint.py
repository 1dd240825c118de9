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


@pytest.mark.parametrize("seed", range(4))
def test_recovered_dictionary_matches_id_for_id(store_dir, seed):
    """Checkpoint plus replayed records rebuild the dictionary exactly:
    ``term_for_id(i)`` is the same term before the close and after the
    recovery, for every ``i`` — dead terms and terms interned by an
    add a later clear voided included."""
    rng = random.Random(100 + seed)
    graph = Graph()
    store = DurableStore(
        store_dir, graph=graph, fsync="never", checkpoint_interval=3
    )
    graph.start_journal()
    for batch in range(10):
        for _ in range(rng.randrange(1, 8)):
            n = rng.randrange(40)
            if rng.random() < 0.7:
                graph.add(*_triple(n, rng.choice("abc")))
            else:
                graph.remove(_uri(n), None, None)
        if batch == 5:
            graph.add(*_triple(500 + seed, "voided"))
            graph.clear()
        store.commit(graph.drain_journal(), meta={"batch": batch})
        store.maybe_checkpoint()
    assert store.stats()["durable_terms"] == graph.term_count()
    expected = [graph.term_for_id(i) for i in range(graph.term_count())]
    triples = _triple_set(graph)
    store.close()

    recovered = DurableStore(store_dir, graph=Graph(), fsync="never")
    try:
        rebuilt = recovered.graph
        assert [
            rebuilt.term_for_id(i) for i in range(rebuilt.term_count())
        ] == expected
        assert _triple_set(rebuilt) == triples
        stats = recovered.stats()
        assert stats["durable_terms"] == len(expected)
        assert stats["checkpoint_bytes"] == os.path.getsize(
            os.path.join(store_dir, DurableStore.CHECKPOINT_NAME)
        )
    finally:
        recovered.close()


@pytest.mark.parametrize("rewrites", [1, 5])
def test_record_of_durable_terms_costs_13_bytes_per_op(store_dir, rewrites):
    """A record that only re-adds terms already on disk carries an
    empty term table and 4 + 13 x ops bytes of ops, however often those
    terms were written before."""
    from repro.durable.codec import split_record
    from repro.durable.wal import WriteAheadLog, split_batch_payload

    graph = Graph()
    store = DurableStore(store_dir, graph=graph, fsync="never")
    graph.start_journal()
    triples = [_triple(n) for n in range(6)]
    for _ in range(rewrites):
        for triple in triples:
            graph.add(*triple)
        store.commit(graph.drain_journal())
        for triple in triples:
            graph.remove(*triple)
        store.commit(graph.drain_journal())
    for triple in triples:
        graph.add(*triple)
    ops = graph.drain_journal()
    store.commit(ops)
    store.close()
    records, _, _, _ = WriteAheadLog._scan(
        os.path.join(store_dir, DurableStore.WAL_NAME)
    )
    _, body = split_batch_payload(records[-1].payload)
    first_id, terms, offset = split_record(body)
    assert terms == []
    assert first_id == graph.term_count()
    assert len(body) - offset == 4 + 13 * len(ops)


def test_recovery_reports_the_newest_record_for_crash_repair(
    store_dir, monkeypatch
):
    graph = Graph()
    store = DurableStore(store_dir, graph=graph, fsync="never")
    graph.start_journal()
    graph.add(*_triple(1))
    store.commit(graph.drain_journal(), meta={"batch": 1})
    graph.add(*_triple(2))
    graph.remove(*_triple(1))
    ops = graph.drain_journal()
    seq = store.commit(ops, meta={"batch": 2})
    # A crash between the checkpoint rename and the WAL reset: the log
    # still holds records the checkpoint contains.
    monkeypatch.setattr(store.wal, "reset", lambda base_seq=None: None)
    store.checkpoint()
    store.close()

    recovered = DurableStore(store_dir, graph=Graph(), fsync="never")
    try:
        info = recovered.recovery
        assert info.replayed_records == 0
        assert info.last_seq == seq
        assert info.last_ops == ops
        assert info.last_meta == {"batch": 2}
    finally:
        recovered.close()


def test_v1_checkpoint_is_refused_naming_the_file(store_dir):
    import struct
    import zlib

    os.makedirs(store_dir)
    path = os.path.join(store_dir, DurableStore.CHECKPOINT_NAME)
    body = struct.pack("<Q", 0)  # a v1 body: zero full-term triples
    with open(path, "wb") as fh:
        fh.write(
            struct.pack(
                "<8sIQQIQ", b"REPROCKP", 1, 0, 0, zlib.crc32(body),
                len(body),
            )
        )
        fh.write(body)
    with pytest.raises(DurabilityError, match="graph.ckpt"):
        DurableStore(store_dir, graph=Graph(), fsync="never")


def test_v2_checkpoint_is_refused_naming_the_file(store_dir):
    import struct
    import zlib

    from repro.durable.codec import encode_terms

    os.makedirs(store_dir)
    path = os.path.join(store_dir, DurableStore.CHECKPOINT_NAME)
    # A v2 body: term table, triple count, id triples — no metadata.
    body = encode_terms([]) + struct.pack("<Q", 0)
    with open(path, "wb") as fh:
        fh.write(
            struct.pack(
                "<8sIQQIQ", b"REPROCKP", 2, 0, 0, zlib.crc32(body),
                len(body),
            )
        )
        fh.write(body)
    with pytest.raises(DurabilityError, match="graph.ckpt"):
        DurableStore(store_dir, graph=Graph(), fsync="never")


def test_checkpoint_keeps_the_newest_commit_metadata(store_dir):
    graph = Graph()
    store = DurableStore(store_dir, graph=graph, fsync="never")
    graph.start_journal()
    graph.add(*_triple(1))
    store.commit(graph.drain_journal(), meta={"batch": 1})
    graph.add(*_triple(2))
    store.commit(graph.drain_journal(), meta={"batch": 2})
    graph.add(*_triple(3))
    store.commit(graph.drain_journal())  # no metadata: batch 2 stays
    store.checkpoint()  # compacts: the WAL is empty from here on
    expected = _triple_set(graph)
    store.close()

    recovered_graph = Graph()
    recovered = DurableStore(store_dir, graph=recovered_graph, fsync="never")
    try:
        info = recovered.recovery
        assert info.replayed_records == 0
        assert info.last_seq is None  # nothing in the WAL
        assert info.last_meta == {"batch": 2}
        assert _triple_set(recovered_graph) == expected
        # Compacting again without a new commit keeps the metadata.
        recovered.checkpoint()
    finally:
        recovered.close()
    again = DurableStore(store_dir, graph=Graph(), fsync="never")
    try:
        assert again.recovery.last_meta == {"batch": 2}
    finally:
        again.close()


def test_recovery_refuses_a_graph_with_a_dictionary(store_dir):
    graph = Graph()
    DurableStore(store_dir, graph=graph, fsync="never").close()
    busy = Graph()
    busy.add(*_triple(1))
    with pytest.raises(DurabilityError, match="graph.ckpt"):
        DurableStore(store_dir, graph=busy, fsync="never")


def test_record_that_does_not_continue_the_dictionary_is_refused(
    store_dir,
):
    graph = Graph()
    store = DurableStore(store_dir, graph=graph, fsync="never")
    graph.start_journal()
    graph.add(*_triple(1))
    store.commit(graph.drain_journal())
    graph.add(*_triple(2))
    store._durable_terms -= 1  # a record that re-sends one term
    store.commit(graph.drain_journal())
    store.close()
    with pytest.raises(DurabilityError, match="wal.log"):
        DurableStore(store_dir, graph=Graph(), fsync="never")
