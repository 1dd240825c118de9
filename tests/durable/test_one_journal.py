"""One journal, one truth: the graph's drained op list is the WAL
record and the commit's delta alike.

Seeded random mutation batches — duplicate adds, no-op removes, a
``clear`` mid-batch and adds after it — go through the commit the
service runs: drain the graph's journal once, frame the list into the
WAL, evaluate ``delta_from_ops`` of the same list in the subscription
engine.  After every commit the WAL record decodes to the drained list,
and the delta rebuilt from the record (what crash repair evaluates)
equals the delta the engine evaluated.
"""

from __future__ import annotations

import os
import random

import pytest

from repro.durable import DurableStore
from repro.durable.codec import decode_ops, split_record
from repro.durable.wal import WriteAheadLog, split_batch_payload
from repro.rdf.graph import OP_ADD, OP_CLEAR, OP_REMOVE
from repro.rdf.namespace import NOA, RDF, STRDF
from repro.rdf.term import Literal, URI
from repro.serve import SnapshotPublisher
from repro.serve.subscribe import SubscriptionEngine, delta_from_ops
from repro.stsparql import Strabon

WKT = "http://strdf.di.uoa.gr/ontology#WKT"


def _hotspot(n: int) -> URI:
    return URI(f"http://example.org/hotspot/{n}")


def _random_triple(rng: random.Random):
    """A triple of some hotspot's star, from a small pool so that adds
    repeat and removes hit."""
    s = _hotspot(rng.randrange(6))
    kind = rng.randrange(4)
    if kind == 0:
        return s, RDF.type, NOA.Hotspot
    if kind == 1:
        return (
            s,
            STRDF.hasGeometry,
            Literal(f"POINT (23.{rng.randrange(3)} 38.0)", datatype=WKT),
        )
    if kind == 2:
        return s, NOA.hasConfidence, Literal(f"0.{rng.randrange(5, 9)}")
    return (
        s,
        NOA.isInMunicipality,
        URI(f"http://example.org/muni/{rng.randrange(2)}"),
    )


def _mutate(graph, rng: random.Random, expected: list) -> None:
    """One random mutation; ``expected`` follows the ops it must
    journal, and the pending count moves by exactly that many."""
    before = graph.pending_ops
    roll = rng.random()
    if roll < 0.05:
        graph.clear()
        expected[:] = [(OP_CLEAR, None)]
        assert graph.pending_ops == 1
        return
    triple = _random_triple(rng)
    present = triple in graph
    if roll < 0.65:
        graph.add(*triple)
        effective = not present
        op = (OP_ADD, triple)
    else:
        graph.remove(*triple)
        effective = present
        op = (OP_REMOVE, triple)
    if effective:
        expected.append(op)
    assert graph.pending_ops == before + effective


def _last_record_ops(store: DurableStore):
    records, _, _, _ = WriteAheadLog._scan(
        os.path.join(store.directory, DurableStore.WAL_NAME)
    )
    _, body = split_batch_payload(records[-1].payload)
    first_id, terms, offset = split_record(body)
    # The record carries exactly the terms interned since the last one.
    assert first_id + len(terms) == store.graph.term_count()
    assert terms == store.graph.terms(first_id)
    return decode_ops(
        body, offset, store.graph.term_count(), store.graph.term_for_id
    )


@pytest.mark.parametrize("engine_first", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_wal_record_and_delta_come_from_one_op_list(
    tmp_path, monkeypatch, seed, engine_first
):
    rng = random.Random(seed)
    strabon = Strabon()
    graph = strabon.graph
    store = DurableStore(
        str(tmp_path / "durable"),
        graph=graph,
        fsync="never",
        checkpoint_interval=3,
    )
    publisher = SnapshotPublisher()
    engine = SubscriptionEngine(state_dir=str(tmp_path / "subs"))
    engine.bind(strabon, publisher)
    graph.start_journal()
    publisher.publish(strabon)
    engine.register({"kind": "filter"})
    engine.register({"kind": "fwi", "min_class": "low"})

    evaluated = []
    real_evaluate = engine._evaluate_delta

    def recording(delta, source, out):
        evaluated.append(delta)
        return real_evaluate(delta, source, out)

    monkeypatch.setattr(engine, "_evaluate_delta", recording)
    for commit in range(8):
        expected: list = []
        for _ in range(rng.randrange(4, 20)):
            _mutate(graph, rng, expected)
        if commit == 3:
            # A clear mid-batch, then adds after it.
            graph.clear()
            expected[:] = [(OP_CLEAR, None)]
            for _ in range(3):
                _mutate(graph, rng, expected)
        ops = graph.drain_journal()
        assert ops == expected
        assert graph.pending_ops == 0
        wal_seq = store.commit(ops, meta={"commit": commit})
        decoded = _last_record_ops(store)
        assert decoded == ops
        delta = delta_from_ops(ops)
        engine.process_commit(
            publisher.sequence + 1, delta, wal_seq=wal_seq
        )
        publisher.publish(strabon, delta=delta)
        # What crash repair rebuilds from the record is what the live
        # path evaluated.
        assert evaluated[-1] == delta_from_ops(decoded)
        store.maybe_checkpoint()

    expected_triples = set(graph.triples())
    first, second = (engine, store) if engine_first else (store, engine)
    first.close()
    second.close()
    # The graph outlives both: it still mutates, journals and answers.
    extra = (_hotspot(99), NOA.hasConfidence, Literal("0.9"))
    assert graph.add(*extra)
    assert graph.drain_journal() == [(OP_ADD, extra)]
    assert strabon.ask(
        "ASK { <http://example.org/hotspot/99> ?p ?o }"
    )

    recovered = DurableStore(
        str(tmp_path / "durable"), graph=Strabon().graph, fsync="never"
    )
    try:
        assert set(recovered.graph.triples()) == expected_triples
    finally:
        recovered.close()
