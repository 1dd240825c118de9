"""The per-publication memo of encoded ``/v1/stsparql`` SELECT answers.

A publication keeps the SPARQL-JSON document of every SELECT it
answered, keyed by (query text, canonical ``params``): a repeat of a
key against the same publication is answered from those bytes, with no
engine call.  Most tests drive the handler in process
(:meth:`HotspotServer._dispatch`, the full response bytes without a
socket) over a stand-in service whose publisher serves a small store;
the concurrency test runs two real servers on that one service.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import re
import threading
import types

import pytest

from repro.rdf import Literal, NOA, RDF, XSD
from repro.rdf.namespace import STRDF
from repro.serve import SnapshotPublisher, serve_in_thread
from repro.serve.http import HotspotServer
from repro.serve.state import ANSWER_MEMO_BYTES, ANSWER_MEMO_LARGEST
from repro.stsparql import SnapshotView, Strabon

PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)
SELECT = PREFIX + (
    "SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c }"
)
#: Every pair of geometry holders, filtered per pair by a polygon
#: union: no deadline here lets it finish.
CROSS = PREFIX + (
    "SELECT ?a ?b WHERE { ?a strdf:hasGeometry ?g . "
    "?b strdf:hasGeometry ?h . "
    "FILTER(strdf:area(strdf:union(?g, ?h)) > 0) }"
)
_TRACE_ID = re.compile(rb'"request_trace_id": (null|"[^"]*")')


def _store(count: int = 24) -> Strabon:
    strabon = Strabon()
    for i in range(count):
        node = NOA.term(f"h{i}")
        strabon.add(node, RDF.type, NOA.term("Hotspot"))
        strabon.add(
            node,
            NOA.term("hasConfidence"),
            Literal(repr(i / count), datatype=XSD.base + "double"),
        )
        x, y = 20 + i % 7, 35 + i // 7
        strabon.add(
            node,
            STRDF.term("hasGeometry"),
            Literal(
                f"POLYGON (({x} {y}, {x + 1} {y}, {x + 1} {y + 1}, "
                f"{x} {y + 1}, {x} {y}))",
                datatype=STRDF.base + "WKT",
            ),
        )
    return strabon


@pytest.fixture
def service():
    """A stand-in service: a publisher over a 24-hotspot store."""
    strabon = _store()
    publisher = SnapshotPublisher()
    publisher.publish(strabon)
    return types.SimpleNamespace(publisher=publisher, strabon=strabon)


@pytest.fixture
def engine_calls(monkeypatch):
    """Each ``SnapshotView.query`` call's query text."""
    calls = []
    real = SnapshotView.query

    def spy(self, text, *args, **kwargs):
        calls.append(text)
        return real(self, text, *args, **kwargs)

    monkeypatch.setattr(SnapshotView, "query", spy)
    return calls


def _body(query: str, **fields) -> bytes:
    return json.dumps({"query": query, **fields}).encode("utf-8")


def _ask(server: HotspotServer, *bodies: bytes):
    """Each body's (status, response bytes), answered in process."""

    async def run():
        return [
            await server._dispatch("POST", "/v1/stsparql", {}, body)
            for body in bodies
        ]

    answers = []
    for response in asyncio.run(run()):
        head, _, payload = response.partition(b"\r\n\r\n")
        answers.append((int(head.split(b" ", 2)[1]), payload))
    return answers


def _without_trace_id(payload: bytes) -> bytes:
    return _TRACE_ID.sub(b'"request_trace_id": -', payload)


def test_a_hit_is_the_miss_bytes_with_its_own_tail(service, engine_calls):
    server = HotspotServer(service)
    (status, miss), (_, hit) = _ask(server, _body(SELECT), _body(SELECT))
    assert status == 200
    assert engine_calls == [SELECT]
    assert _without_trace_id(hit) == _without_trace_id(miss)
    doc = json.loads(hit)
    assert len(doc["results"]["bindings"]) == 24
    assert doc["provenance"]["sequence"] == doc["snapshot"]["sequence"]
    # Raw text and the JSON envelope are one key.
    assert _ask(server, SELECT.encode("utf-8"))[0][0] == 200
    assert engine_calls == [SELECT]
    stats = service.publisher.latest().answers.stats()
    assert (stats.hits, stats.misses, stats.size) == (2, 1, 1)


def test_the_request_trace_id_is_the_hits_own(service):
    from repro.obs import enable, get_tracer

    tracer = get_tracer()
    was = tracer.enabled
    enable()
    try:
        (_, miss), (_, hit) = _ask(
            HotspotServer(service), _body(SELECT), _body(SELECT)
        )
    finally:
        tracer.enabled = was
    ids = [json.loads(p)["provenance"]["request_trace_id"] for p in (miss, hit)]
    assert all(ids) and ids[0] != ids[1]
    assert _without_trace_id(hit) == _without_trace_id(miss)


def test_a_new_publication_and_other_params_miss(service, engine_calls):
    server = HotspotServer(service)
    query = PREFIX + (
        "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c }"
    )
    bodies = [
        _body(query),
        _body(query, params={"c": 0.5}),
        _body(query, params={"c": 0.25}),
        _body(query, params={"c": 0.5}),
        _body(query, timeout_s=0.5),  # the deadline is not in the key
    ]
    answers = _ask(server, *bodies)
    assert [status for status, _ in answers] == [200] * 5
    assert len(engine_calls) == 3
    assert len(json.loads(answers[1][1])["results"]["bindings"]) == 1
    first = service.publisher.latest()
    service.publisher.publish(service.strabon)
    second = service.publisher.latest()
    assert second is not first and len(second.answers) == 0
    (status, answer), = _ask(server, bodies[0])
    assert status == 200 and len(engine_calls) == 4
    assert json.loads(answer)["snapshot"]["sequence"] == second.sequence
    # The old publication keeps its answers for readers holding it.
    assert len(first.answers) == 3


def test_what_is_never_stored(service, engine_calls):
    server = HotspotServer(service)
    memo = service.publisher.latest().answers
    refused = [
        (_body(SELECT, explain=True), 200),
        (PREFIX.encode() + b"ASK { ?h a noa:Hotspot }", 200),
        (
            PREFIX.encode()
            + b"CONSTRUCT { ?h noa:seen ?c } WHERE "
            b"{ ?h noa:hasConfidence ?c }",
            200,
        ),
        (b"SELEKT oops", 400),
        (PREFIX.encode() + b"INSERT DATA { noa:evil a noa:Hotspot . }", 403),
        (_body(CROSS, timeout_s=1e-9), 408),
    ]
    for body, want in refused:
        for _ in range(2):
            (status, payload), = _ask(server, body)
            assert status == want, payload
    assert len(memo) == 0 and memo.nbytes == 0
    # Each one reached the engine both times.
    assert len(engine_calls) == 2 * len(refused)


def test_a_408_is_not_stored_and_a_longer_deadline_answers(
    service, engine_calls
):
    server = HotspotServer(service)
    (status, _), = _ask(server, _body(SELECT, timeout_s=1e-9))
    assert status == 408
    (status, answer), = _ask(server, _body(SELECT, timeout_s=1.0))
    assert status == 200
    # The stored answer is served within any deadline.
    (status, again), = _ask(server, _body(SELECT, timeout_s=1e-9))
    assert status == 200
    assert _without_trace_id(again) == _without_trace_id(answer)
    assert len(engine_calls) == 2


def test_distinct_texts_keep_the_memo_within_its_byte_budget(service):
    # Each text names a long IRI no triple holds, so 10 000 empty
    # answers, ~0.7 KB apiece with their key, weigh about 1.7 budgets.
    pad = "x" * 600
    bodies = [
        _body(
            PREFIX + "SELECT ?h WHERE "
            f"{{ ?h noa:hasConfidence <http://example.org/{pad}/{n}> }}"
        )
        for n in range(10_000)
    ]
    server = HotspotServer(service)
    answers = _ask(server, *bodies)
    assert all(status == 200 for status, _ in answers)
    memo = service.publisher.latest().answers
    assert 0 < memo.nbytes <= ANSWER_MEMO_BYTES
    stats = memo.stats()
    assert stats.misses == 10_000 and stats.evictions > 0
    assert stats.size + stats.evictions == 10_000
    # The most recent answers are the ones kept.
    assert _ask(server, bodies[-1])[0][0] == 200
    assert memo.stats().hits == 1


def test_an_answer_above_the_largest_share_is_never_kept(
    service, engine_calls
):
    # One hotspot label long enough that the answer outweighs the
    # share one answer may take.
    service.strabon.add(
        NOA.term("h0"), NOA.term("note"), Literal("y" * ANSWER_MEMO_LARGEST)
    )
    service.publisher.publish(service.strabon)
    query = PREFIX + "SELECT ?h ?n WHERE { ?h noa:note ?n }"
    answers = _ask(HotspotServer(service), _body(query), _body(query))
    assert [status for status, _ in answers] == [200, 200]
    assert len(answers[0][1]) > ANSWER_MEMO_LARGEST
    assert len(engine_calls) == 2
    assert len(service.publisher.latest().answers) == 0


def _post(handle, body: bytes):
    host, port = handle.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("POST", "/v1/stsparql", body=body)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def test_two_servers_share_one_publication_concurrently(service):
    texts = [
        PREFIX + "SELECT ?h ?c WHERE { ?h noa:hasConfidence ?c . "
        f"FILTER(?c >= {n / 16}) }}"
        for n in range(16)
    ]
    bodies = [_body(text) for text in texts] * 4
    answers = {}
    errors = []
    with serve_in_thread(service) as one, serve_in_thread(service) as two:

        def read(name, handle):
            try:
                answers[name] = [_post(handle, body) for body in bodies]
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=read, args=(name, handle))
            for name, handle in (("a", one), ("b", two), ("c", one))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not errors
    reference = [
        _without_trace_id(payload) for _, payload in answers["a"]
    ]
    for name in "abc":
        assert [status for status, _ in answers[name]] == [200] * len(bodies)
        assert [
            _without_trace_id(payload) for _, payload in answers[name]
        ] == reference
    memo = service.publisher.latest().answers
    assert len(memo) == len(texts)
    assert memo.stats().lookups == 3 * len(bodies)
