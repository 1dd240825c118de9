"""The HTTP serving endpoint, end to end over a real service."""

from __future__ import annotations

import asyncio
import http.client
import json
import logging
import socket
import threading
import time

import pytest

from tests.serve.conftest import EXTRA
from repro.serve import ServeClient, serve_in_thread
from repro.serve.http import MAX_BODY_BYTES, READ_DEADLINE_S

PREFIX = (
    "PREFIX noa: "
    "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
)
SELECT = PREFIX + (
    "SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c }"
)


@pytest.fixture(scope="module")
def server(served_service):
    with serve_in_thread(served_service) as handle:
        yield handle


def _request(handle, method, path, body=None, timeout=30):
    host, port = handle.address
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    if response.getheader("Content-Type", "").startswith(
        "application/json"
    ):
        return response.status, json.loads(data)
    return response.status, data.decode("utf-8", errors="replace")


def test_hotspots_returns_geojson_with_provenance(server):
    status, collection = _request(server, "GET", "/v1/hotspots")
    assert status == 200
    assert collection["type"] == "FeatureCollection"
    assert len(collection["features"]) > 0
    assert collection["snapshot"]["sequence"] >= 1
    assert collection["snapshot"]["generation"] > 0
    for feature in collection["features"]:
        assert feature["geometry"]["type"]
        props = feature["properties"]
        assert props["hotspot"].startswith("http")
        assert props["confidence"] is not None
        # Published snapshots are post-refinement: every hotspot is
        # confirmation-marked.
        assert props["confirmation"] in ("confirmed", "unconfirmed")


def test_hotspots_filters_compose(server):
    _, everything = _request(server, "GET", "/v1/hotspots")
    total = len(everything["features"])
    _, confident = _request(
        server, "GET", "/v1/hotspots?min_confidence=0.9"
    )
    assert len(confident["features"]) <= total
    for feature in confident["features"]:
        assert feature["properties"]["confidence"] >= 0.9
    _, boxed = _request(server, "GET", "/v1/hotspots?bbox=20,34,29,42")
    assert len(boxed["features"]) <= total
    _, nowhere = _request(server, "GET", "/v1/hotspots?bbox=0,0,1,1")
    assert nowhere["features"] == []
    _, confirmed = _request(server, "GET", "/v1/hotspots?confirmed=true")
    _, unconfirmed = _request(
        server, "GET", "/v1/hotspots?confirmed=false"
    )
    assert (
        len(confirmed["features"]) + len(unconfirmed["features"])
        == total
    )
    _, windowed = _request(
        server,
        "GET",
        "/v1/hotspots?since=2007-08-24T13:15:00&until=2007-08-24T13:15:00",
    )
    for feature in windowed["features"]:
        assert feature["properties"]["acquired"] == (
            "2007-08-24T13:15:00"
        )
    # since/until compare instants, not strings: a trailing Z or an
    # explicit offset names the same (or a shifted) UTC instant.
    first, second = sorted(
        {f["properties"]["acquired"] for f in everything["features"]}
    )[:2]
    assert (first, second) == ("2007-08-24T13:00:00", "2007-08-24T13:15:00")

    def count(params):
        status, collection = _request(server, "GET", "/v1/hotspots?" + params)
        assert status == 200, collection
        return len(collection["features"])

    naive = count("since=2007-08-24T13:00:00")
    assert naive == total
    assert count("since=2007-08-24T13:00:00Z") == naive
    assert count("since=2007-08-24T13:00:00%2B00:00") == naive
    assert count("since=2007-08-24T14:00:00%2B01:00") == naive
    assert count("since=2007-08-24T13:00:00.000-00:00") == naive
    later = count("since=2007-08-24T13:15:00")
    assert 0 < later < naive
    assert count("since=2007-08-24T13:00:01Z") == later
    assert count("until=2007-08-24T13:00:00Z") == naive - later
    assert count("until=2007-08-24T12:00:00-01:00") == naive - later


@pytest.mark.parametrize(
    "filters, params",
    [
        ({"static": True}, "static=true"),
        ({"confirmed": True, "static": False}, "confirmed=true&static=false"),
    ],
)
def test_client_hotspots_sends_static_filter(server, filters, params):
    status, raw = _request(server, "GET", "/v1/hotspots?" + params)
    assert status == 200
    got = ServeClient.for_handle(server).hotspots(**filters)
    # Each request stamps its own trace id; everything else is equal.
    for doc in (raw, got):
        doc["provenance"].pop("request_trace_id")
    assert got == raw


def test_hotspots_rejects_malformed_filters(server):
    status, body = _request(server, "GET", "/v1/hotspots?bbox=1,2,3")
    assert status == 400 and "bbox" in body["error"]
    status, _ = _request(server, "GET", "/v1/hotspots?bbox=9,9,1,1")
    assert status == 400
    status, _ = _request(
        server, "GET", "/v1/hotspots?min_confidence=high"
    )
    assert status == 400
    status, _ = _request(server, "GET", "/v1/hotspots?confirmed=maybe")
    assert status == 400
    for params in (
        "since=garbage",
        "since=2007-08-24",
        "since=2007-13-01T00:00:00",
        "until=2007-08-24T13:15:00%2B1",
        "min_confidence=nan",
        "min_confidence=inf",
        "bbox=nan,nan,nan,nan",
        "bbox=20,34,inf,42",
    ):
        status, body = _request(server, "GET", "/v1/hotspots?" + params)
        assert status == 400, (params, body)
        assert body["error"]


def test_hotspots_read_makes_no_engine_call(server, monkeypatch):
    """/v1/hotspots filters the publication's hotspot table: a read
    never reaches the stSPARQL engine."""
    from repro.stsparql import SnapshotView

    calls = []
    real = SnapshotView.query

    def spy(self, *args, **kwargs):
        calls.append(args[:1])
        return real(self, *args, **kwargs)

    monkeypatch.setattr(SnapshotView, "query", spy)
    for path in (
        "/v1/hotspots",
        "/v1/hotspots?bbox=20,34,29,42&min_confidence=0.1",
        "/v1/hotspots?since=2007-08-24T13:15:00Z&confirmed=true",
    ):
        status, collection = _request(server, "GET", path)
        assert status == 200
    assert collection["features"]
    assert calls == []
    # The spy is live: the stSPARQL endpoint does reach it.
    status, _ = _request(server, "POST", "/v1/stsparql", SELECT)
    assert status == 200
    assert len(calls) == 1


def test_stsparql_select_and_refused_update(server):
    status, result = _request(server, "POST", "/v1/stsparql", SELECT)
    assert status == 200
    assert len(result["results"]["bindings"]) > 0
    assert result["snapshot"]["sequence"] >= 1
    # JSON envelope works too.
    status, wrapped = _request(
        server, "POST", "/v1/stsparql", json.dumps({"query": SELECT})
    )
    assert status == 200
    assert wrapped["results"] == result["results"]
    status, refusal = _request(
        server,
        "POST",
        "/v1/stsparql",
        PREFIX + "INSERT DATA { noa:evil a noa:Hotspot . }",
    )
    assert status == 403
    assert "read-only" in refusal["error"]
    status, bad = _request(server, "POST", "/v1/stsparql", "SELEKT oops")
    assert status == 400
    status, empty = _request(server, "POST", "/v1/stsparql", "")
    assert status == 400


def test_stsparql_explain_returns_plan(server):
    status, plan = _request(
        server,
        "POST",
        "/v1/stsparql",
        json.dumps({"query": SELECT, "explain": True}),
    )
    assert status == 200
    assert plan["operation"] == "select"
    assert plan["rows"] > 0
    bgp = plan["plan"][0]
    assert bgp["operator"] == "bgp"
    assert len(bgp["join_order"]) == len(bgp["estimates"]) == 2
    # Explain responses carry the same snapshot provenance as results.
    assert plan["snapshot"]["sequence"] >= 1


@pytest.mark.parametrize(
    "document",
    [
        {"query": 123},
        {"query": ["SELECT"]},
        {"query": SELECT, "timeout_s": "nan"},
        {"query": SELECT, "timeout_s": 1e999},  # JSON Infinity
        {"query": SELECT, "timeout_s": True},
        {"query": SELECT, "timeout_s": 0},
        {"query": SELECT, "params": {"c": {"no": "such term"}}},
        # Sequences of params mappings are in-process only.
        {"query": SELECT, "params": [{"c": 0.5}]},
    ],
)
def test_stsparql_rejects_malformed_bodies_with_400(server, document):
    status, answer = _request(
        server, "POST", "/v1/stsparql", json.dumps(document)
    )
    assert status == 400, answer


#: A cross product of every geometry holder with every other, filtered
#: per pair by a polygon union: far more work than any read deadline.
CROSS = PREFIX + (
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
    "SELECT ?a ?b WHERE { ?a strdf:hasGeometry ?g . "
    "?b strdf:hasGeometry ?h . "
    "FILTER(strdf:area(strdf:union(?g, ?h)) > 0) }"
)


@pytest.mark.parametrize("timeout_s", [None, 0.2])
def test_an_overrunning_read_answers_408_without_stalling_the_loop(
    server, timeout_s
):
    """The read runs on the event loop under min(timeout_s,
    READ_DEADLINE_S): it answers 408 by then, and a /v1/hotspots read on
    another connection, queued behind it, completes by then too."""
    budget = READ_DEADLINE_S if timeout_s is None else timeout_s
    body = {"query": CROSS}
    if timeout_s is not None:
        body["timeout_s"] = timeout_s
    answers = {}

    def timed(key, method, path, payload=None):
        started = time.perf_counter()
        answer = _request(server, method, path, payload)
        answers[key] = (answer, time.perf_counter() - started)

    reader = threading.Thread(
        target=timed,
        args=("cross", "POST", "/v1/stsparql", json.dumps(body)),
        daemon=True,
    )
    reader.start()
    time.sleep(0.05)
    timed("hotspots", "GET", "/v1/hotspots")
    reader.join(timeout=30)
    assert not reader.is_alive()
    (status, error), elapsed = answers["cross"]
    assert status == 408, error
    assert "QueryTimeoutError" in error["error"]
    assert elapsed <= budget + 0.25
    (status, collection), elapsed = answers["hotspots"]
    assert status == 200 and collection["features"]
    assert elapsed <= budget + 0.25


def test_stsparql_ignores_unknown_body_fields(server):
    status, result = _request(
        server,
        "POST",
        "/v1/stsparql",
        json.dumps({"query": SELECT, "engine": "quantum", "x": 1}),
    )
    assert status == 200
    assert len(result["results"]["bindings"]) > 0


def test_health_reflects_service_state(server, served_service):
    status, health = _request(server, "GET", "/v1/health")
    assert status == 200
    assert health["status"] in ("ok", "degraded")
    assert health["deadline_misses"] == 0
    assert health["acquisitions"]["ok"] >= 2
    assert health["circuit_breaker"] in (
        "closed", "open", "half-open"
    )
    assert health["dead_letters"] == 0
    assert health["snapshot"]["sequence"] >= 1
    assert health["snapshot"]["triples"] > 0
    # The HTTP layer adds only the normalised provenance block on top
    # of the service's own health document.
    provenance = health.pop("provenance")
    assert provenance["api"] == "v1"
    assert provenance["token"].startswith("v1:")
    assert health == json.loads(json.dumps(served_service.health()))


def test_metrics_and_unknown_routes(server):
    status, text = _request(server, "GET", "/v1/metrics")
    assert status == 200
    assert isinstance(text, str)
    status, _ = _request(server, "GET", "/v1/no-such-endpoint")
    assert status == 404
    status, _ = _request(server, "POST", "/v1/hotspots")
    assert status == 405
    status, _ = _request(server, "GET", "/v1/stsparql")
    assert status == 405


def test_reads_do_not_queue_behind_a_busy_read_pool(served_service):
    """/v1/hotspots and /v1/stsparql are answered on the event loop:
    with every pool worker held, both still complete, while a
    subscription write (which fsyncs) waits for a free worker."""
    gate = threading.Event()
    held = threading.Barrier(3)

    def hold():
        held.wait(timeout=10)
        gate.wait(timeout=30)

    with serve_in_thread(served_service, read_workers=2) as handle:
        try:
            for _ in range(2):
                handle.server._executor.submit(hold)
            held.wait(timeout=10)  # both workers are now blocked

            status, collection = _request(
                handle, "GET", "/v1/hotspots", timeout=5
            )
            assert status == 200
            assert collection["features"]
            status, answer = _request(
                handle, "POST", "/v1/stsparql", SELECT, timeout=5
            )
            assert status == 200
            assert answer["results"]["bindings"]

            answered = []
            writer = threading.Thread(
                target=lambda: answered.append(
                    _request(
                        handle,
                        "POST",
                        "/v1/subscriptions",
                        json.dumps({"kind": "filter"}),
                    )
                ),
                daemon=True,
            )
            writer.start()
            writer.join(timeout=0.5)
            assert writer.is_alive() and answered == []
        finally:
            gate.set()
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert answered and answered[0][0] == 201
        status, _ = _request(
            handle,
            "DELETE",
            f"/v1/subscriptions/{answered[0][1]['id']}",
        )
        assert status == 200


def test_stop_with_an_idle_keep_alive_client_is_quiet(served_service):
    """Stopping the server cancels a connection task parked between
    keep-alive requests; that cancellation must end the task quietly
    (no asyncio error log, nothing for the loop's exception handler)
    and still close the client's socket."""
    records = []

    class _Collect(logging.Handler):
        def emit(self, record):
            records.append(record)

    collector = _Collect(level=logging.DEBUG)
    asyncio_log = logging.getLogger("asyncio")
    asyncio_log.addHandler(collector)
    try:
        handle = serve_in_thread(served_service)
        contexts = []
        handle._loop.call_soon_threadsafe(
            handle._loop.set_exception_handler,
            lambda loop, context: contexts.append(context),
        )
        conn = http.client.HTTPConnection(*handle.address, timeout=10)
        try:
            conn.request("GET", "/v1/hotspots")
            response = conn.getresponse()
            assert response.status == 200
            response.read()  # the connection stays open, idle
            handle.stop()
            assert conn.sock.recv(1) == b""  # the server closed it
        finally:
            conn.close()
    finally:
        asyncio_log.removeHandler(collector)
    assert not handle._thread.is_alive()
    assert contexts == []
    assert [r.getMessage() for r in records] == []


def _raw_exchange(handle, data: bytes) -> bytes:
    """Send ``data`` on a fresh socket; everything the server answered
    before closing the connection."""
    chunks = []
    with socket.create_connection(handle.address, timeout=10) as sock:
        sock.sendall(data)
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except ConnectionResetError:
            # The server closed with request bytes it never read.
            pass
    return b"".join(chunks)


def _settle(handle) -> None:
    """Wait until the server loop has finished every connection task
    and run their done callbacks."""

    async def idle():
        me = asyncio.current_task()
        for _ in range(500):
            if not any(
                task is not me
                and task.get_coro().__qualname__.endswith(
                    "._handle_connection"
                )
                for task in asyncio.all_tasks()
            ):
                break
            await asyncio.sleep(0.01)
        await asyncio.sleep(0)

    asyncio.run_coroutine_threadsafe(idle(), handle._loop).result(
        timeout=10
    )


@pytest.mark.parametrize(
    "request_bytes, status",
    [
        (
            b"GET /v1/hotspots HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
            400,
        ),
        (
            b"GET /v1/hotspots HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
            400,
        ),
        (
            b"GET /v1/hotspots HTTP/1.1\r\nX-Pad: "
            + b"a" * (70 * 1024)
            + b"\r\n\r\n",
            400,
        ),
        (
            b"POST /v1/stsparql HTTP/1.1\r\nContent-Length: "
            + str(MAX_BODY_BYTES + 1).encode()
            + b"\r\n\r\n",
            413,
        ),
    ],
    ids=["non-numeric-length", "negative-length", "long-header", "big-body"],
)
def test_malformed_framing_is_answered_not_crashed(
    served_service, request_bytes, status
):
    """Framing the server cannot follow gets a status and a closed
    connection — never an exception escaping the connection task."""
    with serve_in_thread(served_service) as handle:
        unhandled = []
        handle._loop.set_exception_handler(
            lambda loop, context: unhandled.append(context)
        )
        answer = _raw_exchange(handle, request_bytes)
        _settle(handle)
        assert unhandled == []
        assert answer.startswith(f"HTTP/1.1 {status} ".encode()), answer
        head, _, body = answer.partition(b"\r\n\r\n")
        assert b"Connection: close" in head
        assert json.loads(body)["error"]
        # The server keeps serving.
        assert _request(handle, "GET", "/v1/hotspots")[0] == 200


def test_reads_never_observe_half_refined_state(
    server, served_service, serve_options
):
    """The serving layer's e2e guarantee: /v1/hotspots polled *during*
    run() never returns a hotspot missing its confirmation mark (the
    final refinement operation stamps every survivor), and the served
    snapshot never travels backwards."""
    errors = []

    def ingest():
        try:
            served_service.run(EXTRA, serve_options)
        except Exception as error:  # pragma: no cover
            errors.append(repr(error))

    writer = threading.Thread(target=ingest, daemon=True)
    observations = []
    torn = []
    writer.start()
    while writer.is_alive():
        status, collection = _request(server, "GET", "/v1/hotspots")
        assert status == 200
        for feature in collection["features"]:
            if feature["properties"]["confirmation"] is None:
                torn.append(feature["properties"]["hotspot"])
        observations.append(
            (
                collection["snapshot"]["sequence"],
                collection["snapshot"]["generation"],
            )
        )
        time.sleep(0.01)
    writer.join()
    assert not errors
    assert torn == []
    sequences = [seq for seq, _ in observations]
    generations = [gen for _, gen in observations]
    assert sequences == sorted(sequences)
    assert generations == sorted(generations)
    # The run really did publish while we were polling.
    final_sequence = served_service.publisher.sequence
    assert final_sequence >= len(EXTRA)
