"""The subscription HTTP surface: /v1/subscriptions CRUD, SSE
streaming over /v1/stream, and cursor-based resume."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro import obs
from repro.serve import (
    ServeClient,
    ServeError,
    ShardManager,
    SnapshotPublisher,
    SseStream,
    SubscriptionEngine,
    SubscriptionError,
    serve_in_thread,
)
from repro.serve.router import RouterService
from repro.serve.subscribe import delta_from_ops
from repro.stsparql import Strabon

NOA = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#"
WKT = "http://strdf.di.uoa.gr/ontology#WKT"


class _StandIn:
    """The duck-typed minimum the subscription HTTP surface needs:
    a store, a publisher, and a bound engine."""

    def __init__(self, state_dir=None):
        self.strabon = Strabon()
        self.publisher = SnapshotPublisher()
        self.subscriptions = SubscriptionEngine(state_dir=state_dir)
        self.subscriptions.bind(self.strabon, self.publisher)
        self.strabon.graph.start_journal()
        self.publisher.publish(self.strabon)
        self._n = 0

    def health(self):
        return {"status": "ok", "mode": "teleios"}

    def ingest_one(self, confidence=0.8):
        """One hotspot in, committed through the engine exactly the
        way the service write path sequences it: the graph's journal
        is drained into the commit's delta."""
        self._n += 1
        subject = f"http://example.org/hotspot/{self._n}"
        lat = 38.0 + self._n * 0.01
        self.strabon.update(
            f"PREFIX noa: <{NOA}>\n"
            "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
            "INSERT DATA {\n"
            f"  <{subject}> a noa:Hotspot .\n"
            f'  <{subject}> strdf:hasGeometry "POINT (23.7 {lat})"'
            f"^^<{WKT}> .\n"
            f'  <{subject}> noa:hasConfidence "{confidence}" .\n'
            "}"
        )
        batch = self.subscriptions.process_commit(
            self.publisher.sequence + 1,
            delta_from_ops(self.strabon.graph.drain_journal()),
        )
        self.publisher.publish(self.strabon)
        self.subscriptions.publish_batch(batch)
        return subject


@pytest.fixture()
def standin(tmp_path):
    service = _StandIn(state_dir=str(tmp_path / "subs"))
    yield service
    service.subscriptions.close()


@pytest.fixture()
def handle(standin):
    with serve_in_thread(standin) as h:
        yield h


@pytest.fixture()
def client(handle):
    return ServeClient.for_handle(handle)


class TestCrud:
    def test_register_list_get_delete(self, client):
        doc = client.subscribe({"kind": "filter", "min_confidence": 0.5})
        sub_id = doc["id"]
        assert doc["kind"] == "filter"
        assert doc["cursor"] == 0

        listing = client.subscriptions()
        assert listing["count"] == 1
        assert listing["subscriptions"][0]["id"] == sub_id

        fetched = client.subscription(sub_id)
        assert fetched["id"] == sub_id

        removed = client.unsubscribe(sub_id)
        assert removed["removed"] == sub_id
        assert client.subscriptions()["count"] == 0

    def test_invalid_subscription_is_422(self, client):
        with pytest.raises(SubscriptionError, match="bbox"):
            client.subscribe({"kind": "filter", "bbox": [1, 2, 3]})
        with pytest.raises(SubscriptionError, match="kind"):
            client.subscribe({"kind": "teleport"})

    def test_non_finite_or_off_fragment_subscription_is_422(self, client):
        nan = float("nan")
        with pytest.raises(SubscriptionError, match="finite"):
            client.subscribe({"kind": "filter", "bbox": [nan] * 4})
        with pytest.raises(SubscriptionError, match="finite"):
            client.subscribe(
                {"kind": "filter", "bbox": [20, 36, float("inf"), 40]}
            )
        with pytest.raises(SubscriptionError, match="finite"):
            client.subscribe({"kind": "filter", "min_confidence": nan})
        with pytest.raises(SubscriptionError, match=r"\?h"):
            client.subscribe(
                {
                    "kind": "stsparql",
                    "query": f"PREFIX noa: <{NOA}>\n"
                    "SELECT ?hs WHERE { ?hs a noa:Hotspot }",
                }
            )
        assert client.subscriptions()["count"] == 0

    def test_unknown_subscription_is_404(self, client):
        with pytest.raises(ServeError) as exc:
            client.subscription("sub-nope")
        assert exc.value.status == 404
        with pytest.raises(ServeError) as exc:
            client.unsubscribe("sub-nope")
        assert exc.value.status == 404
        with pytest.raises(ServeError) as exc:
            client.ack("sub-nope", 3)
        assert exc.value.status == 404

    def test_ack_is_monotonic_over_http(self, client):
        sub_id = client.subscribe({"kind": "filter"})["id"]
        assert client.ack(sub_id, 4)["cursor"] == 4
        assert client.ack(sub_id, 2)["cursor"] == 4  # regression ignored
        assert client.subscription(sub_id)["cursor"] == 4

    def test_ack_sequence_must_be_a_non_negative_integer(self, client):
        sub_id = client.subscribe({"kind": "filter"})["id"]
        for sequence in ("true", "3.7", '"4"', "-1", "null"):
            conn = http.client.HTTPConnection(
                client.host, client.port, timeout=10
            )
            try:
                conn.request(
                    "POST",
                    f"/v1/subscriptions/{sub_id}/ack",
                    body=f'{{"sequence": {sequence}}}',
                )
                response = conn.getresponse()
                response.read()
            finally:
                conn.close()
            assert response.status == 400, sequence
        assert client.subscription(sub_id)["cursor"] == 0

    def test_a_read_completes_while_an_ack_is_saving(
        self, client, monkeypatch
    ):
        """The durable ack appends a registry-log record with an
        fsync; held, it must stall only its own request, not the event
        loop."""
        from repro.durable import cursors

        sub_id = client.subscribe({"kind": "filter"})["id"]
        saving, release = threading.Event(), threading.Event()
        append = cursors.RegistryLog._append

        def held_append(*args, **kwargs):
            saving.set()
            release.wait(timeout=30)
            return append(*args, **kwargs)

        monkeypatch.setattr(cursors.RegistryLog, "_append", held_append)
        acker = threading.Thread(target=client.ack, args=(sub_id, 3))
        acker.start()
        try:
            assert saving.wait(timeout=10)
            reader = ServeClient(client.host, client.port, timeout=5.0)
            assert reader.hotspots()["type"] == "FeatureCollection"
        finally:
            release.set()
            acker.join(timeout=30)
        assert not acker.is_alive()
        assert client.subscription(sub_id)["cursor"] == 3

    def test_interleaved_requests_each_root_their_own_span(
        self, standin, client, monkeypatch
    ):
        """A request held across its pool hop must not become the
        parent of a request the loop serves meanwhile."""
        registering, release = threading.Event(), threading.Event()
        register = standin.subscriptions.register

        def held_register(doc):
            registering.set()
            release.wait(timeout=30)
            return register(doc)

        monkeypatch.setattr(
            standin.subscriptions, "register", held_register
        )
        obs.disable()
        obs.reset()
        obs.enable()
        try:
            held = threading.Thread(
                target=client.subscribe, args=({"kind": "filter"},)
            )
            held.start()
            try:
                assert registering.wait(timeout=10)
                assert client.hotspots()["type"] == "FeatureCollection"
            finally:
                release.set()
                held.join(timeout=30)
            requests = [
                span
                for span in obs.get_tracer().spans()
                if span.name == "serve.request"
            ]
        finally:
            obs.disable()
            obs.reset()
        assert sorted(s.attributes["endpoint"] for s in requests) == [
            "hotspots",
            "subscriptions",
        ]
        assert [s.parent_id for s in requests] == [None, None]
        assert requests[0].trace_id != requests[1].trace_id

    def test_stream_route_requires_get(self, client):
        with pytest.raises(ServeError) as exc:
            client._request("POST", "/v1/stream", body=b"{}")
        assert exc.value.status == 405


class TestStream:
    def test_live_notifications_arrive_over_sse(
        self, standin, client
    ):
        sub_id = client.subscribe({"kind": "filter"})["id"]
        with client.stream(sub_id, cursor=0, timeout=30.0) as stream:
            subject = standin.ingest_one()
            notif = next(
                e for e in stream.events()
                if e["event"] == "notification"
            )
            assert notif["data"]["subject"] == subject
            assert notif["data"]["subscription"] == sub_id
            marker = next(stream.events())
            assert marker["event"] == "batch"
            assert marker["id"] == notif["id"]

    def test_resume_from_cursor_misses_nothing_duplicates_nothing(
        self, standin, client
    ):
        sub_id = client.subscribe({"kind": "filter"})["id"]
        first = standin.ingest_one()
        second = standin.ingest_one()

        # First connection: read the first batch only, ack it.
        with client.stream(sub_id, cursor=0) as stream:
            events = stream.events()
            notif = next(
                e for e in events if e["event"] == "notification"
            )
            assert notif["data"]["subject"] == first
            client.ack(sub_id, notif["id"])

        # Reconnect without a cursor: the durable cursor takes over
        # and only the unacknowledged batch replays.
        with client.stream(sub_id) as stream:
            events = stream.events()
            notif = next(
                e for e in events if e["event"] == "notification"
            )
            assert notif["data"]["subject"] == second
            marker = next(events)
            assert marker["event"] == "batch"

        # An explicit cursor query param overrides the durable one.
        with client.stream(sub_id, cursor=0) as stream:
            subjects = []
            for event in stream.events():
                if event["event"] == "notification":
                    subjects.append(event["data"]["subject"])
                elif event["id"] == standin.publisher.sequence:
                    break
            assert subjects == [first, second]

    def test_stream_errors(self, client, handle):
        with pytest.raises(ServeError) as exc:
            client.stream("sub-nope")
        assert exc.value.status == 404
        host, port = handle.address
        import http.client as hc

        conn = hc.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/v1/stream")  # no subscription param
            response = conn.getresponse()
            assert response.status == 400
            json.loads(response.read())
        finally:
            conn.close()

    def test_last_event_id_header_resumes(self, standin, client):
        sub_id = client.subscribe({"kind": "filter"})["id"]
        standin.ingest_one()
        second = standin.ingest_one()
        host, port = client.host, client.port
        stream = SseStream(
            host,
            port,
            sub_id,
            timeout=10.0,
            headers={"Last-Event-ID": "2"},
        )
        with stream:
            notif = next(
                e for e in stream.events()
                if e["event"] == "notification"
            )
            assert notif["data"]["subject"] == second


class TestTopologies:
    def test_router_exposes_base_engine(self, standin):
        manager = ShardManager(standin, shards=2)
        routed = RouterService(manager)
        assert routed.subscriptions is standin.subscriptions

    def test_service_without_engine_is_404(self):
        class _Bare:
            publisher = SnapshotPublisher()
            strabon = Strabon()
            subscriptions = None

            def health(self):
                return {"status": "ok"}

        _Bare.publisher.publish(_Bare.strabon)
        with serve_in_thread(_Bare()) as h:
            client = ServeClient.for_handle(h)
            with pytest.raises(ServeError) as exc:
                client.subscriptions()
            assert exc.value.status == 404
            with pytest.raises(ServeError) as exc:
                client.stream("sub-x")
            assert exc.value.status == 404
