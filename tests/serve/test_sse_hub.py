"""``SseHub.deliver``: frames only for the subscriptions that stream,
byte-identical live and on resume."""

from __future__ import annotations

import asyncio

import pytest

from repro.durable.cursors import NotificationBatch
from repro.geometry import Envelope
from repro.serve import SnapshotPublisher, sse
from repro.serve.sse import SseHub, format_batch, frame_sequence
from repro.serve.subscribe import (
    Subscription,
    SubscriptionEngine,
    delta_from_ops,
)
from repro.stsparql import Strabon

from tests.serve.subscription_oracle import add_many


def _batch(streamed: int, others: int) -> NotificationBatch:
    refs = [
        (sub, "filter", n)
        for n in range(3)
        for sub in ("watched", "also-watched")[:streamed]
    ]
    refs += [(f"quiet-{n}", "filter", 0) for n in range(others)]
    return NotificationBatch(
        sequence=7,
        wal_seq=None,
        subjects=tuple((f"h{n}", {"n": n}) for n in range(3)),
        refs=tuple(refs),
    )


def _drain(loop, channel):
    loop.run_until_complete(asyncio.sleep(0))
    frames = []
    while not channel.queue.empty():
        frames.append(channel.queue.get_nowait())
    return frames


@pytest.mark.parametrize("streamed", [1, 2])
def test_deliver_formats_only_streamed_notifications(streamed, monkeypatch):
    formatted = []
    real = sse.format_event

    def spy(doc, sequence, event="notification"):
        formatted.append(event)
        return real(doc, sequence, event)

    monkeypatch.setattr(sse, "format_event", spy)
    loop = asyncio.new_event_loop()
    try:
        hub = SseHub()
        channels = [
            hub.register(sub, loop)
            for sub in ("watched", "also-watched")[:streamed]
        ]
        counts, delivered = [], []
        for others in (0, 1000):
            formatted.clear()
            hub.deliver(_batch(streamed, others))
            counts.append(len(formatted))
            delivered.append([_drain(loop, ch) for ch in channels])
        # Three notifications per streamed subscription, plus the one
        # closing marker every channel shares.
        assert counts == [3 * streamed + 1] * 2
        # The same notification frames either way; only the marker's
        # batch size differs.
        assert [f[:-1] for f in delivered[0]] == [
            f[:-1] for f in delivered[1]
        ]
        for frames in delivered[1]:
            assert len(frames) == 4
            assert {frame_sequence(f) for f in frames} == {7}
            assert frames[-1].startswith(b"id: 7\nevent: batch\n")
            # The marker still counts the whole batch.
            total = 3 * streamed + 1000
            assert f'"notifications": {total}'.encode() in frames[-1]
    finally:
        loop.close()


# -- golden frames ---------------------------------------------------------

PREFIX = (
    "PREFIX noa: "
    "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)
WKT = "<http://strdf.di.uoa.gr/ontology#WKT>"

#: One filter geofence, one global filter, one standing query and one
#: FWI subscription, with fixed ids so the frames are reproducible.
GOLDEN_SUBS = (
    Subscription(
        id="geo-a", kind="filter", bbox=Envelope(23.0, 37.0, 24.0, 39.0)
    ),
    Subscription(id="geo-b", kind="filter", min_confidence=0.5),
    Subscription(
        id="query-c",
        kind="stsparql",
        query=PREFIX
        + "SELECT ?h WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c . "
        + 'FILTER(?c >= "0.7") }',
    ),
    Subscription(id="fwi-d", kind="fwi", min_class=0),
)

#: Each subscription's SSE bytes for the fixed commit, captured from
#: the per-notification batch layout: the reference layout must render
#: them byte for byte, live and resumed.
GOLDEN_FRAMES = {
    "geo-a": (
        b'id: 2\nevent: notification\ndata: {"kind": "filter", "payload": {"acquired": "2007-08-25T12:15:00", "confidence": 0.9, "confirmed": true, "lat": 38.0, "lon": 23.5, "municipality": "http://example.org/muni/A", "sources": []}, "sequence": 2, "subject": "http://example.org/hotspot/1", "subscription": "geo-a"}\n\n'
        b'id: 2\nevent: notification\ndata: {"kind": "filter", "payload": {"acquired": "2007-08-25T12:15:00", "confidence": 0.95, "confirmed": null, "lat": 37.5, "lon": 23.25, "municipality": "http://example.org/muni/A", "sources": []}, "sequence": 2, "subject": "http://example.org/hotspot/3", "subscription": "geo-a"}\n\n'
        b'id: 2\nevent: batch\ndata: {"notifications": 8, "sequence": 2}\n\n'
    ),
    "geo-b": (
        b'id: 2\nevent: notification\ndata: {"kind": "filter", "payload": {"acquired": "2007-08-25T12:15:00", "confidence": 0.9, "confirmed": true, "lat": 38.0, "lon": 23.5, "municipality": "http://example.org/muni/A", "sources": []}, "sequence": 2, "subject": "http://example.org/hotspot/1", "subscription": "geo-b"}\n\n'
        b'id: 2\nevent: notification\ndata: {"kind": "filter", "payload": {"acquired": "2007-08-25T12:15:00", "confidence": 0.6, "confirmed": null, "lat": 38.5, "lon": 25.0, "municipality": "http://example.org/muni/A", "sources": []}, "sequence": 2, "subject": "http://example.org/hotspot/2", "subscription": "geo-b"}\n\n'
        b'id: 2\nevent: notification\ndata: {"kind": "filter", "payload": {"acquired": "2007-08-25T12:15:00", "confidence": 0.95, "confirmed": null, "lat": 37.5, "lon": 23.25, "municipality": "http://example.org/muni/A", "sources": []}, "sequence": 2, "subject": "http://example.org/hotspot/3", "subscription": "geo-b"}\n\n'
        b'id: 2\nevent: batch\ndata: {"notifications": 8, "sequence": 2}\n\n'
    ),
    "query-c": (
        b'id: 2\nevent: notification\ndata: {"kind": "stsparql", "payload": {"acquired": "2007-08-25T12:15:00", "confidence": 0.9, "confirmed": true, "lat": 38.0, "lon": 23.5, "municipality": "http://example.org/muni/A", "sources": []}, "sequence": 2, "subject": "http://example.org/hotspot/1", "subscription": "query-c"}\n\n'
        b'id: 2\nevent: notification\ndata: {"kind": "stsparql", "payload": {"acquired": "2007-08-25T12:15:00", "confidence": 0.95, "confirmed": null, "lat": 37.5, "lon": 23.25, "municipality": "http://example.org/muni/A", "sources": []}, "sequence": 2, "subject": "http://example.org/hotspot/3", "subscription": "query-c"}\n\n'
        b'id: 2\nevent: batch\ndata: {"notifications": 8, "sequence": 2}\n\n'
    ),
    "fwi-d": (
        b'id: 2\nevent: notification\ndata: {"kind": "fwi", "payload": {"danger_class": "high", "municipality": "http://example.org/muni/A", "previous_class": "low"}, "sequence": 2, "subject": "http://example.org/muni/A", "subscription": "fwi-d"}\n\n'
        b'id: 2\nevent: batch\ndata: {"notifications": 8, "sequence": 2}\n\n'
    ),
}


def _golden_batch(state_dir=None):
    """The fixed commit: three hotspots in one municipality (one outside
    the geofence, one below the query's floor), enough summed
    confidence to move its danger class."""
    strabon = Strabon()
    publisher = SnapshotPublisher()
    engine = SubscriptionEngine(state_dir=state_dir)
    engine.bind(strabon, publisher)
    strabon.graph.start_journal()
    publisher.publish(strabon)
    add_many(engine.registry, GOLDEN_SUBS)
    rows = []
    spots = ((23.5, 38.0, 0.9), (25.0, 38.5, 0.6), (23.25, 37.5, 0.95))
    for n, (lon, lat, confidence) in enumerate(spots, 1):
        s = f"<http://example.org/hotspot/{n}>"
        rows += [
            f"{s} a noa:Hotspot .",
            f'{s} strdf:hasGeometry "POINT ({lon} {lat})"^^{WKT} .',
            f'{s} noa:hasConfidence "{confidence}" .',
            f"{s} noa:isInMunicipality <http://example.org/muni/A> .",
            f'{s} noa:hasAcquisitionDateTime "2007-08-25T12:15:00" .',
        ]
    rows.append(
        "<http://example.org/hotspot/1> noa:hasConfirmation noa:confirmed ."
    )
    strabon.update(PREFIX + "INSERT DATA {\n" + "\n".join(rows) + "\n}")
    batch = engine.process_commit(
        2, delta_from_ops(strabon.graph.drain_journal())
    )
    engine.close()
    return batch


def test_frames_match_the_golden_bytes_live_and_resumed(tmp_path):
    state_dir = str(tmp_path / "subs")
    batch = _golden_batch(state_dir)
    loop = asyncio.new_event_loop()
    try:
        hub = SseHub()
        channels = {
            sub.id: hub.register(sub.id, loop) for sub in GOLDEN_SUBS
        }
        hub.deliver(batch)
        live = {
            sub_id: b"".join(_drain(loop, channel))
            for sub_id, channel in channels.items()
        }
    finally:
        loop.close()
    assert live == GOLDEN_FRAMES
    # Resume renders the same bytes, from the batch in memory and from
    # the record the notification log replays after a restart.
    reopened = SubscriptionEngine(state_dir=state_dir)
    try:
        (logged,) = reopened.replay_after(0)
    finally:
        reopened.close()
    for source in (batch, logged):
        assert {
            sub.id: b"".join(format_batch(source, subscription_id=sub.id))
            for sub in GOLDEN_SUBS
        } == GOLDEN_FRAMES
