"""``SseHub.deliver``: frames only for the subscriptions that stream."""

from __future__ import annotations

import asyncio

import pytest

from repro.durable.cursors import NotificationBatch
from repro.serve import sse
from repro.serve.sse import SseHub, frame_sequence


def _batch(streamed: int, others: int) -> NotificationBatch:
    docs = [
        {"subscription": sub, "kind": "filter", "hotspot": f"h{n}"}
        for n in range(3)
        for sub in ("watched", "also-watched")[:streamed]
    ]
    docs += [
        {"subscription": f"quiet-{n}", "kind": "filter", "hotspot": "h"}
        for n in range(others)
    ]
    return NotificationBatch(
        sequence=7, wal_seq=None, notifications=tuple(docs)
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
