"""Server-Sent Events delivery for subscription notifications.

The wire format is plain SSE (``text/event-stream``): one event per
notification, the event ``id`` carrying the publication sequence the
notification belongs to::

    id: 7
    event: notification
    data: {"subscription": "ab12...", "kind": "filter", ...}

followed by a ``batch`` event closing each publication's group (its
``data`` names the sequence and the batch size), so a client can
acknowledge at publication granularity — the granularity of the
durable cursor contract.  Comment lines (``: keep-alive``) are emitted
while idle so intermediaries do not reap the connection.

Threading: the writer thread (the monitoring service's publish path)
calls :meth:`SseHub.deliver`; connected channels live on the HTTP
server's asyncio loop.  The hub crosses that boundary with
``loop.call_soon_threadsafe`` — the writer never blocks on a slow
subscriber (a channel whose queue is full simply drops the event; the
client recovers the gap from the durable log on reconnect, which is
the same path as any other disconnection).
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Dict, List, Optional

from repro.durable.cursors import NotificationBatch

__all__ = [
    "SseChannel",
    "SseHub",
    "format_batch",
    "format_comment",
    "frame_sequence",
]

#: Events a channel buffers before the hub starts dropping (the client
#: resumes any gap from the log on reconnect).
CHANNEL_QUEUE_LIMIT = 1024


def format_event(
    doc: Dict, sequence: int, event: str = "notification"
) -> bytes:
    data = json.dumps(doc, sort_keys=True)
    return (
        f"id: {sequence}\nevent: {event}\ndata: {data}\n\n"
    ).encode("utf-8")


def format_batch(
    batch: NotificationBatch,
    subscription_id: Optional[str] = None,
) -> List[bytes]:
    """One publication's SSE frames — restricted to one subscription's
    notifications when ``subscription_id`` is given — plus the closing
    ``batch`` marker clients acknowledge on."""
    frames = [
        format_event(doc, batch.sequence)
        for doc in batch.notifications
        if subscription_id is None
        or doc.get("subscription") == subscription_id
    ]
    frames.append(
        format_event(
            {
                "sequence": batch.sequence,
                "notifications": len(batch.notifications),
            },
            batch.sequence,
            event="batch",
        )
    )
    return frames


def format_comment(text: str = "keep-alive") -> bytes:
    return f": {text}\n\n".encode("utf-8")


def frame_sequence(frame: bytes) -> Optional[int]:
    """The ``id:`` (publication sequence) of an SSE frame, or None for
    comments — the stream handler's replay/live dedupe key."""
    if not frame.startswith(b"id: "):
        return None
    try:
        return int(frame.split(b"\n", 1)[0][4:])
    except ValueError:
        return None


class SseChannel:
    """One connected subscriber: an asyncio queue on the server loop."""

    def __init__(
        self,
        subscription_id: str,
        loop: asyncio.AbstractEventLoop,
    ) -> None:
        self.subscription_id = subscription_id
        self.loop = loop
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=CHANNEL_QUEUE_LIMIT
        )
        self.dropped = 0

    def push_threadsafe(self, frame: bytes) -> None:
        """Enqueue from the writer thread; drops when full (the gap is
        recovered from the durable log on reconnect)."""

        def _put() -> None:
            try:
                self.queue.put_nowait(frame)
            except asyncio.QueueFull:
                self.dropped += 1

        try:
            self.loop.call_soon_threadsafe(_put)
        except RuntimeError:
            # The server loop is already closed — connection is dead.
            self.dropped += 1


class SseHub:
    """Routes notification batches to connected SSE channels.

    Registered as a listener on the
    :class:`~repro.serve.subscribe.SubscriptionEngine`; delivery is
    per-subscription — a channel only sees the notifications of the
    subscription it streams, plus that subscription's ``batch``
    markers (emitted even when the batch holds no matches for it, so
    the client's cursor can advance past quiet publications).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._channels: Dict[str, List[SseChannel]] = {}
        self._engine = None

    def attach(self, engine) -> None:
        """Listen on an engine (idempotent per hub)."""
        if self._engine is engine:
            return
        self._engine = engine
        engine.add_listener(self.deliver)

    def register(
        self,
        subscription_id: str,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> SseChannel:
        channel = SseChannel(
            subscription_id,
            loop if loop is not None else asyncio.get_running_loop(),
        )
        with self._lock:
            self._channels.setdefault(
                subscription_id, []
            ).append(channel)
        return channel

    def unregister(self, channel: SseChannel) -> None:
        with self._lock:
            channels = self._channels.get(
                channel.subscription_id, []
            )
            self._channels[channel.subscription_id] = [
                c for c in channels if c is not channel
            ]
            if not self._channels[channel.subscription_id]:
                del self._channels[channel.subscription_id]

    def connections(self) -> int:
        with self._lock:
            return sum(
                len(chs) for chs in self._channels.values()
            )

    def deliver(self, batch: NotificationBatch) -> None:
        """Writer-thread entry point: fan one batch out per channel."""
        with self._lock:
            live = {
                sub_id: list(channels)
                for sub_id, channels in self._channels.items()
            }
        if not live:
            return
        # Only streamed subscriptions' notifications are formatted: a
        # batch can hold thousands for subscriptions nobody streams.
        by_subscription: Dict[str, List[bytes]] = {
            sub_id: [] for sub_id in live
        }
        for doc in batch.notifications:
            frames = by_subscription.get(str(doc.get("subscription")))
            if frames is not None:
                frames.append(format_event(doc, batch.sequence))
        closing = format_event(
            {
                "sequence": batch.sequence,
                "notifications": len(batch.notifications),
            },
            batch.sequence,
            event="batch",
        )
        for sub_id, channels in live.items():
            frames = by_subscription[sub_id]
            for channel in channels:
                for frame in frames:
                    channel.push_threadsafe(frame)
                channel.push_threadsafe(closing)
