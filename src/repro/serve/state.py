"""Snapshot publication: the hand-off point between writer and readers.

The monitoring service is a single-writer system — one thread ingests
acquisitions and runs the semantic refinement (six paper operations,
nine when federated) against the live
Strabon store.  The serving layer must never expose that store directly:
mid-refinement the graph holds *torn* state (hotspots stored but not yet
municipality-tagged, sea hotspots not yet deleted, survivors not yet
confirmation-marked).  Instead the writer **publishes** an immutable
:class:`~repro.stsparql.SnapshotView` after each acquisition's
refinement completes, and every read request — HTTP or in-process —
executes against the latest *published* snapshot.

:class:`SnapshotPublisher` is that hand-off: a tiny thread-safe holder
whose :meth:`publish` swap is atomic (one reference assignment under a
lock) and whose :meth:`latest` never blocks on the writer.  Readers that
grabbed an older snapshot keep a fully consistent view for as long as
they hold it — publication never invalidates an in-flight read.

A publication also carries the ``/v1/hotspots`` read model — its
:class:`~repro.serve.hotspots.HotspotTable` — built on the writer
thread before the swap, so the table and the view a reader gets always
describe the same state.  Beside it sits ``answers``, the memo of the
encoded ``/v1/stsparql`` SELECT answers this state has given: the state
never changes, so an answer stays right for as long as the publication
lives, and nothing ever invalidates it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional

from repro.obs import get_metrics, get_tracer
from repro.perf.lru import LRUCache
from repro.serve.hotspots import HotspotTable
from repro.serve.subscribe import DeltaBatch
from repro.stsparql import SnapshotView, Strabon

_metrics = get_metrics()
_tracer = get_tracer()

#: Bytes of encoded SELECT answers (query text and params included) one
#: publication keeps; the least recently used answer goes first.  The
#: 72 Figure-6 overlay answers of a ``crisis_ingest`` read phase total
#: ~0.4 MB.
ANSWER_MEMO_BYTES = 4 << 20
#: An answer larger than this is never kept, so one huge read cannot
#: flush every overlay.
ANSWER_MEMO_LARGEST = ANSWER_MEMO_BYTES // 8


def _answer_weight(key: tuple, document: bytes) -> int:
    text, params = key
    return len(text) + len(params) + len(document)


def _answer_memo() -> LRUCache:
    """An empty memo of encoded SELECT answers, keyed by (query text,
    canonical params); bounded by :data:`ANSWER_MEMO_BYTES` alone
    (every entry weighs at least one byte, so the entry bound never
    binds first)."""
    return LRUCache(
        ANSWER_MEMO_BYTES,
        maxbytes=ANSWER_MEMO_BYTES,
        sizeof=_answer_weight,
    )


@dataclass(frozen=True)
class ConsistencyToken:
    """An opaque, comparable consistency token for served responses.

    One part per shard — ``(sequence, generation)`` of the published
    snapshot that answered — so a single-server token has one part and
    a routed (scatter-gather) token has one part per consulted shard.
    The wire form is versioned and human-readable::

        v1:12.340            one server:  sequence 12, generation 340
        v1:12.340-12.17-9.0  three shards

    Tokens over the *same* topology are partially ordered:
    :meth:`is_behind` is componentwise — a client that stored a token
    can assert the service never travels backwards in time, shard by
    shard, across restarts (publishers reseed their sequence counters
    on recovery precisely to keep this holding).
    """

    parts: tuple

    @classmethod
    def single(cls, sequence: int, generation: int) -> "ConsistencyToken":
        return cls(((int(sequence), int(generation)),))

    @classmethod
    def decode(cls, text: str) -> "ConsistencyToken":
        if not text.startswith("v1:"):
            raise ValueError(f"unversioned consistency token: {text!r}")
        try:
            parts = tuple(
                (int(seq), int(gen))
                for seq, gen in (
                    chunk.split(".") for chunk in text[3:].split("-")
                )
            )
        except ValueError:
            raise ValueError(f"malformed consistency token: {text!r}")
        if not parts:
            raise ValueError(f"empty consistency token: {text!r}")
        return cls(parts)

    def encode(self) -> str:
        return "v1:" + "-".join(f"{s}.{g}" for s, g in self.parts)

    def is_behind(self, other: "ConsistencyToken") -> bool:
        """True when *every* part of ``self`` is <= the matching part
        of ``other`` and at least one is strictly older.  Tokens from
        different topologies (part counts) are incomparable and raise."""
        if len(self.parts) != len(other.parts):
            raise ValueError(
                "tokens from different shard topologies are incomparable"
            )
        if any(
            s > o for (s, _), (o, _) in zip(self.parts, other.parts)
        ):
            return False
        return self.parts != other.parts


@dataclass(frozen=True)
class PublishedSnapshot:
    """One immutable published state of the hotspot store.

    ``sequence`` increases by one per publication; ``generation`` is the
    live graph's mutation counter at the instant of publication.  Both
    are monotonic, so a reader can detect (and a test can assert) that
    it never travels backwards in time.
    """

    view: SnapshotView
    sequence: int
    generation: int
    #: The served hotspots of this state (``/v1/hotspots`` filters it).
    hotspots: HotspotTable = field(repr=False, compare=False)
    #: Encoded SPARQL-JSON documents of the SELECTs this state answered
    #: over ``/v1/stsparql`` (see :func:`_answer_memo`).  Lock-safe: two
    #: servers on two loops may answer from one publication.
    answers: LRUCache = field(
        default_factory=_answer_memo, repr=False, compare=False
    )
    #: Acquisition timestamp that triggered this publication (None for
    #: the initial — auxiliary-data-only — publication).
    timestamp: Optional[datetime] = None
    #: ``time.monotonic()`` at publication, for staleness metrics.
    published_monotonic: float = field(default=0.0)
    #: Trace id of the acquisition that published this snapshot (None
    #: when tracing was off) — readers expose it as provenance, linking
    #: any served result back to the trace that produced the data.
    trace_id: Optional[str] = None
    #: Per-source federation reports for the publishing acquisition
    #: (tuple of plain dicts; empty without a federation).  This is how
    #: an outage gap reaches readers: the snapshot still serves, and
    #: its provenance names the missing feed.
    sources: tuple = ()

    def __len__(self) -> int:
        return len(self.view.snapshot)


class SnapshotPublisher:
    """Single-writer / many-reader atomic snapshot hand-off.

    ``start_sequence`` seeds the sequence counter: a recovered service
    passes the highest sequence readers may already have observed
    before the crash, so publication numbering stays monotonic across
    process restarts (a polling reader never sees it regress).
    """

    def __init__(self, start_sequence: int = 0) -> None:
        if start_sequence < 0:
            raise ValueError("start_sequence must be >= 0")
        self._lock = threading.Lock()
        self._latest: Optional[PublishedSnapshot] = None
        self._sequence = start_sequence
        self._changed = threading.Condition(self._lock)
        self._subscribers: list = []

    def subscribe(self, callback) -> None:
        """Register ``callback(published)`` to run after every publish.

        Callbacks run on the writer thread, *outside* the publisher
        lock (readers are never blocked by a slow subscriber), in
        registration order.  The sharded serving tier subscribes its
        repartitioner here so every main publication fans out to the
        per-shard publishers.

        Callbacks are **isolated**: one raising never prevents the
        publication, the remaining callbacks (the sharded lockstep
        republish among them), or future publications — the error is
        counted and flight-recorded instead.
        """
        with self._lock:
            self._subscribers.append(callback)

    def publish(
        self,
        strabon: Strabon,
        timestamp: Optional[datetime] = None,
        trace_id: Optional[str] = None,
        sources: tuple = (),
        delta: Optional[DeltaBatch] = None,
    ) -> PublishedSnapshot:
        """Freeze the engine's current state and make it the latest.

        Must be called from the writer thread only (snapshotting races
        with mutation otherwise — the graph itself is single-writer).
        The snapshot/view creation is O(1): the copy-on-write graph
        hands out borrowed indexes, and the engine reuses the view when
        the generation is unchanged (an acquisition that refined zero
        hotspots republishes the same frozen structures).

        ``delta`` names every subject changed since the previous
        publication (the commit's drained
        :class:`~repro.serve.subscribe.DeltaBatch`); with it the
        hotspot table is the previous one updated for those subjects,
        without it the table is built in full.
        """
        view = strabon.snapshot_view()
        with _tracer.span("publish.hotspot_table") as span:
            hotspots = HotspotTable.for_publication(
                view, self.latest(), delta
            )
            span.set(features=len(hotspots))
        with self._changed:
            self._sequence += 1
            published = PublishedSnapshot(
                view=view,
                sequence=self._sequence,
                generation=view.generation,
                hotspots=hotspots,
                timestamp=timestamp,
                published_monotonic=time.monotonic(),
                trace_id=trace_id,
                sources=tuple(sources),
            )
            self._latest = published
            self._changed.notify_all()
            subscribers = list(self._subscribers)
        for callback in subscribers:
            try:
                callback(published)
            except Exception as error:  # noqa: BLE001 — isolation
                # A broken subscriber must not break the publication,
                # the callbacks after it (the sharded repartitioner
                # subscribes here), or the writer itself.
                from repro.obs import get_flight_recorder

                get_flight_recorder().record(
                    "error",
                    "publish.subscriber",
                    sequence=published.sequence,
                    trace_id=trace_id,
                    error=f"{type(error).__name__}: {error}",
                )
                if _metrics.enabled:
                    _metrics.counter(
                        "serve_subscriber_errors_total",
                        "Publish subscriber callbacks that raised",
                    ).inc()
        if _metrics.enabled:
            gauge = _metrics.gauge(
                "serve_snapshot_info",
                "Latest published snapshot (sequence / generation / size)",
            )
            gauge.set(published.sequence, field="sequence")
            gauge.set(published.generation, field="generation")
            gauge.set(len(published), field="triples")
        return published

    def latest(self) -> Optional[PublishedSnapshot]:
        """The most recently published snapshot (never blocks long —
        the lock is only ever held for a reference swap)."""
        with self._lock:
            return self._latest

    def require_latest(self) -> PublishedSnapshot:
        """Like :meth:`latest` but raising when nothing is published."""
        latest = self.latest()
        if latest is None:
            raise LookupError("no snapshot has been published yet")
        return latest

    @property
    def sequence(self) -> int:
        with self._lock:
            return self._sequence

    def wait_for(
        self, sequence: int, timeout: Optional[float] = None
    ) -> Optional[PublishedSnapshot]:
        """Block until a snapshot with ``sequence`` or later is
        published; returns it (or None on timeout).  Test/ops helper —
        the serving path itself never waits."""
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._changed:
            while self._latest is None or self._sequence < sequence:
                remaining = (
                    None
                    if deadline is None
                    else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._changed.wait(remaining)
            return self._latest

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        latest = self.latest()
        if latest is None:
            return "<SnapshotPublisher (nothing published)>"
        return (
            f"<SnapshotPublisher seq={latest.sequence} "
            f"generation={latest.generation}>"
        )
