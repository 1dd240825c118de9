"""Durable subscriber state: notification log + acknowledged cursors.

The subscription engine (``repro.serve.subscribe``) must survive the
same crashes the store does, with the same contract: a subscriber that
acknowledged publication *S* and reconnects after a process restart
receives exactly the notifications of publications ``> S`` — no loss,
no duplicates.  Two small durable pieces make that hold:

* :class:`NotificationLog` — an append-only log of per-publication
  notification batches, framed by the same CRC'd
  :class:`~repro.durable.wal.WriteAheadLog` machinery as the triple
  WAL (torn tails are truncated on open, so a crash mid-append loses
  at most the un-fsynced tail record).  Each record carries the
  publication ``sequence`` it belongs to and the triple-WAL ``wal_seq``
  whose delta produced it — the link the engine uses at recovery to
  detect (and regenerate) a batch the crash window swallowed between
  the triple-WAL fsync and the notification append.
* :class:`CursorStore` — one atomically-rewritten JSON file of
  ``subscription id → highest acknowledged publication sequence``,
  using the same write-temp → fsync → rename discipline as
  ``service.json``.  Acks are monotonic: a stale or replayed ack never
  moves a cursor backwards.

Both live under ``<state_dir>/subs/`` next to the store's own WAL and
checkpoint; neither is consulted on the serving read path.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.durable.store import load_service_state, save_service_state
from repro.durable.wal import WriteAheadLog

__all__ = [
    "CursorStore",
    "NotificationBatch",
    "NotificationLog",
]


@dataclass(frozen=True)
class NotificationBatch:
    """The notifications one publication produced, as logged."""

    #: Publication sequence the batch belongs to (the SSE event id).
    sequence: int
    #: Triple-WAL record sequence whose delta produced this batch
    #: (None when the service runs without a durable store).
    wal_seq: Optional[int]
    #: JSON-serialisable notification dicts, in evaluation order.
    notifications: Tuple[Dict, ...] = field(default_factory=tuple)

    def to_payload(self) -> bytes:
        return json.dumps(
            {
                "sequence": self.sequence,
                "wal_seq": self.wal_seq,
                "notifications": list(self.notifications),
            },
            sort_keys=True,
        ).encode("utf-8")

    @classmethod
    def from_payload(cls, payload: bytes) -> "NotificationBatch":
        doc = json.loads(payload.decode("utf-8"))
        return cls(
            sequence=int(doc["sequence"]),
            wal_seq=(
                None
                if doc.get("wal_seq") is None
                else int(doc["wal_seq"])
            ),
            notifications=tuple(doc.get("notifications", ())),
        )


class NotificationLog:
    """Append-only, replayable log of notification batches.

    Batches are retained in memory after replay/append — the SSE
    resume path serves ``after(cursor)`` straight from this list, so a
    reconnecting subscriber never touches disk.  The log is *not*
    small: with thousands of geofence subscriptions one acquisition
    can produce thousands of notifications (about 2.6k on the
    ``alert_fanout`` benchmark workload), all kept here until
    :meth:`compact` drops the batches every live cursor has passed.
    What it stores per notification, and whether it must, is open
    (ROADMAP, the ``state_bytes_per_triple`` carry-over).
    """

    def __init__(self, path: str, fsync: str = "commit") -> None:
        self._lock = threading.Lock()
        # crash_sites off: the crash matrix arms wal.append.* by hit
        # count against the triple WAL; this log appending through the
        # same sites would shift that counting.
        self._wal = WriteAheadLog(path, fsync=fsync, crash_sites=False)
        self._batches: List[NotificationBatch] = [
            NotificationBatch.from_payload(record.payload)
            for record in self._wal.replayed
        ]

    # -- write path --------------------------------------------------------

    def append(self, batch: NotificationBatch) -> None:
        """Durably append one publication's batch (fsync per policy).

        Sequences must be strictly increasing — the publication order
        *is* the delivery order the cursor contract promises.
        """
        with self._lock:
            if (
                self._batches
                and batch.sequence <= self._batches[-1].sequence
            ):
                raise ValueError(
                    f"notification batch sequence {batch.sequence} "
                    f"not after {self._batches[-1].sequence}"
                )
            self._wal.append(batch.to_payload())
            self._wal.sync()
            self._batches.append(batch)

    # -- read path ---------------------------------------------------------

    @property
    def batches(self) -> List[NotificationBatch]:
        with self._lock:
            return list(self._batches)

    def after(self, sequence: int) -> List[NotificationBatch]:
        """Batches with publication sequence strictly greater than
        ``sequence`` — the resume set for a cursor at ``sequence``."""
        with self._lock:
            return [
                b for b in self._batches if b.sequence > sequence
            ]

    @property
    def last_sequence(self) -> int:
        """Highest logged publication sequence (0 when empty)."""
        with self._lock:
            return (
                self._batches[-1].sequence if self._batches else 0
            )

    @property
    def last_wal_seq(self) -> Optional[int]:
        """The triple-WAL sequence of the newest batch that carries
        one — the recovery anchor for tail-repair."""
        with self._lock:
            for batch in reversed(self._batches):
                if batch.wal_seq is not None:
                    return batch.wal_seq
            return None

    def __len__(self) -> int:
        with self._lock:
            return len(self._batches)

    # -- maintenance -------------------------------------------------------

    def compact(self, min_cursor: int) -> int:
        """Drop batches every subscriber has acknowledged (sequence
        ``<= min_cursor``); returns how many were dropped.  The log is
        rewritten through :meth:`WriteAheadLog.reset`, so the on-disk
        file shrinks too."""
        with self._lock:
            keep = [
                b for b in self._batches if b.sequence > min_cursor
            ]
            dropped = len(self._batches) - len(keep)
            if dropped == 0:
                return 0
            self._wal.reset()
            for batch in keep:
                self._wal.append(batch.to_payload())
            self._wal.sync()
            self._batches = keep
            return dropped

    def close(self) -> None:
        self._wal.close()

    def __enter__(self) -> "NotificationLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class CursorStore:
    """``subscription id → acknowledged publication sequence``, durable.

    The whole map is tiny (one integer per subscription), so every ack
    rewrites the file atomically — the same crash-safety argument as
    ``service.json``: the file only ever appears via rename, so a
    reader finds either the previous complete state or the new one,
    never a torn write.
    """

    def __init__(self, path: str, fsync: bool = True) -> None:
        self._path = path
        self._fsync = fsync
        self._lock = threading.Lock()
        saved = load_service_state(path)
        self._cursors: Dict[str, int] = (
            {
                str(k): int(v)
                for k, v in (saved.get("cursors") or {}).items()
            }
            if saved is not None
            else {}
        )

    def get(self, subscription_id: str) -> int:
        """The acknowledged sequence (0 = nothing acknowledged yet)."""
        with self._lock:
            return self._cursors.get(subscription_id, 0)

    def ack(self, subscription_id: str, sequence: int) -> int:
        """Advance a cursor (monotonic — regressions are ignored) and
        persist; returns the cursor now in effect."""
        if sequence < 0:
            raise ValueError("cursor sequence must be >= 0")
        with self._lock:
            current = self._cursors.get(subscription_id, 0)
            if sequence <= current:
                return current
            self._cursors[subscription_id] = sequence
            self._save()
            return sequence

    def forget(self, subscription_id: str) -> None:
        """Drop a removed subscription's cursor."""
        with self._lock:
            if self._cursors.pop(subscription_id, None) is not None:
                self._save()

    def all(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._cursors)

    def min_cursor(self) -> int:
        """The slowest acknowledged cursor (0 when no cursors exist) —
        the compaction horizon for the notification log."""
        with self._lock:
            return min(self._cursors.values()) if self._cursors else 0

    def _save(self) -> None:
        save_service_state(
            self._path,
            {"version": 1, "cursors": dict(self._cursors)},
            fsync=self._fsync,
        )
