"""Durable subscriber state: notification log, registry log, cursors.

The subscription engine (``repro.serve.subscribe``) must survive the
same crashes the store does, with the same contract: a subscriber that
acknowledged publication *S* and reconnects after a process restart
receives exactly the notifications of publications ``> S`` — no loss,
no duplicates.  Three small durable pieces make that hold:

* :class:`NotificationLog` — an append-only log of per-publication
  notification batches, framed by the same CRC'd
  :class:`~repro.durable.wal.WriteAheadLog` machinery as the triple
  WAL (torn tails are truncated on open, so a crash mid-append loses
  at most the un-fsynced tail record).  Each record carries the
  publication ``sequence`` it belongs to and the triple-WAL ``wal_seq``
  whose delta produced it — the link the engine uses at recovery to
  detect (and regenerate) a batch the crash window swallowed between
  the triple-WAL fsync and the notification append.
* :class:`RegistryLog` — the registered subscriptions, as an
  append-only log of registration changes on the same framing, folded
  into one record each time it is opened.
* :class:`CursorStore` — one atomically-rewritten JSON file of
  ``subscription id → highest acknowledged publication sequence``,
  using the same write-temp → fsync → rename discipline as
  ``service.json``.  Acks are monotonic: a stale or replayed ack never
  moves a cursor backwards.

All three live under ``<state_dir>/subs/`` next to the store's own WAL
and checkpoint; none is consulted on the serving read path.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.durable.store import load_service_state, save_service_state
from repro.durable.wal import WriteAheadLog
from repro.errors import DurabilityError

__all__ = [
    "CursorStore",
    "NotificationBatch",
    "NotificationLog",
    "RegistryLog",
]


def _compact(doc: Dict[str, Any]) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


@dataclass(frozen=True)
class NotificationBatch:
    """The notifications one publication produced, as logged.

    One hotspot matched by *k* subscriptions is one notification per
    subscription, but its payload is the same for all of them, so the
    batch stores every notified subject's payload once (``subjects``)
    and one ``(subscription id, kind, subject index)`` reference per
    notification (``refs``).  A notification's dict is rendered from
    its reference when it is read (:meth:`render`,
    :attr:`notifications`).
    """

    #: Publication sequence the batch belongs to (the SSE event id).
    sequence: int
    #: Triple-WAL record sequence whose delta produced this batch
    #: (None when the service runs without a durable store).
    wal_seq: Optional[int]
    #: ``(subject, payload)`` per notified subject — a hotspot, or a
    #: municipality whose danger class moved — each stored once.
    subjects: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    #: ``(subscription id, kind, index into subjects)`` per
    #: notification, in evaluation order.
    refs: Tuple[Tuple[str, str, int], ...] = ()

    def render(self, ref: Tuple[str, str, int]) -> Dict[str, Any]:
        """One notification's dict (the SSE ``data`` document)."""
        subscription, kind, index = ref
        subject, payload = self.subjects[index]
        return {
            "subscription": subscription,
            "kind": kind,
            "sequence": self.sequence,
            "subject": subject,
            "payload": dict(payload),
        }

    @property
    def notifications(self) -> "_Notifications":
        """Every notification's dict, rendered on read, in evaluation
        order."""
        return _Notifications(self)

    def keys(self) -> List[Tuple[str, ...]]:
        """Each notification's delivery identity — ``(subscription,
        subject)``, plus the new class of an ``fwi`` transition; the
        differential and resume contracts compare sets of these."""
        out = []
        for subscription, kind, index in self.refs:
            subject, payload = self.subjects[index]
            if kind == "fwi":
                out.append(
                    (
                        subscription,
                        subject,
                        str(payload.get("danger_class")),
                    )
                )
            else:
                out.append((subscription, subject))
        return out

    def to_payload(self) -> bytes:
        return _compact(
            {
                "sequence": self.sequence,
                "wal_seq": self.wal_seq,
                "subjects": self.subjects,
                "refs": self.refs,
            }
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "NotificationBatch":
        doc = json.loads(payload.decode("utf-8"))
        if "notifications" in doc:
            raise DurabilityError(
                "notification batch in the old layout (a full copy "
                "per notification); this version reads only "
                "(subjects, refs) batches"
            )
        return cls(
            sequence=int(doc["sequence"]),
            wal_seq=(
                None
                if doc.get("wal_seq") is None
                else int(doc["wal_seq"])
            ),
            subjects=tuple(map(tuple, doc["subjects"])),
            refs=tuple(map(tuple, doc["refs"])),
        )


class _Notifications:
    """:attr:`NotificationBatch.notifications`: sized and iterable;
    each item is rendered when it is read, so ``len()`` costs
    nothing."""

    __slots__ = ("_batch",)

    def __init__(self, batch: NotificationBatch) -> None:
        self._batch = batch

    def __len__(self) -> int:
        return len(self._batch.refs)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        render = self._batch.render
        for ref in self._batch.refs:
            yield render(ref)


class NotificationLog:
    """Append-only, replayable log of notification batches.

    Batches are retained in memory after replay/append — the SSE
    resume path serves ``after(cursor)`` straight from this list, so a
    reconnecting subscriber never touches disk — until :meth:`compact`
    drops the batches every live cursor has passed.  A record is one
    :class:`NotificationBatch` in compact JSON: each notified subject's
    payload once plus a short reference per notification, so with
    thousands of geofence subscriptions (about 2.8k notifications from
    about 140 hotspots per acquisition on the ``alert_fanout``
    benchmark workload) a batch costs its hotspots, not its fan-out.
    A log written in the old per-notification layout is refused on
    open (:class:`~repro.errors.DurabilityError` naming the file).
    """

    def __init__(self, path: str, fsync: str = "commit") -> None:
        self._lock = threading.Lock()
        # crash_sites off: the crash matrix arms wal.append.* by hit
        # count against the triple WAL; this log appending through the
        # same sites would shift that counting.
        self._wal = WriteAheadLog(path, fsync=fsync, crash_sites=False)
        try:
            self._batches: List[NotificationBatch] = [
                NotificationBatch.from_payload(record.payload)
                for record in self._wal.replayed
            ]
        except DurabilityError as error:
            self._wal.close()
            raise DurabilityError(f"{path!r}: {error}") from error

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
        replaced through :meth:`WriteAheadLog.rewrite`, so the on-disk
        file shrinks too, and a crash mid-compaction leaves either the
        old log or the compacted one."""
        with self._lock:
            keep = [
                b for b in self._batches if b.sequence > min_cursor
            ]
            dropped = len(self._batches) - len(keep)
            if dropped == 0:
                return 0
            self._wal.rewrite(batch.to_payload() for batch in keep)
            self._batches = keep
            return dropped

    def close(self) -> None:
        self._wal.close()

    def __enter__(self) -> "NotificationLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RegistryLog:
    """The registered subscriptions, durable, as an append-only log.

    Every registration change appends one CRC-framed record —
    ``{"add": [shape, ...]}`` for a single or bulk registration,
    ``{"remove": [id]}`` for a removal — and syncs per the fsync
    policy, so a registration costs its own bytes, not a rewrite of
    the whole registry.  An ``add`` stores each distinct key list once:
    a shape is ``{"keys": [...], "rows": [[...], ...]}``, one row of
    values per document with those keys, so 20 000 geofences of three
    shapes write three key lists, not 20 000.  Opening replays the
    records in order and, when there is more than one, folds them into
    a single ``add`` record of the live documents through the atomic
    :meth:`~repro.durable.wal.WriteAheadLog.rewrite`, so the file holds
    the live registry plus one session's changes.  A log written in the
    old one-object-per-document layout is refused on open
    (:class:`~repro.errors.DurabilityError` naming the file).  Not
    thread-safe: the engine serialises writes under its lock.
    """

    def __init__(self, path: str, fsync: str = "commit") -> None:
        # crash_sites off, as for the notification log.
        self._wal = WriteAheadLog(path, fsync=fsync, crash_sites=False)
        live: Dict[str, Dict[str, Any]] = {}
        records = self._wal.replayed
        for record in records:
            doc = json.loads(record.payload.decode("utf-8"))
            for shape in doc.get("add", ()):
                if not (isinstance(shape, dict) and "keys" in shape):
                    self._wal.close()
                    raise DurabilityError(
                        f"{path!r} is a subscription registry in the "
                        "old layout (one object per document); this "
                        "version reads only key-list records"
                    )
                keys = shape["keys"]
                for row in shape["rows"]:
                    sub = dict(zip(keys, row))
                    live[str(sub["id"])] = sub
            for sub_id in doc.get("remove", ()):
                live.pop(sub_id, None)
        #: The live subscription documents, grouped by shape within
        #: each replayed record and in registration order within a
        #: shape.
        self.documents: List[Dict[str, Any]] = list(live.values())
        if len(records) > 1:
            self._wal.rewrite([_compact({"add": _shapes(self.documents)})])

    def add(self, docs: Iterable[Dict[str, Any]]) -> None:
        """Durably record one (bulk) registration."""
        self._append({"add": _shapes(docs)})

    def remove(self, sub_id: str) -> None:
        """Durably record one removal."""
        self._append({"remove": [sub_id]})

    def _append(self, doc: Dict[str, Any]) -> None:
        self._wal.append(_compact(doc))
        self._wal.sync()

    def close(self) -> None:
        self._wal.close()


def _shapes(docs: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """``docs`` as one ``{"keys", "rows"}`` entry per distinct key
    list, in order of first appearance."""
    rows: Dict[Tuple[str, ...], List[List[Any]]] = {}
    for doc in docs:
        rows.setdefault(tuple(doc), []).append(list(doc.values()))
    return [
        {"keys": list(keys), "rows": shape_rows}
        for keys, shape_rows in rows.items()
    ]


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
