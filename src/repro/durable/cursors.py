"""Durable subscriber state: the notification log and the registry log.

The subscription engine (``repro.serve.subscribe``) must survive the
same crashes the store does, with the same contract: a subscriber that
acknowledged publication *S* and reconnects after a process restart
receives exactly the notifications of publications ``> S`` — no loss,
no duplicates.  Two append-only logs, framed by the same CRC'd
:class:`~repro.durable.wal.WriteAheadLog` machinery as the triple WAL
(torn tails are truncated on open, so a crash mid-append loses at most
the un-fsynced tail record), make that hold:

* :class:`NotificationLog` — per-publication notification batches.
  Each record carries the publication ``sequence`` it belongs to and
  the triple-WAL ``wal_seq`` whose delta produced it — the link the
  engine uses at recovery to detect (and regenerate) a batch the crash
  window swallowed between the triple-WAL fsync and the notification
  append.
* :class:`RegistryLog` — what each subscriber did: registrations,
  removals and acknowledged cursors (``subscription id → highest
  acknowledged publication sequence``), one record per change, folded
  into one record each time it is opened and whenever the records a
  fold would drop outgrow the live ones.  Acks are monotonic: a stale
  or replayed ack never moves a cursor backwards.

Both live under ``<state_dir>/subs/`` (``notifications.log`` and
``registry.log``) next to the store's own WAL and checkpoint; neither
is consulted on the serving read path.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.durable import crashpoints
from repro.durable.wal import WriteAheadLog
from repro.errors import DurabilityError

__all__ = [
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
    reconnecting subscriber never touches disk.  A record is one
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

    def close(self) -> None:
        self._wal.close()

    def __enter__(self) -> "NotificationLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RegistryLog:
    """What each subscriber did, durable, as an append-only log.

    Every change appends one CRC-framed record and syncs per the fsync
    policy — ``{"add": [shape, ...]}`` for a single or bulk
    registration, ``{"remove": [id]}`` for a removal, ``{"ack": [[id,
    sequence]]}`` for an acknowledgement — so a change costs its own
    bytes, not a rewrite of every subscriber's state.  A registration
    that primed matches adds ``"primed": [[id, [subject, ...]], ...]``
    to its record: the hotspots the subscription starts out having
    seen, which a restart restores without ever delivering them.  An ``add``
    stores each distinct key list once: a shape is ``{"keys": [...],
    "rows": [[...], ...]}``, one row of values per document with those
    keys, so 20 000 geofences of three shapes write three key lists,
    not 20 000.  Opening replays the records in order — cursors fold
    monotonically, a ``remove`` drops the subscription's cursor.

    The log keeps the live documents and cursors as they change, and
    *folds* them into a single record through the atomic
    :meth:`~repro.durable.wal.WriteAheadLog.rewrite`: on open when
    there is more than one record, and after an ack or a removal once
    the bytes a fold would drop — superseded acks, removed
    registrations and the removals themselves — exceed both the live
    bytes and ``_FOLD_FLOOR_BYTES``.  Registrations never trigger a
    fold.  So the file stays within a small multiple of the live
    registry however many acks a long-running service takes.  The
    ``registry-fold.pre-rewrite`` / ``registry-fold.post-rewrite``
    crashpoints bracket the rewrite.  A log written in the old
    one-object-per-document layout is refused on open
    (:class:`~repro.errors.DurabilityError` naming the file).  Changes
    hold :attr:`lock`.
    """

    def __init__(self, path: str, fsync: str = "commit") -> None:
        #: Serialises changes; re-entrant, because the engine guards its
        #: cursor map with it around the append.
        self.lock = threading.RLock()
        # crash_sites off, as for the notification log.
        self._wal = WriteAheadLog(path, fsync=fsync, crash_sites=False)
        #: ``subscription id → document`` of the live subscriptions,
        #: grouped by shape within each replayed record and in
        #: registration order within a shape.
        self._live: Dict[str, Dict[str, Any]] = {}
        #: ``subscription id → acknowledged sequence``; a removal drops
        #: the subscription's cursor.
        self.cursors: Dict[str, int] = {}
        #: ``subscription id → subjects primed at registration``; a
        #: removal drops them.
        self.primed: Dict[str, List[str]] = {}
        #: Bytes of the file a fold would drop (estimated for removed
        #: rows and cursors).
        self._dead = 0
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
                    self._live[str(sub["id"])] = sub
            for sub_id, subjects in doc.get("primed", ()):
                self.primed[sub_id] = subjects
            for sub_id in doc.get("remove", ()):
                self._live.pop(sub_id, None)
                self.cursors.pop(sub_id, None)
                self.primed.pop(sub_id, None)
            for sub_id, sequence in doc.get("ack", ()):
                self.cursors[sub_id] = max(
                    self.cursors.get(sub_id, 0), sequence
                )
        for sub_id in [s for s in self.cursors if s not in self._live]:
            del self.cursors[sub_id]
        for sub_id in [s for s in self.primed if s not in self._live]:
            del self.primed[sub_id]
        if len(records) > 1:
            self._fold()

    @property
    def documents(self) -> List[Dict[str, Any]]:
        """The live subscription documents."""
        with self.lock:
            return list(self._live.values())

    def add(
        self,
        docs: Iterable[Dict[str, Any]],
        primed: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        """Durably record one (bulk) registration and the subjects it
        primed (``id → subjects``)."""
        docs = list(docs)
        record: Dict[str, Any] = {"add": _shapes(docs)}
        if primed:
            record["primed"] = list(primed.items())
        with self.lock:
            self._append(record)
            for doc in docs:
                self._live[str(doc["id"])] = doc
            self.primed.update(primed or {})

    def remove(self, sub_id: str) -> None:
        """Durably record one removal (it drops the cursor too)."""
        with self.lock:
            self._dead += self._append({"remove": [sub_id]})
            doc = self._live.pop(sub_id, None)
            if doc is not None:
                self._dead += len(_compact(list(doc.values())))
            cursor = self.cursors.pop(sub_id, None)
            if cursor is not None:
                self._dead += len(_compact([sub_id, cursor]))
            subjects = self.primed.pop(sub_id, None)
            if subjects is not None:
                self._dead += len(_compact([sub_id, subjects]))
            self._fold_if_due()

    def ack(self, sub_id: str, sequence: int) -> None:
        """Durably record one acknowledged cursor."""
        with self.lock:
            size = self._append({"ack": [[sub_id, sequence]]})
            prior = self.cursors.get(sub_id)
            if prior is not None:
                # This record or the one it supersedes is dead.
                self._dead += size
            self.cursors[sub_id] = max(prior or 0, sequence)
            self._fold_if_due()

    def _append(self, doc: Dict[str, Any]) -> int:
        """Append and sync one record; returns the bytes it took."""
        before = self._wal.size_bytes()
        self._wal.append(_compact(doc))
        self._wal.sync()
        return self._wal.size_bytes() - before

    def _fold_if_due(self) -> None:
        live = self._wal.size_bytes() - self._dead
        if self._dead > max(live, _FOLD_FLOOR_BYTES):
            self._fold()

    def _fold(self) -> None:
        """Rewrite the log as one record of the live documents and
        their cursors."""
        fold: Dict[str, Any] = {"add": _shapes(self._live.values())}
        cursors = [
            (sub_id, sequence)
            for sub_id, sequence in self.cursors.items()
            if sub_id in self._live
        ]
        if cursors:
            fold["ack"] = cursors
        primed = [
            (sub_id, subjects)
            for sub_id, subjects in self.primed.items()
            if sub_id in self._live
        ]
        if primed:
            fold["primed"] = primed
        crashpoints.crash("registry-fold.pre-rewrite")
        self._wal.rewrite([_compact(fold)])
        crashpoints.crash("registry-fold.post-rewrite")
        self._dead = 0

    def close(self) -> None:
        self._wal.close()


#: A fold never runs while it would drop fewer bytes than this, so a
#: small registry is not rewritten every few acks.
_FOLD_FLOOR_BYTES = 64 * 1024


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

