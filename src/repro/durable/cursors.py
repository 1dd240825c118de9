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
  fold would drop outgrow the live ones.  ``filter`` registrations are
  :class:`FilterRows` column blocks, read back with ``np.frombuffer``.
  Acks are monotonic: a stale or replayed ack never moves a cursor
  backwards.

Both live under ``<state_dir>/subs/`` (``notifications.log`` and
``registry.log``) next to the store's own WAL and checkpoint; neither
is consulted on the serving read path.
"""

from __future__ import annotations

import json
import math
import struct
import threading
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.durable import crashpoints
from repro.durable.wal import WriteAheadLog
from repro.errors import DurabilityError

__all__ = [
    "FilterRows",
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
    policy — an ``add`` for a single or bulk registration, ``{"remove":
    [id]}`` for a removal, ``{"ack": [[id, sequence]]}`` for an
    acknowledgement — so a change costs its own bytes, not a rewrite of
    every subscriber's state.

    An ``add`` that registers ``filter`` subscriptions is one binary
    :class:`FilterRows` record: a JSON head, then one fixed-width block
    per column, so 20 000 geofences cost their ids and boxes (44 B
    each) and replay is ``np.frombuffer``.  The head carries what the
    record holds besides: ``stsparql`` / ``fwi`` documents as ``"add":
    [shape, ...]``, each distinct key list once (``{"keys": [...],
    "rows": [[...], ...]}``), and, for a registration that primed
    matches, ``"primed": [[id, [subject, ...]], ...]``: the hotspots the
    subscription starts out having seen, which a restart restores
    without ever delivering them.  A registration without filters is
    that head alone, as a JSON record.  Opening replays the records in
    order — cursors fold monotonically, a ``remove`` drops the
    subscription's cursor.

    The log keeps the live documents, filter rows and cursors as they
    change, and *folds* them into a single record through the atomic
    :meth:`~repro.durable.wal.WriteAheadLog.rewrite`: on open when
    there is more than one record, and after an ack or a removal once
    the bytes a fold would drop — superseded acks, removed
    registrations and the removals themselves — exceed both the live
    bytes and ``_FOLD_FLOOR_BYTES``.  The fold writes the live filters
    as one column block.  Registrations never trigger a fold.  So the
    file stays within a small multiple of the live registry however
    many acks a long-running service takes.  The
    ``registry-fold.pre-rewrite`` / ``registry-fold.post-rewrite``
    crashpoints bracket the rewrite.  A log written in an older layout
    — one object per document, or filters as JSON rows — is refused on
    open (:class:`~repro.errors.DurabilityError` naming the file).
    Changes hold :attr:`lock`.
    """

    def __init__(self, path: str, fsync: str = "commit") -> None:
        #: Serialises changes; re-entrant, because the engine guards its
        #: cursor map with it around the append.
        self.lock = threading.RLock()
        # crash_sites off, as for the notification log.
        self._wal = WriteAheadLog(path, fsync=fsync, crash_sites=False)
        #: ``subscription id → document`` of the live ``stsparql`` and
        #: ``fwi`` subscriptions, grouped by shape within each replayed
        #: record and in registration order within a shape.
        self._docs: Dict[str, Dict[str, Any]] = {}
        #: The filter rows of each add, in log order.
        self._filters: List[FilterRows] = []
        #: Filters removed since those rows were read: :attr:`filters`
        #: drops them.
        self._removed: Set[str] = set()
        #: Log bytes per row of the latest filter block (what a filter's
        #: removal adds to the bytes a fold would drop).
        self._row_bytes = 0
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
        try:
            for record in records:
                self._replay(record.payload)
        except (DurabilityError, ValueError) as error:
            self._wal.close()
            raise DurabilityError(f"{path!r}: {error}") from error
        if self.cursors or self.primed:
            live = set(self._docs).union(self.filters.ids)
            for sub_id in [s for s in self.cursors if s not in live]:
                del self.cursors[sub_id]
            for sub_id in [s for s in self.primed if s not in live]:
                del self.primed[sub_id]
        if len(records) > 1:
            self._fold()

    def _replay(self, payload: bytes) -> None:
        if payload.startswith(_FILTER_MAGIC):
            doc, rows = FilterRows.decode(payload)
            self._keep_filters(rows, len(payload))
            acked = doc.pop("acked", None)
            if acked is not None:
                for sub_id, sequence in zip(rows.ids, acked.tolist()):
                    if sequence:
                        self.cursors[sub_id] = max(
                            self.cursors.get(sub_id, 0), sequence
                        )
        else:
            doc = json.loads(payload.decode("utf-8"))
        for shape in doc.get("add", ()):
            if not (isinstance(shape, dict) and "keys" in shape):
                raise DurabilityError(
                    "a subscription registry in the old layout (one "
                    "object per document); this version reads only "
                    "key-list records"
                )
            keys = shape["keys"]
            for row in shape["rows"]:
                sub = dict(zip(keys, row))
                if sub.get("kind", "filter") == "filter":
                    raise DurabilityError(
                        "filter subscriptions as JSON rows (the old "
                        "layout); this version reads filters only as "
                        "column blocks"
                    )
                self._docs[str(sub["id"])] = sub
        for sub_id, subjects in doc.get("primed", ()):
            self.primed[sub_id] = subjects
        for sub_id in doc.get("remove", ()):
            if self._docs.pop(sub_id, None) is None:
                self._removed.add(sub_id)
            self.cursors.pop(sub_id, None)
            self.primed.pop(sub_id, None)
        for sub_id, sequence in doc.get("ack", ()):
            self.cursors[sub_id] = max(self.cursors.get(sub_id, 0), sequence)

    def _keep_filters(self, rows: FilterRows, size: int) -> None:
        if len(rows):
            self._filters.append(rows)
            self._row_bytes = size // len(rows)

    @property
    def documents(self) -> List[Dict[str, Any]]:
        """Every live subscription document, the filters' rendered from
        their rows."""
        with self.lock:
            return list(self._docs.values()) + self.filters.documents()

    @property
    def json_documents(self) -> List[Dict[str, Any]]:
        """The live ``stsparql`` and ``fwi`` documents."""
        with self.lock:
            return list(self._docs.values())

    @property
    def filters(self) -> FilterRows:
        """The live filter rows, in log order."""
        with self.lock:
            rows = FilterRows.concat(self._filters)
            if self._removed:
                gone = self._removed
                rows = rows.take(
                    np.array(
                        [i for i, s in enumerate(rows.ids) if s not in gone],
                        dtype=np.intp,
                    )
                )
                self._removed = set()
            self._filters = [rows] if len(rows) else []
            return rows

    def add(
        self,
        docs: Iterable[Dict[str, Any]] = (),
        primed: Optional[Dict[str, List[str]]] = None,
        filters: Optional[FilterRows] = None,
    ) -> None:
        """Durably record one (bulk) registration — ``filters`` rows and
        the documents of other kinds (a ``filter`` document among
        ``docs`` joins the rows) — and the subjects it primed (``id →
        subjects``)."""
        docs = list(docs)
        rows = [doc for doc in docs if doc.get("kind", "filter") == "filter"]
        if rows:
            docs = [
                doc for doc in docs if doc.get("kind", "filter") != "filter"
            ]
            filters = FilterRows.concat(
                ([filters] if filters is not None else [])
                + [FilterRows.from_documents(rows)]
            )
        record: Dict[str, Any] = {}
        if docs:
            record["add"] = _shapes(docs)
        if primed:
            record["primed"] = list(primed.items())
        with self.lock:
            if filters is not None and len(filters):
                size = self._append_bytes(filters.encode(record))
                self._keep_filters(filters, size)
            else:
                self._append(record)
            for doc in docs:
                self._docs[str(doc["id"])] = doc
            self.primed.update(primed or {})

    def remove(self, sub_id: str) -> None:
        """Durably record one removal (it drops the cursor too)."""
        with self.lock:
            self._dead += self._append({"remove": [sub_id]})
            doc = self._docs.pop(sub_id, None)
            if doc is not None:
                self._dead += len(_compact(list(doc.values())))
            else:
                self._removed.add(sub_id)
                self._dead += self._row_bytes
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
        """Append and sync one JSON record; returns the bytes it took."""
        return self._append_bytes(_compact(doc))

    def _append_bytes(self, payload: bytes) -> int:
        before = self._wal.size_bytes()
        self._wal.append(payload)
        self._wal.sync()
        return self._wal.size_bytes() - before

    def _fold_if_due(self) -> None:
        live = self._wal.size_bytes() - self._dead
        if self._dead > max(live, _FOLD_FLOOR_BYTES):
            self._fold()

    def _fold(self) -> None:
        """Rewrite the log as one record of the live documents, filter
        rows, cursors and primed subjects."""
        fold: Dict[str, Any] = {}
        if self._docs:
            fold["add"] = _shapes(self._docs.values())
        # The filters' cursors are a column of their block.
        cursors = [
            (sub_id, sequence)
            for sub_id, sequence in self.cursors.items()
            if sub_id in self._docs
        ]
        if cursors:
            fold["ack"] = cursors
        if self.primed:
            fold["primed"] = list(self.primed.items())
        rows = self.filters
        if len(rows):
            acked = self.cursors
            payload = rows.encode(
                fold,
                acked=np.array(
                    [acked.get(sub_id, 0) for sub_id in rows.ids],
                    dtype=np.int64,
                ),
            )
        else:
            payload = _compact(fold)
        crashpoints.crash("registry-fold.pre-rewrite")
        self._wal.rewrite([payload])
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


class FilterRows:
    """``filter`` subscriptions as columns, one row per subscription.

    * ``ids`` — the subscription ids (a list of str);
    * ``boxes`` — an ``(n, 4)`` float64 array of ``minx, miny, maxx,
      maxy``, a NaN row for a filter without a geofence;
    * ``floors`` — the confidence floor, NaN for none;
    * ``confirmed`` — int8: −1 for either, 0 for unconfirmed only, 1 for
      confirmed only;
    * ``municipality`` — int32 index into ``names``, −1 for none;
    * ``created`` — int64 ``created_sequence``.

    It is the registry log's binary ``add`` block (:meth:`encode`,
    :meth:`decode`) and the batch the subscription registry indexes.
    """

    __slots__ = (
        "ids",
        "boxes",
        "floors",
        "confirmed",
        "municipality",
        "names",
        "created",
    )

    #: The array attributes, one value (a box: four) per row.
    COLUMNS = ("boxes", "floors", "confirmed", "municipality", "created")

    def __init__(
        self,
        ids: List[str],
        boxes: np.ndarray,
        floors: np.ndarray,
        confirmed: np.ndarray,
        municipality: np.ndarray,
        names: List[str],
        created: np.ndarray,
    ) -> None:
        self.ids = ids
        self.boxes = boxes
        self.floors = floors
        self.confirmed = confirmed
        self.municipality = municipality
        self.names = names
        self.created = created

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def empty(cls, ids: Sequence[str] = ()) -> "FilterRows":
        """Rows of ``ids`` (none by default) with no predicate at all,
        registered at sequence 0."""
        n = len(ids)
        return cls(
            list(ids),
            np.full((n, 4), np.nan),
            np.full(n, np.nan),
            np.full(n, -1, dtype=np.int8),
            np.full(n, -1, dtype=np.int32),
            [],
            np.zeros(n, dtype=np.int64),
        )

    @classmethod
    def from_documents(cls, docs: List[Dict[str, Any]]) -> "FilterRows":
        """Rows of subscription documents in the ``to_dict`` layout
        (trusted: nothing is validated)."""
        rows = cls.empty([str(doc["id"]) for doc in docs])
        codes: Dict[str, int] = {}
        for i, doc in enumerate(docs):
            if doc.get("bbox") is not None:
                rows.boxes[i] = doc["bbox"]
            if doc.get("min_confidence") is not None:
                rows.floors[i] = doc["min_confidence"]
            if doc.get("confirmed") is not None:
                rows.confirmed[i] = int(doc["confirmed"])
            if doc.get("municipality") is not None:
                name = str(doc["municipality"])
                rows.municipality[i] = codes.setdefault(name, len(codes))
            rows.created[i] = int(doc.get("created_sequence", 0))
        rows.names = list(codes)
        return rows

    def row(self, i: int) -> Tuple[Any, ...]:
        """Row ``i`` as Python values: ``(id, bbox list or None, floor
        or None, confirmed or None, municipality or None,
        created_sequence)``."""
        box = self.boxes[i].tolist()
        floor = float(self.floors[i])
        confirmed = int(self.confirmed[i])
        code = int(self.municipality[i])
        return (
            self.ids[i],
            None if math.isnan(box[0]) else box,
            None if math.isnan(floor) else floor,
            None if confirmed < 0 else bool(confirmed),
            None if code < 0 else self.names[code],
            int(self.created[i]),
        )

    def documents(self) -> List[Dict[str, Any]]:
        """Each row as its subscription's ``to_dict`` document."""
        out = []
        for i in range(len(self)):
            sub_id, bbox, floor, confirmed, municipality, created = (
                self.row(i)
            )
            doc: Dict[str, Any] = {
                "id": sub_id,
                "kind": "filter",
                "created_sequence": created,
            }
            for key, value in (
                ("bbox", bbox),
                ("min_confidence", floor),
                ("municipality", municipality),
                ("confirmed", confirmed),
            ):
                if value is not None:
                    doc[key] = value
            out.append(doc)
        return out

    def take(self, index: np.ndarray) -> "FilterRows":
        """The rows at ``index``, in that order."""
        return FilterRows(
            [self.ids[i] for i in index.tolist()],
            self.boxes[index],
            self.floors[index],
            self.confirmed[index],
            self.municipality[index],
            self.names,
            self.created[index],
        )

    @staticmethod
    def concat(parts: Sequence["FilterRows"]) -> "FilterRows":
        """The rows of ``parts``, in order, with one name table."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return FilterRows.empty()
        codes: Dict[str, int] = {}
        municipality = []
        for part in parts:
            remap = np.array(
                [codes.setdefault(name, len(codes)) for name in part.names]
                + [-1],
                dtype=np.int32,
            )
            municipality.append(remap[part.municipality])
        return FilterRows(
            [sub_id for part in parts for sub_id in part.ids],
            np.concatenate([part.boxes for part in parts]),
            np.concatenate([part.floors for part in parts]),
            np.concatenate([part.confirmed for part in parts]),
            np.concatenate(municipality),
            list(codes),
            np.concatenate([part.created for part in parts]),
        )

    # -- the binary record -------------------------------------------------

    def encode(
        self,
        head: Optional[Dict[str, Any]] = None,
        acked: Optional[np.ndarray] = None,
    ) -> bytes:
        """One registry-log record: ``_FILTER_MAGIC``, the byte length
        of a compact JSON head, the head, then one fixed-width block per
        column whose rows differ.

        The head holds the row count, the id width, the municipality
        names, the value of each column that is the same on every row
        (``"shared"``: written once, not per row), the names of the
        columns written as blocks, and ``head``'s own keys (the JSON
        documents, primed subjects and cursors a record also carries).
        Blocks follow in :data:`_COLUMN_BLOCKS` order — with ``acked``,
        each row's acknowledged cursor (0 for none), as the last — then
        the ids, UTF-8 and NUL-padded to the widest.
        """
        columns = [
            (name, dtype, getattr(self, name))
            for name, dtype, _ in _COLUMN_BLOCKS
        ]
        if acked is not None:
            columns.append(("acked", "<i8", acked))
        doc: Dict[str, Any] = dict(head or {})
        width, ids = _encode_ids(self.ids)
        doc.update(rows=len(self), id_width=width, names=self.names)
        shared: Dict[str, Any] = {}
        blocks: List[str] = []
        data = []
        for name, dtype, column in columns:
            if len(column) and np.array_equal(
                column,
                np.broadcast_to(column[0], column.shape),
                equal_nan=True,
            ):
                shared[name] = _json_value(column[0])
            else:
                blocks.append(name)
                data.append(column.astype(dtype, copy=False).tobytes())
        doc.update(shared=shared, blocks=blocks)
        header = _compact(doc)
        return b"".join(
            [_FILTER_MAGIC, struct.pack("<I", len(header)), header]
            + data
            + [ids]
        )

    @classmethod
    def decode(
        cls, payload: bytes
    ) -> Tuple[Dict[str, Any], "FilterRows"]:
        """``(head, rows)`` of an :meth:`encode` record — the head with
        an ``"acked"`` array when the record carries cursors; ValueError
        when the record is malformed."""
        try:
            (size,) = struct.unpack_from("<I", payload, len(_FILTER_MAGIC))
            offset = len(_FILTER_MAGIC) + 4
            head = json.loads(payload[offset : offset + size])
            offset += size
            n, width = int(head.pop("rows")), int(head.pop("id_width"))
            names = [str(name) for name in head.pop("names")]
            shared = head.pop("shared")
            blocks = head.pop("blocks")
            columns = {}
            for name, dtype, per_row in _COLUMN_BLOCKS + _ACKED:
                shape = (n, per_row) if per_row > 1 else (n,)
                if name in shared:
                    value = shared[name]
                    columns[name] = np.full(
                        shape, np.nan if value is None else value, dtype=dtype
                    )
                elif name in blocks:
                    block = np.frombuffer(
                        payload, dtype=dtype, count=n * per_row, offset=offset
                    )
                    offset += block.nbytes
                    columns[name] = block.reshape(shape).copy()
            ids = payload[offset : offset + n * width]
            offset += n * width
        except (struct.error, KeyError, TypeError) as error:
            raise ValueError(f"malformed filter block: {error}") from error
        if offset != len(payload) or len(ids) != n * width:
            raise ValueError(
                f"filter block of {n} rows is {len(payload)} bytes, "
                f"expected {offset}"
            )
        acked = columns.pop("acked", None)
        if acked is not None:
            head["acked"] = acked
        rows = cls(_decode_ids(ids, n, width), names=names, **columns)
        rows._check()
        return head, rows

    def _check(self) -> None:
        boxes = self.boxes
        fenced = ~np.isnan(boxes).any(axis=1)
        if not (
            (np.isnan(boxes[~fenced]).all())
            and np.isfinite(boxes[fenced]).all()
            and (boxes[fenced, 0] <= boxes[fenced, 2]).all()
            and (boxes[fenced, 1] <= boxes[fenced, 3]).all()
            and not np.isinf(self.floors).any()
            and np.isin(self.confirmed, (-1, 0, 1)).all()
            and (self.municipality >= -1).all()
            and (self.municipality < len(self.names)).all()
        ):
            raise ValueError("filter block holds an invalid row")


#: A binary registry-log record starts with these bytes (a JSON record
#: starts with ``{``).
_FILTER_MAGIC = b"\x00RGF"

#: (attribute, on-disk dtype, values per row) of each column block.
_COLUMN_BLOCKS = (
    ("boxes", "<f8", 4),
    ("floors", "<f8", 1),
    ("created", "<i8", 1),
    ("municipality", "<i4", 1),
    ("confirmed", "<i1", 1),
)
#: The acknowledged-cursor column a fold adds.
_ACKED = (("acked", "<i8", 1),)


def _encode_ids(ids: List[str]) -> Tuple[int, bytes]:
    """``(width, block)``: the ids UTF-8 encoded and NUL-padded to the
    widest."""
    text = "".join(ids)
    widths = set(map(len, ids))
    if len(widths) == 1 and text.isascii():
        return widths.pop(), text.encode("ascii")
    raw = [sub_id.encode("utf-8") for sub_id in ids]
    width = max(map(len, raw), default=0)
    return width, b"".join(sub_id.ljust(width, b"\0") for sub_id in raw)


def _decode_ids(block: bytes, count: int, width: int) -> List[str]:
    if not width:
        return [""] * count
    if block.isascii() and b"\0" not in block:
        text = block.decode("ascii")
        return [text[i : i + width] for i in range(0, count * width, width)]
    return [
        block[i : i + width].rstrip(b"\0").decode("utf-8")
        for i in range(0, count * width, width)
    ]


def _json_value(value: np.ndarray) -> Any:
    """A shared column value for the JSON head (NaN as null)."""
    out = value.tolist()
    if isinstance(out, list):
        return None if any(map(math.isnan, out)) else out
    if isinstance(out, float) and math.isnan(out):
        return None
    return out
