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
  fold would drop outgrow the live ones.  A registration of any kind
  is one :class:`SubscriptionRows` column block, packed as one zlib
  block and read back with ``np.frombuffer``; a registration as JSON
  rows (an older layout) is refused.  Acks are monotonic: a stale or
  replayed ack never moves a cursor backwards.

Both logs write their bulk records — a notification batch, a
registration — through the durable codec's bounded zlib block
(:func:`~repro.durable.codec.pack_block`), so their bytes grow with
what happened, not with how many subscribers heard of it.  The
uncompressed layouts earlier versions wrote (a JSON batch, a raw
``\x00RGF`` column block) still read.

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
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.durable import crashpoints
from repro.durable.codec import pack_block, pack_ids, unpack_block
from repro.durable.wal import WriteAheadLog
from repro.errors import DurabilityError

__all__ = [
    "KINDS",
    "NotificationBatch",
    "NotificationLog",
    "RegistryLog",
    "SubscriptionRows",
]


def _compact(doc: Dict[str, Any]) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


#: The subscription kinds, by their code in the ``kind`` column and in a
#: notification batch's kind column.
KINDS = ("filter", "stsparql", "fwi")
_KIND_CODES = {kind: code for code, kind in enumerate(KINDS)}

#: A packed notification batch starts with these bytes (a JSON batch,
#: the older layout, starts with ``{``).
_BATCH_MAGIC = b"\x00NTB"
#: A packed batch's head: sequence | wal_seq (-1 for none) | refs |
#: distinct subscription ids | id width (:func:`_encode_ids`).
_BATCH_HEAD = struct.Struct("<QqIIi")


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
        """The log record: :data:`_BATCH_MAGIC`, then one packed block
        (:func:`~repro.durable.codec.pack_block`) of the batch as
        columns.

        The block holds a fixed head (sequence, ``wal_seq`` or -1, the
        number of refs, of distinct subscription ids and the id width),
        the batch's own id dictionary — its distinct subscription ids
        in first-ref order, as :func:`_encode_ids` writes them — then
        per ref a u32 index into that dictionary, a u32 subject index
        and an int8 :data:`KINDS` code, and last the ``subjects`` as
        compact JSON.
        The dictionary is the batch's own, not the registry's row
        numbers, so a batch decodes the same after its subscriptions
        are removed or the registry is folded.
        """
        refs = self.refs
        if refs:
            ids, kinds, indices = zip(*refs)
        else:
            ids = kinds = indices = ()
        code: Dict[str, int] = {}
        for sub_id in ids:
            code.setdefault(sub_id, len(code))
        width, id_block = _encode_ids(list(code))
        try:
            columns = (
                pack_ids([code[sub_id] for sub_id in ids])
                + pack_ids(indices)
                + bytes([_KIND_CODES[kind] for kind in kinds])
            )
            head = _BATCH_HEAD.pack(
                self.sequence,
                -1 if self.wal_seq is None else self.wal_seq,
                len(refs),
                len(code),
                width,
            )
        except (KeyError, struct.error) as error:
            raise DurabilityError(
                f"cannot encode notification batch {self.sequence}: "
                f"{error!r}"
            ) from error
        return _BATCH_MAGIC + pack_block(
            head + id_block + columns + _compact(self.subjects)
        )

    @classmethod
    def from_payload(cls, payload: bytes) -> "NotificationBatch":
        """Decode a :meth:`to_payload` record, or an older JSON one;
        :class:`~repro.errors.DurabilityError` when it is malformed."""
        if not payload.startswith(_BATCH_MAGIC):
            return cls._from_json(payload)
        raw, end = unpack_block(
            payload, len(_BATCH_MAGIC), "notification batch"
        )
        if end != len(payload):
            raise DurabilityError(
                f"{len(payload) - end} trailing byte(s) after "
                "notification batch"
            )
        if len(raw) < _BATCH_HEAD.size:
            raise DurabilityError("truncated notification batch head")
        sequence, wal_seq, n, distinct, width = _BATCH_HEAD.unpack_from(raw)
        offset = _BATCH_HEAD.size
        columns = offset + distinct * abs(width)
        text = columns + 9 * n
        if text > len(raw) or wal_seq < -1:
            raise DurabilityError(
                f"notification batch {sequence} declares {n} refs over "
                f"{distinct} ids in {len(raw)} bytes"
            )
        try:
            dictionary = _decode_ids(raw[offset:columns], distinct, width)
            subjects = tuple(
                map(tuple, json.loads(raw[text:].decode("utf-8")))
            )
        except (ValueError, TypeError) as error:
            raise DurabilityError(
                f"corrupt notification batch {sequence}: {error!r}"
            ) from error
        if not all(
            len(pair) == 2
            and isinstance(pair[0], str)
            and isinstance(pair[1], dict)
            for pair in subjects
        ):
            raise DurabilityError(
                f"notification batch {sequence} holds a malformed subject"
            )
        codes = np.frombuffer(raw, "<u4", n, columns)
        indices = np.frombuffer(raw, "<u4", n, columns + 4 * n)
        kinds = np.frombuffer(raw, "<i1", n, columns + 8 * n)
        if n and (
            int(codes.max()) >= distinct
            or int(indices.max()) >= len(subjects)
            or int(kinds.min()) < 0
            or int(kinds.max()) >= len(KINDS)
        ):
            raise DurabilityError(
                f"notification batch {sequence} holds a ref out of range"
            )
        return cls(
            sequence=sequence,
            wal_seq=None if wal_seq < 0 else wal_seq,
            subjects=subjects,
            refs=tuple(
                zip(
                    map(dictionary.__getitem__, codes.tolist()),
                    map(KINDS.__getitem__, kinds.tolist()),
                    indices.tolist(),
                )
            ),
        )

    @classmethod
    def _from_json(cls, payload: bytes) -> "NotificationBatch":
        """A batch in compact JSON, as earlier versions logged it."""
        try:
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
        except (ValueError, TypeError, KeyError) as error:
            raise DurabilityError(
                f"malformed notification batch: {error!r}"
            ) from error


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
    :class:`NotificationBatch` as one zlib block of columns
    (:meth:`NotificationBatch.to_payload`): each notified subject's
    payload once plus 9 bytes per notification before deflating, so
    with thousands of geofence subscriptions (about 2.8k notifications
    from about 140 hotspots per acquisition on the ``alert_fanout``
    benchmark workload) a batch costs its hotspots, not its fan-out.
    A batch in compact JSON (the previous layout) still reads; a log
    written in the older per-notification layout is refused on open
    (:class:`~repro.errors.DurabilityError` naming the file).
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

    An ``add``, whatever kinds it registers, is one binary
    :class:`SubscriptionRows` record: a JSON head, then one fixed-width
    block per column, packed as one zlib block, so 20 000 geofences
    cost their ids and boxes (44 B each before deflating, about 15
    after) and replay is one inflate and ``np.frombuffer``.  The
    fold's accounting of dropped bytes counts the packed bytes on
    disk.  The head carries, for
    a registration that primed matches, ``"primed": [[id, [subject,
    ...]], ...]``: the hotspots the subscription starts out having
    seen, which a restart restores without ever delivering them.
    Opening replays the records in order, so the rows come back in
    registration order; cursors fold monotonically, and a ``remove``
    drops the subscription's row, cursor and primed subjects.

    The log keeps the live rows, cursors and primed subjects as they
    change, and *folds* them into a single record through the atomic
    :meth:`~repro.durable.wal.WriteAheadLog.rewrite`: on open when
    there is more than one record, and after an ack or a removal once
    the bytes a fold would drop — superseded acks, removed
    registrations and the removals themselves — exceed both the live
    bytes and ``_FOLD_FLOOR_BYTES``.  The fold writes the live rows as
    one column block, with every subscription's cursor as its
    ``acked`` column.  Registrations never trigger a fold.  So the file
    stays within a small multiple of the live registry however many
    acks a long-running service takes.  The
    ``registry-fold.pre-rewrite`` / ``registry-fold.post-rewrite``
    crashpoints bracket the rewrite.  An ``add`` of JSON documents or
    JSON key-list rows (older layouts), of any kind, is refused on open
    (:class:`~repro.errors.DurabilityError` naming the file).  Changes
    hold :attr:`lock`.
    """

    def __init__(self, path: str, fsync: str = "commit") -> None:
        #: Serialises changes; re-entrant, because the engine guards its
        #: cursor map with it around the append.
        self.lock = threading.RLock()
        # crash_sites off, as for the notification log.
        self._wal = WriteAheadLog(path, fsync=fsync, crash_sites=False)
        #: The rows of every add, in log order.
        self._rows = SubscriptionRows([])
        #: Subscriptions removed since those rows were read:
        #: :attr:`rows` drops them.
        self._removed: Set[str] = set()
        #: Log bytes per row of the latest add (what a removal adds to
        #: the bytes a fold would drop).
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
            live = set(self.rows.ids)
            for held in (self.cursors, self.primed):
                for sub_id in [s for s in held if s not in live]:
                    del held[sub_id]
        if len(records) > 1:
            self._fold()

    def _replay(self, payload: bytes) -> None:
        if payload.startswith(b"{"):
            doc = json.loads(payload.decode("utf-8"))
        else:
            doc, rows = SubscriptionRows.decode(payload)
            self._keep(rows, len(payload))
            for sub_id, sequence in zip(rows.ids, doc.pop("acked").tolist()):
                if sequence:
                    self.cursors[sub_id] = max(
                        self.cursors.get(sub_id, 0), sequence
                    )
        if "add" in doc:
            raise DurabilityError(
                "subscriptions as JSON rows (an older layout); this "
                "version reads registrations only as column blocks"
            )
        for sub_id, subjects in doc.get("primed", ()):
            self.primed[sub_id] = subjects
        for sub_id in doc.get("remove", ()):
            self._removed.add(sub_id)
            self.cursors.pop(sub_id, None)
            self.primed.pop(sub_id, None)
        for sub_id, sequence in doc.get("ack", ()):
            self.cursors[sub_id] = max(self.cursors.get(sub_id, 0), sequence)

    def _keep(self, rows: "SubscriptionRows", size: int) -> None:
        if len(rows):
            self._rows.extend(rows)
            self._row_bytes = size // len(rows)

    @property
    def rows(self) -> "SubscriptionRows":
        """The live subscriptions, in registration order: the log's own
        table, cut to its live rows (read it before the next change)."""
        with self.lock:
            rows = self._rows
            if self._removed or len(rows.floors) > len(rows):
                gone = self._removed
                self._rows = rows = rows.take(
                    np.array(
                        [i for i, s in enumerate(rows.ids) if s not in gone],
                        dtype=np.intp,
                    )
                )
                self._removed = set()
            return rows

    def add(
        self,
        rows: "SubscriptionRows",
        primed: Optional[Dict[str, List[str]]] = None,
    ) -> None:
        """Durably record one (bulk) registration — its ``rows`` — and
        the subjects it primed (``id → subjects``)."""
        record = {"primed": list(primed.items())} if primed else {}
        with self.lock:
            self._keep(rows, self._append_bytes(rows.encode(record)))
            self.primed.update(primed or {})

    def remove(self, sub_id: str) -> None:
        """Durably record one removal (it drops the cursor too)."""
        with self.lock:
            self._dead += self._append({"remove": [sub_id]}) + self._row_bytes
            self._removed.add(sub_id)
            for held in (self.cursors, self.primed):
                if sub_id in held:
                    self._dead += len(_compact([sub_id, held.pop(sub_id)]))
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
        """Rewrite the log as one record of the live rows, cursors and
        primed subjects."""
        rows = self.rows
        cursors = self.cursors
        payload = rows.encode(
            {"primed": list(self.primed.items())} if self.primed else {},
            acked=np.array(
                [cursors.get(sub_id, 0) for sub_id in rows.ids],
                dtype=np.int64,
            ),
        )
        crashpoints.crash("registry-fold.pre-rewrite")
        self._wal.rewrite([payload])
        crashpoints.crash("registry-fold.post-rewrite")
        self._dead = 0

    def close(self) -> None:
        self._wal.close()


#: A fold never runs while it would drop fewer bytes than this, so a
#: small registry is not rewritten every few acks.
_FOLD_FLOOR_BYTES = 64 * 1024

#: The number of danger classes (``repro.serve.subscribe.
#: DANGER_CLASSES``): a ``min_class`` is below it.
_CLASSES = 5

#: (attribute, on-disk dtype, values per row, default) of each column,
#: in block order.  A default is "no predicate": the row of a ``filter``
#: registered at sequence 0 without any.
_COLUMNS = (
    ("boxes", "<f8", 4, np.nan),
    ("floors", "<f8", 1, np.nan),
    ("created", "<i8", 1, 0),
    ("municipality", "<i4", 1, -1),
    ("confirmed", "<i1", 1, -1),
    ("kind", "<i1", 1, 0),
    ("min_class", "<i1", 1, 0),
    ("query", "<i4", 1, -1),
)
#: The acknowledged-cursor column a fold adds.
_ACKED = (("acked", "<i8", 1, 0),)
#: About what one ``[start, stop)`` range costs in a record's head: a
#: column lists its ranges only when they cost less than the rows they
#: skip.
_RANGE_BYTES = 16
#: (table, column) of the coded columns: codes into a list of texts.
_CODED = (("names", "municipality"), ("queries", "query"))

#: A registry-log add starts with these bytes, then one packed block
#: (a JSON record starts with ``{``).
_PACKED = b"\x00RGZ"
#: An add as earlier versions wrote it: the same body, not packed.
_MAGIC = b"\x00RGF"


class SubscriptionRows:
    """Subscriptions of every kind as columns, one row per subscription.

    * ``ids`` — the subscription ids (a list of str);
    * ``kind`` — int8 index into :data:`KINDS`;
    * ``boxes`` — an ``(n, 4)`` float64 array of ``minx, miny, maxx,
      maxy``, a NaN row for no geofence;
    * ``floors`` — the confidence floor, NaN for none;
    * ``confirmed`` — int8: −1 for either, 0 for unconfirmed only, 1 for
      confirmed only;
    * ``municipality`` — int32 index into ``names``, −1 for none;
    * ``min_class`` — int8: the danger class an ``fwi`` row notifies
      from (0 on other kinds);
    * ``query`` — int32 index into ``queries``, the standing-query
      texts, −1 on rows that are not ``stsparql``;
    * ``created`` — int64 ``created_sequence``.

    It is what the subscription validator returns, the table the
    subscription registry keeps, and the registry log's binary
    record (:meth:`encode`, :meth:`decode`).
    """

    #: The array attributes, one value (a box: four) per row.
    COLUMNS = tuple(name for name, _, _, _ in _COLUMNS)

    __slots__ = ("ids", "names", "queries") + COLUMNS

    def __init__(
        self,
        ids: List[str],
        names: Sequence[str] = (),
        queries: Sequence[str] = (),
        **columns: np.ndarray,
    ) -> None:
        """Rows of ``ids``; a column not given holds its default on
        every row."""
        n = len(ids)
        self.ids = ids
        self.names = list(names)
        self.queries = list(queries)
        for name, dtype, per_row, default in _COLUMNS:
            column = columns.get(name)
            if column is None:
                shape = (n, per_row) if per_row > 1 else (n,)
                column = np.full(shape, default, dtype=dtype)
            setattr(self, name, column)

    def __len__(self) -> int:
        return len(self.ids)

    def take(self, index: np.ndarray) -> "SubscriptionRows":
        """The rows at ``index``, in that order, with the name and query
        tables cut to what they use."""
        columns = {name: getattr(self, name)[index] for name in self.COLUMNS}
        names, columns["municipality"] = _used(
            self.names, columns["municipality"]
        )
        queries, columns["query"] = _used(self.queries, columns["query"])
        return SubscriptionRows(
            [self.ids[i] for i in index.tolist()], names, queries, **columns
        )

    def extend(self, rows: "SubscriptionRows") -> int:
        """Append ``rows``, their names and query texts coded into this
        table's; returns the first new row number.  The arrays grow
        geometrically, so rows past ``len(self)`` are unused."""
        start = len(self)
        end = start + len(rows)
        if end > len(self.floors):
            capacity = max(end, 2 * len(self.floors))
            for name in self.COLUMNS:
                old = getattr(self, name)
                new = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
                new[:start] = old[:start]
                setattr(self, name, new)
        for name in self.COLUMNS:
            getattr(self, name)[start:end] = getattr(rows, name)[: len(rows)]
        for name, column in _CODED:
            table = getattr(self, name)
            codes = {text: code for code, text in enumerate(table)}
            for text in getattr(rows, name):
                if text not in codes:
                    codes[text] = len(table)
                    table.append(text)
            remap = [codes[text] for text in getattr(rows, name)] + [-1]
            getattr(self, column)[start:end] = np.array(
                remap, dtype=np.int32
            )[getattr(rows, column)[: len(rows)]]
        self.ids.extend(rows.ids)
        return start

    # -- the binary record -------------------------------------------------

    def encode(
        self,
        head: Optional[Dict[str, Any]] = None,
        acked: Optional[np.ndarray] = None,
    ) -> bytes:
        """One registry-log record: :data:`_PACKED`, then one packed
        block (:func:`~repro.durable.codec.pack_block`) of the body —
        the byte length of a compact JSON head, the head, then the
        column blocks and the ids.

        The head holds the row count, the id width
        (:func:`_encode_ids`), the municipality names, the query texts,
        ``head``'s own keys (the subjects a registration primed) and
        how each column is written.  A column
        at its default on every row is not written; one equal on every
        row otherwise is its value, once, in ``"shared"``.  Any other
        is a block (``"blocks"``) of every row, or, when listing them
        costs less than the rows they skip, of the ``[start, stop)``
        ranges of rows where it is not its default that ``"ranges"``
        names — so a column that few rows set (``kind``, ``min_class``
        and ``query`` beside thousands of filters) costs only those
        rows.  Boxes are written as ``minx, miny, width, height``
        (``"extents"`` in the head) when adding each width and height
        back gives every fenced row's ``maxx, maxy`` bit for bit: a
        workload's fences mostly share a size, which deflates where
        their far corners do not.  Blocks follow in :data:`_COLUMNS`
        order — with ``acked``, each row's acknowledged cursor (0 for
        none), as the last — then the ids as :func:`_encode_ids` writes
        them.  The packed bytes are a function of the rows: the level
        and the layout are constants.
        """
        doc: Dict[str, Any] = dict(head or {})
        boxes = self.boxes
        extents = np.concatenate(
            [boxes[:, :2], boxes[:, 2:] - boxes[:, :2]], axis=1
        )
        fenced = ~np.isnan(boxes).any(axis=1)
        if np.array_equal(
            (extents[fenced, :2] + extents[fenced, 2:]).view(np.uint64),
            boxes[fenced, 2:].view(np.uint64),
        ):
            boxes = extents
            doc["extents"] = True
        columns = [
            (name, dtype, boxes if name == "boxes" else getattr(self, name),
             default)
            for name, dtype, _, default in _COLUMNS
        ]
        if acked is not None:
            columns.append(("acked", "<i8", acked, 0))
        width, ids = _encode_ids(self.ids)
        doc.update(
            rows=len(self), id_width=width, names=self.names,
            queries=self.queries,
        )
        shared: Dict[str, Any] = {}
        blocks: List[str] = []
        ranges: Dict[str, List[List[int]]] = {}
        data = []
        for name, dtype, column, default in columns:
            if not len(column):
                continue
            if not _differs(column, column[0]).any():
                if _differs(column[:1], default)[0]:
                    shared[name] = _json_value(column[0])
                continue
            written = _differs(column, default)
            runs = _runs(written)
            if _RANGE_BYTES * len(runs) < column[~written].nbytes:
                ranges[name] = runs
            else:
                written[:] = True
            blocks.append(name)
            data.append(column[written].astype(dtype, copy=False).tobytes())
        doc.update(shared=shared, blocks=blocks)
        if ranges:
            doc["ranges"] = ranges
        header = _compact(doc)
        return _PACKED + pack_block(
            b"".join([struct.pack("<I", len(header)), header] + data + [ids])
        )

    @classmethod
    def decode(
        cls, payload: bytes
    ) -> Tuple[Dict[str, Any], "SubscriptionRows"]:
        """``(head, rows)`` of an :meth:`encode` record, or of an
        unpacked :data:`_MAGIC` one — the head with the ``"acked"``
        column (zeros when the record carries no cursors);
        :class:`~repro.errors.DurabilityError` when the record is
        malformed.  A column the record does not name holds its
        default, so a block of filters written before the ``kind``,
        ``min_class`` and ``query`` columns existed reads as
        filters."""
        if payload.startswith(_PACKED):
            body, end = unpack_block(
                payload, len(_PACKED), "subscription block"
            )
            if end != len(payload):
                raise DurabilityError(
                    f"{len(payload) - end} trailing byte(s) after "
                    "subscription block"
                )
        elif payload.startswith(_MAGIC):
            body = payload[len(_MAGIC) :]
        else:
            raise DurabilityError("record is not a subscription block")
        try:
            head, rows = cls._decode_body(body)
            rows._check()
        except (
            struct.error, KeyError, TypeError, IndexError, ValueError
        ) as error:
            raise DurabilityError(
                f"malformed subscription block: {error!r}"
            ) from error
        return head, rows

    @classmethod
    def _decode_body(
        cls, body: bytes
    ) -> Tuple[Dict[str, Any], "SubscriptionRows"]:
        (size,) = struct.unpack_from("<I", body, 0)
        offset = 4
        head = json.loads(body[offset : offset + size].decode("utf-8"))
        offset += size
        n, width = int(head.pop("rows")), int(head.pop("id_width"))
        size = abs(width)
        # Unique ids of ``size`` bytes each bound the row count before
        # anything is allocated for the rows.
        if not 0 <= n <= len(body) or n * size > len(body):
            raise ValueError(f"{n} rows of {size}-byte ids")
        names = [str(name) for name in head.pop("names")]
        queries = [str(text) for text in head.pop("queries", ())]
        shared = head.pop("shared")
        blocks = head.pop("blocks")
        ranges = head.pop("ranges", {})
        extents = head.pop("extents", False)
        columns = {}
        for name, dtype, per_row, default in _COLUMNS + _ACKED:
            shape = (n, per_row) if per_row > 1 else (n,)
            fill = shared.get(name, default)
            column = np.full(
                shape, np.nan if fill is None else fill, dtype=dtype
            )
            if name in blocks:
                spans = ranges.get(name, [[0, n]])
                if not all(0 <= a <= b <= n for a, b in spans) or (
                    sum(b - a for a, b in spans) > n
                ):
                    raise ValueError(f"{name} rows outside [0, {n})")
                at = np.concatenate(
                    [np.arange(a, b, dtype=np.intp) for a, b in spans]
                    + [np.empty(0, dtype=np.intp)]
                )
                block = np.frombuffer(
                    body,
                    dtype=dtype,
                    count=len(at) * per_row,
                    offset=offset,
                )
                offset += block.nbytes
                column[at] = block.reshape((len(at),) + shape[1:])
            columns[name] = column
        if extents:
            columns["boxes"][:, 2:] += columns["boxes"][:, :2]
        ids = body[offset : offset + n * size]
        offset += n * size
        if offset != len(body):
            raise ValueError(
                f"subscription block of {n} rows is {len(body)} bytes, "
                f"expected {offset}"
            )
        head["acked"] = columns.pop("acked")
        rows = cls(_decode_ids(ids, n, width), names, queries, **columns)
        return head, rows

    def _check(self) -> None:
        boxes = self.boxes
        fenced = ~np.isnan(boxes).any(axis=1)
        stsparql = self.kind == KINDS.index("stsparql")
        if not (
            (np.isnan(boxes[~fenced]).all())
            and np.isfinite(boxes[fenced]).all()
            and (boxes[fenced, 0] <= boxes[fenced, 2]).all()
            and (boxes[fenced, 1] <= boxes[fenced, 3]).all()
            and not np.isinf(self.floors).any()
            and np.isin(self.confirmed, (-1, 0, 1)).all()
            and (self.municipality >= -1).all()
            and (self.municipality < len(self.names)).all()
            and ((self.kind >= 0) & (self.kind < len(KINDS))).all()
            and ((self.min_class >= 0) & (self.min_class < _CLASSES)).all()
            and (self.query < len(self.queries)).all()
            and np.array_equal(self.query >= 0, stsparql)
        ):
            raise ValueError("subscription block holds an invalid row")


def _used(table: List[str], codes: np.ndarray) -> Tuple[List[str], np.ndarray]:
    """``table`` cut to the entries ``codes`` use, and ``codes``
    renumbered to match."""
    used = np.unique(codes[codes >= 0])
    remap = np.full(len(table) + 1, -1, dtype=codes.dtype)
    remap[used] = np.arange(len(used))
    return [table[code] for code in used.tolist()], remap[codes]


def _differs(column: np.ndarray, value: Any) -> np.ndarray:
    """Per row, whether ``column`` differs from ``value`` (NaN equals
    NaN)."""
    same = column == value
    if column.dtype.kind == "f":
        same |= np.isnan(column) & np.isnan(value)
    return ~same.reshape(len(column), -1).all(axis=1)


def _runs(mask: np.ndarray) -> List[List[int]]:
    """The ``[start, stop)`` ranges of ``mask``'s true rows."""
    edges = np.flatnonzero(np.diff(mask.astype(np.int8), prepend=0, append=0))
    return edges.reshape(-1, 2).tolist()


def _encode_ids(ids: List[str]) -> Tuple[int, bytes]:
    """``(width, block)`` of ``ids``.  Ids of one even length, all
    lowercase hex digits (the engine mints 12 of them), are written as
    the bytes they spell, and ``width`` is minus the bytes per id;
    otherwise ``width`` is the bytes of the widest id's UTF-8 and the
    block holds each id's UTF-8, NUL-padded to it (an id holds no
    NUL)."""
    text = "".join(ids)
    widths = set(map(len, ids))
    if len(widths) == 1 and text.isascii():
        width = widths.pop()
        spelt = None if width % 2 else _unhex(text)
        if spelt:
            return -(width // 2), spelt
        return width, text.encode("ascii")
    raw = [sub_id.encode("utf-8") for sub_id in ids]
    width = max(map(len, raw), default=0)
    return width, b"".join(sub_id.ljust(width, b"\0") for sub_id in raw)


def _unhex(text: str) -> Optional[bytes]:
    """The bytes ``text`` spells in lowercase hex digits, else None."""
    try:
        spelt = bytes.fromhex(text)
    except ValueError:
        return None
    # fromhex also takes capitals and spaces, which this would lose.
    return spelt if spelt.hex() == text else None


def _decode_ids(block: bytes, count: int, width: int) -> List[str]:
    """Inverse of :func:`_encode_ids`: ``block`` holds ``count`` ids of
    ``abs(width)`` bytes each."""
    if width < 0:
        text = block.hex()
        width *= -2
    elif not width:
        return [""] * count
    elif block.isascii() and b"\0" not in block:
        text = block.decode("ascii")
    else:
        return [
            block[i : i + width].rstrip(b"\0").decode("utf-8")
            for i in range(0, count * width, width)
        ]
    return [text[i : i + width] for i in range(0, count * width, width)]


def _json_value(value: np.ndarray) -> Any:
    """A shared column value for the JSON head (NaN as null)."""
    out = value.tolist()
    if isinstance(out, list):
        return None if any(map(math.isnan, out)) else out
    return None if isinstance(out, float) and math.isnan(out) else out
