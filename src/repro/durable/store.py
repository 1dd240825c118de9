"""Durable graph store: journal → WAL → compacting checkpoints.

:class:`DurableStore` owns one directory::

    <dir>/graph.ckpt   the last compacting checkpoint (atomic rename)
    <dir>/wal.log      batches committed since that checkpoint

The live :class:`~repro.rdf.graph.Graph` journals its own effective
mutations; the owner of the commit loop drains them once per commit
and hands the op list to :meth:`DurableStore.commit`, which frames it
into one WAL record and fsyncs — *that* is the commit point (the same
list becomes the commit's delta for the alert and hotspot-table
consumers).  Every
:attr:`~DurableStore.checkpoint_interval` commits the store compacts:
it serializes a consistent image from the graph's O(1) copy-on-write
``snapshot()`` (the writer is never blocked), renames it in atomically,
and resets the WAL with the checkpoint's sequence number as the new
numbering base.  Replay applies the checkpoint, then only WAL records
*above* the checkpoint's sequence — which is what makes a crash in the
rename→reset window harmless: the old WAL's records are simply
recognized as already contained.

Both files are dictionary-encoded (:mod:`repro.durable.codec`).  A
checkpoint (version 3) is framed like a WAL batch: the metadata of the
newest commit it contains, then the snapshot's whole term table in id
order — dead terms included, so ids never change — then the triple
count and the triples as u32 id triples.  A record's metadata is the
owner's commit state (the service's acquisition cursor), so after a
compaction resets the WAL the cursor is still on disk, in the
checkpoint.  Each WAL record carries the terms the
graph interned since the previous record (from the store's
**dictionary cursor**, ``durable_terms`` in :meth:`DurableStore.stats`)
and then the ops as ids.  Recovery rebuilds the dictionary in order
into an empty graph, checking that every record starts where the
dictionary ends, so ``term_for_id`` answers the same after a restart
as before it.

Checkpoints carry a whole-body CRC; a checkpoint that fails it raises
:class:`~repro.errors.DurabilityError` (unlike a torn WAL *tail*,
which is the expected crash signature and is silently truncated —
completed checkpoints are installed by atomic rename, so a damaged one
means real corruption, not a crash).
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.durable import crashpoints
from repro.durable.codec import (
    OP_ADD,
    OP_CLEAR,
    OP_REMOVE,
    Op,
    decode_ops,
    decode_terms,
    encode_record,
    encode_terms,
    pack_ids,
    split_record,
    unpack_ids,
)
from repro.durable.wal import (
    WriteAheadLog,
    batch_payload,
    split_batch_payload,
)
from repro.errors import DurabilityError
from repro.obs import get_metrics, get_tracer
from repro.rdf.graph import Graph

__all__ = [
    "DurableStore",
    "RecoveryInfo",
    "save_service_state",
    "load_service_state",
]

_metrics = get_metrics()
_tracer = get_tracer()

_CKPT_MAGIC = b"REPROCKP"
_CKPT_VERSION = 3
#: magic | version | last_seq | generation | body crc32 | body length
_CKPT_HEADER = struct.Struct("<8sIQQIQ")
_U64 = struct.Struct("<Q")


@dataclass(frozen=True)
class RecoveryInfo:
    """What :class:`DurableStore` reconstructed on open."""

    checkpoint_seq: int
    checkpoint_triples: int
    replayed_records: int
    replayed_ops: int
    truncated_bytes: int
    seconds: float
    #: Metadata of the newest commit on disk: the newest WAL batch's
    #: (even one the checkpoint already contains), or else the
    #: checkpoint's — the service's acquisition cursor.
    last_meta: Optional[Dict] = field(default=None)
    #: Sequence number and decoded ops of the newest WAL batch on disk
    #: (None when the log is empty) — what crash repair re-evaluates.
    last_seq: Optional[int] = field(default=None)
    last_ops: Optional[List[Op]] = field(default=None)

    def to_dict(self) -> Dict[str, object]:
        return {
            "checkpoint_seq": self.checkpoint_seq,
            "checkpoint_triples": self.checkpoint_triples,
            "replayed_records": self.replayed_records,
            "replayed_ops": self.replayed_ops,
            "truncated_bytes": self.truncated_bytes,
            "seconds": self.seconds,
        }


class DurableStore:
    """WAL + checkpoint persistence for one live graph."""

    CHECKPOINT_NAME = "graph.ckpt"
    WAL_NAME = "wal.log"

    def __init__(
        self,
        directory: str,
        graph: Optional[Graph] = None,
        fsync: str = "commit",
        checkpoint_interval: int = 16,
    ) -> None:
        if checkpoint_interval < 1:
            raise DurabilityError("checkpoint_interval must be >= 1")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.fsync = fsync
        self.checkpoint_interval = checkpoint_interval
        self.graph = graph if graph is not None else Graph()
        self._closed = False
        self._batches_since_checkpoint = 0
        #: The dictionary cursor: terms with a smaller id are on disk
        #: (in the checkpoint or an earlier WAL record).
        self._durable_terms = 0
        self._checkpoint_bytes = 0
        #: Metadata of the newest commit, written into each checkpoint.
        self._last_meta: Optional[Dict] = None
        ckpt = self._checkpoint_path
        wal = self._wal_path
        if os.path.exists(ckpt):
            self.recovery: Optional[RecoveryInfo] = self._recover()
        else:
            # No checkpoint means nothing was ever committed: a WAL
            # left behind by a crash during the very first baseline
            # checkpoint is stale pre-commit state.
            if os.path.exists(wal):
                os.unlink(wal)
            self._wal = WriteAheadLog(wal, fsync=fsync)
            self.recovery = None
            self.checkpoint()  # the baseline: whatever is loaded now

    @staticmethod
    def exists(directory: str) -> bool:
        """True when ``directory`` holds committed durable state."""
        return os.path.exists(
            os.path.join(directory, DurableStore.CHECKPOINT_NAME)
        )

    @property
    def _checkpoint_path(self) -> str:
        return os.path.join(self.directory, self.CHECKPOINT_NAME)

    @property
    def _wal_path(self) -> str:
        return os.path.join(self.directory, self.WAL_NAME)

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    @property
    def batches_since_checkpoint(self) -> int:
        return self._batches_since_checkpoint

    # -- commit ----------------------------------------------------------

    def commit(
        self, ops: List[Op], meta: Optional[Dict] = None
    ) -> Optional[int]:
        """Frame ``ops`` (the graph's drained journal) into one durable
        WAL record.

        Returns the record's sequence number (None when there was
        nothing to write: no operations *and* no metadata).  Once this
        returns, the batch survives a crash — everything after it
        (publication, compaction) is recoverable bookkeeping.
        ``meta`` is the owner's commit state; the newest one also rides
        every later checkpoint.
        """
        self._require_open()
        if not ops and meta is None:
            return None
        # Every term interned since the previous record, not only those
        # the ops name: an add a later clear() voided still interned its
        # terms, and the ids after them must mean the same on replay.
        graph = self.graph
        terms = graph.terms(self._durable_terms)
        payload = batch_payload(
            meta,
            encode_record(self._durable_terms, terms, ops, graph.term_id),
        )
        seq = self._wal.append(payload)
        self._wal.sync()
        self._durable_terms += len(terms)
        self._batches_since_checkpoint += 1
        if meta:
            self._last_meta = meta
        return seq

    def maybe_checkpoint(self) -> bool:
        """Compact when the interval says so; True when it did."""
        if self._batches_since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()
            return True
        return False

    def checkpoint(self) -> None:
        """Serialize a consistent image and reset the WAL.

        Uses the graph's copy-on-write snapshot, so the writer can keep
        mutating while the image is streamed out.  Atomic: temp file →
        fsync → rename → directory fsync → WAL reset; replay keys on
        the stored ``last_seq``, so a crash at any boundary recovers
        exactly.
        """
        self._require_open()
        pending = self.graph.pending_ops
        if pending:
            raise DurabilityError(
                f"checkpoint with {pending} uncommitted journaled "
                "operation(s) — commit() first"
            )
        with _tracer.span(
            "durable.checkpoint", triples=len(self.graph)
        ):
            snap = self.graph.snapshot()
            last_seq = self._wal.last_seq
            # The whole dictionary, dead terms included: ids stay what
            # they are, so any later WAL record decodes against it.
            terms = snap.terms()
            ids = [tid for triple in snap.triples_ids() for tid in triple]
            body = batch_payload(
                self._last_meta,
                b"".join(
                    (encode_terms(terms), _U64.pack(len(snap)), pack_ids(ids))
                ),
            )
            header = _CKPT_HEADER.pack(
                _CKPT_MAGIC,
                _CKPT_VERSION,
                last_seq,
                snap.generation,
                zlib.crc32(body),
                len(body),
            )
            tmp = self._checkpoint_path + ".tmp"
            with open(tmp, "wb") as fh:
                if crashpoints.fire("graph-checkpoint.torn"):
                    fh.write(header)
                    fh.write(body[: len(body) // 2])
                    fh.flush()
                    crashpoints.die(site="graph-checkpoint.torn")
                fh.write(header)
                fh.write(body)
                fh.flush()
                if self.fsync != "never":
                    os.fsync(fh.fileno())
            crashpoints.crash("graph-checkpoint.pre-rename")
            os.replace(tmp, self._checkpoint_path)
            _fsync_dir(self.directory, self.fsync != "never")
            crashpoints.crash("graph-checkpoint.post-rename")
            self._wal.reset(last_seq)
            self._batches_since_checkpoint = 0
            self._durable_terms = len(terms)
            self._checkpoint_bytes = len(header) + len(body)
        if _metrics.enabled:
            _metrics.counter(
                "durable_checkpoints_total",
                "Compacting graph checkpoints written",
            ).inc()
            _metrics.gauge(
                "durable_checkpoint_bytes",
                "Size of the latest graph checkpoint",
            ).set(self._checkpoint_bytes)

    # -- recovery --------------------------------------------------------

    def _recover(self) -> RecoveryInfo:
        start = time.perf_counter()
        with _tracer.span("durable.recover", directory=self.directory):
            last_seq, triples, last_meta = self._load_checkpoint()
            self._wal = WriteAheadLog(self._wal_path, fsync=self.fsync)
            replayed_records = 0
            replayed_ops = 0
            last_ops: Optional[List[Op]] = None
            records = self._wal.replayed
            for record in records:
                meta, body = split_batch_payload(record.payload)
                if meta:
                    last_meta = meta
                if record.seq <= last_seq:
                    continue  # the checkpoint already contains it
                last_ops = self._decode(record.seq, body, intern=True)
                self._apply(last_ops)
                replayed_records += 1
                replayed_ops += len(last_ops)
            if records and records[-1].seq <= last_seq:
                # Contained in the checkpoint, so its terms are in the
                # dictionary already: decode its ops for crash repair.
                _, body = split_batch_payload(records[-1].payload)
                last_ops = self._decode(
                    records[-1].seq, body, intern=False
                )
            self._batches_since_checkpoint = replayed_records
            self._durable_terms = self.graph.term_count()
            self._last_meta = last_meta
        seconds = time.perf_counter() - start
        if _metrics.enabled:
            gauge = _metrics.gauge(
                "durable_recovery_info",
                "Last recovery: replayed records / ops / seconds",
            )
            gauge.set(replayed_records, field="records")
            gauge.set(replayed_ops, field="ops")
            gauge.set(seconds, field="seconds")
        return RecoveryInfo(
            checkpoint_seq=last_seq,
            checkpoint_triples=triples,
            replayed_records=replayed_records,
            replayed_ops=replayed_ops,
            truncated_bytes=self._wal.truncated_bytes,
            seconds=seconds,
            last_meta=last_meta,
            last_seq=records[-1].seq if records else None,
            last_ops=last_ops,
        )

    def _decode(self, seq: int, body: bytes, intern: bool) -> List[Op]:
        """Decode WAL record ``seq``'s ops against the rebuilt
        dictionary, first interning the record's new terms when
        ``intern`` (a record the checkpoint contains has them
        already)."""
        graph = self.graph
        try:
            first_id, terms, offset = split_record(body)
            if intern:
                if first_id != graph.term_count():
                    raise DurabilityError(
                        f"record {seq} starts at term id {first_id}, "
                        f"but the dictionary holds {graph.term_count()} "
                        "terms"
                    )
                graph.extend_terms(terms)
            return decode_ops(body, offset, graph.terms())
        except (DurabilityError, ValueError) as error:
            raise DurabilityError(
                f"WAL {self._wal_path!r}: {error}"
            ) from error

    def _load_checkpoint(self) -> Tuple[int, int, Optional[Dict]]:
        path = self._checkpoint_path
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < _CKPT_HEADER.size:
            raise DurabilityError(f"checkpoint {path!r} is truncated")
        magic, version, last_seq, _generation, crc, length = (
            _CKPT_HEADER.unpack_from(data, 0)
        )
        if magic != _CKPT_MAGIC:
            raise DurabilityError(
                f"{path!r} is not a checkpoint (bad magic {magic!r})"
            )
        if version != _CKPT_VERSION:
            raise DurabilityError(
                f"unsupported checkpoint version {version} in {path!r}"
            )
        body = data[_CKPT_HEADER.size:]
        if len(body) != length or zlib.crc32(body) != crc:
            raise DurabilityError(
                f"checkpoint {path!r} failed its CRC — the file is "
                "corrupt (completed checkpoints are installed "
                "atomically, so this is not a crash artifact)"
            )
        graph = self.graph
        if graph.term_count():
            raise DurabilityError(
                f"cannot recover checkpoint {path!r} into a graph whose "
                f"dictionary already holds {graph.term_count()} terms"
            )
        try:
            meta, body = split_batch_payload(body)
            terms, offset = decode_terms(body, 0)
            if offset + _U64.size > len(body):
                raise DurabilityError("truncated triple count")
            (count,) = _U64.unpack_from(body, offset)
            ids, offset = unpack_ids(body, offset + _U64.size, 3 * count)
            if offset != len(body):
                raise DurabilityError("trailing bytes")
            if ids and max(ids) >= len(terms):
                raise DurabilityError(
                    f"triple names term id {max(ids)}, beyond the "
                    f"{len(terms)}-term dictionary"
                )
            graph.extend_terms(terms)
        except (DurabilityError, ValueError) as error:
            raise DurabilityError(
                f"checkpoint {path!r}: {error}"
            ) from error
        add = graph.add
        nxt = iter([terms[tid] for tid in ids]).__next__
        for _ in range(count):
            add(nxt(), nxt(), nxt())
        self._checkpoint_bytes = len(data)
        return last_seq, count, meta or None

    def _apply(self, ops: List[Op]) -> None:
        graph = self.graph
        for opcode, triple in ops:
            if opcode == OP_ADD:
                graph.add(*triple)
            elif opcode == OP_REMOVE:
                graph._remove_exact(*triple)
            elif opcode == OP_CLEAR:
                graph.clear()

    # -- lifecycle / introspection ---------------------------------------

    def stats(self) -> Dict[str, object]:
        """Health-document fodder."""
        return {
            "wal_last_seq": self._wal.last_seq,
            "wal_bytes": self._wal.size_bytes(),
            "batches_since_checkpoint": self._batches_since_checkpoint,
            "checkpoint_interval": self.checkpoint_interval,
            "pending_ops": self.graph.pending_ops,
            "durable_terms": self._durable_terms,
            "checkpoint_bytes": self._checkpoint_bytes,
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._wal.close()

    def _require_open(self) -> None:
        if self._closed:
            raise DurabilityError("durable store is closed")

    def __enter__(self) -> "DurableStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DurableStore {self.directory!r} "
            f"last_seq={self._wal.last_seq}>"
        )


# -- service-level state -------------------------------------------------


def save_service_state(
    path: str, state: Dict, fsync: bool = True
) -> None:
    """Atomically replace the JSON document at ``path`` (an open's
    ``service.json``).

    Write-to-temp → fsync → rename, with the ``service-checkpoint.*``
    crashpoints at the torn-write and pre-rename boundaries: a crash at
    either leaves the *previous* complete state in place.
    """
    payload = json.dumps(state, sort_keys=True, indent=2).encode(
        "utf-8"
    )
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        if crashpoints.fire("service-checkpoint.torn"):
            fh.write(payload[: len(payload) // 2])
            fh.flush()
            crashpoints.die(site="service-checkpoint.torn")
        fh.write(payload)
        fh.flush()
        if fsync:
            os.fsync(fh.fileno())
    crashpoints.crash("service-checkpoint.pre-rename")
    os.replace(tmp, path)
    _fsync_dir(os.path.dirname(path) or ".", fsync)


def load_service_state(path: str) -> Optional[Dict]:
    """The saved service state, or None when none was ever committed.

    The file only ever appears via atomic rename, so a parse failure is
    corruption, not a crash artifact."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        state = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise DurabilityError(
            f"service state {path!r} is corrupt: {error}"
        ) from error
    if not isinstance(state, dict):
        raise DurabilityError(
            f"service state {path!r} is not a JSON object"
        )
    return state


def _fsync_dir(directory: str, enabled: bool) -> None:
    if not enabled:
        return
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)
