"""The write-ahead log: append-only, CRC-framed, fsync-batched.

File layout::

    header:  magic "REPROWAL" | u32 version | u64 base_seq
    record:  u32 payload_len | u64 seq | u8 kind | u32 crc32(payload)
             | payload

Record sequence numbers are assigned by the log and strictly
monotonic; ``base_seq`` in the header carries the numbering across
:meth:`WriteAheadLog.reset` (the post-checkpoint compaction), so a
record's ``seq`` is globally unique for the lifetime of the store and
a checkpoint can say exactly which records it already contains.

Opening an existing log replays it: every record whose frame is
complete and whose CRC matches is yielded; the first incomplete or
corrupt record marks a **torn tail** — everything from there on is
discarded and the file is truncated back to the last good record.  A
torn tail is the expected signature of a crash mid-append, not an
error; corruption *behind* the tail can't be told apart from it and is
handled the same conservative way (nothing after the first bad frame
is trusted).

Fsync policy:

* ``"always"`` — fsync after every append (max durability, slowest),
* ``"commit"`` — fsync only on explicit :meth:`sync` calls; the
  service calls it once per acquisition commit (the default),
* ``"never"`` — never fsync (tests and throughput benchmarks; an OS
  crash may lose the tail, a mere process crash does not).
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.durable import crashpoints
from repro.errors import DurabilityError
from repro.obs import get_metrics, get_tracer

__all__ = ["WalRecord", "WriteAheadLog", "REC_BATCH"]

_metrics = get_metrics()
_tracer = get_tracer()

_MAGIC = b"REPROWAL"
_VERSION = 1
_HEADER = struct.Struct("<8sIQ")
_FRAME = struct.Struct("<IQBI")

#: The only record kind so far: one journal operation batch.
REC_BATCH = 1

#: Upper bound on a single record payload (sanity check against
#: interpreting garbage as a gigantic length).
_MAX_PAYLOAD = 1 << 30

FSYNC_POLICIES = ("always", "commit", "never")


@dataclass(frozen=True)
class WalRecord:
    """One replayed record."""

    seq: int
    kind: int
    payload: bytes


class WriteAheadLog:
    """An append-only log over one file (single-writer)."""

    def __init__(
        self,
        path: str,
        fsync: str = "commit",
        crash_sites: bool = True,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise DurabilityError(
                f"fsync policy must be one of {FSYNC_POLICIES}, "
                f"got {fsync!r}"
            )
        self.path = path
        self.fsync = fsync
        #: Whether the ``wal.append.*`` crashpoints fire for this log.
        #: The crash matrix arms them by *hit count* against the triple
        #: WAL's commit order; secondary logs (the notification log)
        #: opt out so they do not shift that counting.
        self.crash_sites = crash_sites
        self._truncated_bytes = 0
        if os.path.exists(path):
            records, end, base_seq, truncated = self._scan(path)
            self._replayed: List[WalRecord] = records
            self._base_seq = base_seq
            self._next_seq = (
                records[-1].seq + 1 if records else base_seq + 1
            )
            self._fh = open(path, "r+b")
            if truncated:
                self._fh.truncate(end)
                self._truncated_bytes = truncated
                if _metrics.enabled:
                    _metrics.counter(
                        "wal_torn_tail_truncations_total",
                        "Torn WAL tails discarded during replay",
                    ).inc()
                    _metrics.counter(
                        "wal_torn_tail_bytes_total",
                        "Bytes discarded from torn WAL tails",
                    ).inc(truncated)
            self._fh.seek(0, os.SEEK_END)
            if _metrics.enabled and records:
                _metrics.counter(
                    "wal_records_replayed_total",
                    "WAL records replayed on open",
                ).inc(len(records))
        else:
            self._replayed = []
            self._base_seq = 0
            self._next_seq = 1
            self._fh = open(path, "w+b")
            self._write_header(self._fh, 0)
        self._appended_unsynced = False

    # -- introspection ---------------------------------------------------

    @property
    def base_seq(self) -> int:
        """Sequence numbering floor carried in the file header."""
        return self._base_seq

    @property
    def last_seq(self) -> int:
        """Highest sequence number durably framed (base when empty)."""
        return self._next_seq - 1

    @property
    def replayed(self) -> List[WalRecord]:
        """Records recovered when this log was opened."""
        return list(self._replayed)

    @property
    def truncated_bytes(self) -> int:
        """Bytes of torn tail discarded when this log was opened."""
        return self._truncated_bytes

    def size_bytes(self) -> int:
        return self._fh.tell()

    # -- the write path --------------------------------------------------

    def append(self, payload: bytes, kind: int = REC_BATCH) -> int:
        """Frame and write one record; returns its sequence number.

        The record is durable only after the fsync implied by the
        policy (``"always"`` — immediately; ``"commit"`` — at the next
        :meth:`sync`).
        """
        seq = self._next_seq
        frame = _FRAME.pack(
            len(payload), seq, kind, zlib.crc32(payload)
        )
        if self.crash_sites and crashpoints.fire("wal.append.torn"):
            # A crash mid-write: the frame lands but only half the
            # payload does.  Replay must refuse this record.
            self._fh.write(frame)
            self._fh.write(payload[: len(payload) // 2])
            self._fh.flush()
            crashpoints.die(site="wal.append.torn")
        self._fh.write(frame)
        self._fh.write(payload)
        self._fh.flush()
        if self.crash_sites:
            crashpoints.crash("wal.append.pre-sync")
        if self.fsync == "always":
            os.fsync(self._fh.fileno())
            if _metrics.enabled:
                _metrics.counter(
                    "wal_fsyncs_total", "WAL fsync calls"
                ).inc()
        else:
            self._appended_unsynced = True
        self._next_seq = seq + 1
        if _metrics.enabled:
            _metrics.counter(
                "wal_appends_total", "Records appended to the WAL"
            ).inc()
            _metrics.counter(
                "wal_appended_bytes_total", "Payload bytes WAL-appended"
            ).inc(len(payload))
        return seq

    def sync(self) -> None:
        """Make everything appended so far durable (policy permitting).

        This is the *commit point* under the default ``"commit"``
        policy: once it returns, the records survive power loss.
        """
        self._fh.flush()
        if self.fsync != "never" and self._appended_unsynced:
            os.fsync(self._fh.fileno())
            self._appended_unsynced = False
            if _metrics.enabled:
                _metrics.counter(
                    "wal_fsyncs_total", "WAL fsync calls"
                ).inc()

    def reset(self, base_seq: Optional[int] = None) -> None:
        """Start a fresh log whose numbering continues after a
        checkpoint: :meth:`rewrite` with no records (``base_seq``
        defaulting to :attr:`last_seq`).  Replay handles either file a
        crash can leave (records at or below the checkpoint's sequence
        are skipped)."""
        self.rewrite((), base_seq)

    def rewrite(
        self,
        payloads: Iterable[bytes],
        base_seq: Optional[int] = None,
    ) -> None:
        """Atomically replace the log with ``payloads``, numbered from
        ``base_seq + 1`` (``base_seq`` defaulting to :attr:`last_seq`).

        The new file is written beside the old one, fsynced, and
        renamed over it — a crash at any instant leaves either the old
        complete log or the new complete one, never a log that lost
        records both versions hold.
        """
        if base_seq is None:
            base_seq = self.last_seq
        seq = base_seq
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, base_seq))
            for payload in payloads:
                seq += 1
                fh.write(
                    _FRAME.pack(
                        len(payload), seq, REC_BATCH, zlib.crc32(payload)
                    )
                )
                fh.write(payload)
            fh.flush()
            if self.fsync != "never":
                os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._sync_dir()
        self._fh.close()
        self._fh = open(self.path, "r+b")
        self._fh.seek(0, os.SEEK_END)
        self._base_seq = base_seq
        self._next_seq = seq + 1
        self._replayed = []
        self._appended_unsynced = False

    def close(self) -> None:
        if not self._fh.closed:
            self.sync()
            self._fh.close()

    # -- internals --------------------------------------------------------

    def _write_header(self, fh, base_seq: int) -> None:
        fh.write(_HEADER.pack(_MAGIC, _VERSION, base_seq))
        fh.flush()
        if self.fsync != "never":
            os.fsync(fh.fileno())

    def _sync_dir(self) -> None:
        if self.fsync == "never":
            return
        try:
            dir_fd = os.open(
                os.path.dirname(self.path) or ".", os.O_RDONLY
            )
        except OSError:  # pragma: no cover - platform without dir fds
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)

    @staticmethod
    def _scan(path: str):
        """Read every intact record; returns ``(records, valid_end,
        base_seq, torn_bytes)``."""
        with _tracer.span("durable.wal.scan", path=path):
            with open(path, "rb") as fh:
                data = fh.read()
        size = len(data)
        if size < _HEADER.size:
            # The file was created but the header never landed: treat
            # the whole file as a torn tail of nothing.
            return [], 0, 0, size
        magic, version, base_seq = _HEADER.unpack_from(data, 0)
        if magic != _MAGIC:
            raise DurabilityError(
                f"{path!r} is not a WAL (bad magic {magic!r})"
            )
        if version != _VERSION:
            raise DurabilityError(
                f"unsupported WAL version {version} in {path!r}"
            )
        records: List[WalRecord] = []
        offset = _HEADER.size
        expected = base_seq + 1
        while True:
            frame_end = offset + _FRAME.size
            if frame_end > size:
                break  # torn frame header (or clean EOF)
            length, seq, kind, crc = _FRAME.unpack_from(data, offset)
            if length > _MAX_PAYLOAD or seq != expected:
                break  # garbage frame: stop trusting the tail
            payload_end = frame_end + length
            if payload_end > size:
                break  # torn payload
            payload = data[frame_end:payload_end]
            if zlib.crc32(payload) != crc:
                break  # corrupt payload
            records.append(WalRecord(seq=seq, kind=kind, payload=payload))
            offset = payload_end
            expected = seq + 1
        return records, offset, base_seq, size - offset

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<WriteAheadLog {self.path!r} base={self._base_seq} "
            f"last={self.last_seq} fsync={self.fsync}>"
        )


def batch_payload(meta: Optional[Dict], ops_bytes: bytes) -> bytes:
    """Frame a batch payload: u32 meta length | meta JSON | ops."""
    import json

    meta_bytes = json.dumps(
        meta or {}, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return (
        struct.pack("<I", len(meta_bytes)) + meta_bytes + ops_bytes
    )


def split_batch_payload(payload: bytes):
    """Inverse of :func:`batch_payload` → ``(meta, ops_bytes)``."""
    import json

    if len(payload) < 4:
        raise DurabilityError("truncated batch payload")
    (meta_len,) = struct.unpack_from("<I", payload, 0)
    meta_end = 4 + meta_len
    if meta_end > len(payload):
        raise DurabilityError("truncated batch metadata")
    try:
        meta = json.loads(payload[4:meta_end].decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise DurabilityError(
            f"corrupt batch metadata: {error}"
        ) from error
    return meta, payload[meta_end:]
