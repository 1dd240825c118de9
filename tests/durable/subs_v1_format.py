"""A writer of the previous subscriber-log format, the oracle for
reading it.

That format logged a notification batch as compact JSON —
``{"sequence", "wal_seq", "subjects", "refs"}``, each ref
``[subscription id, kind, subject index]`` — and a registration as an
uncompressed column block: ``\\x00RGF`` | u32 head length | compact
JSON head | one little-endian block per column | the ids, UTF-8 and
NUL-padded to the widest.  :func:`batch_payload` and
:func:`add_payload` encode those records here, not through
``repro.durable.cursors``, so a reader that decodes them agrees with
an independent writer.  :func:`downgrade` rewrites a ``subs/``
directory the current engine wrote into that form, batch for batch
and row for row.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from repro.durable.cursors import NotificationBatch, SubscriptionRows
from repro.durable.wal import WriteAheadLog

#: An uncompressed column block starts with these bytes.
MAGIC = b"\x00RGF"

#: (column, on-disk dtype) in block order, then the fold's cursors.
COLUMNS = (
    ("boxes", "<f8"),
    ("floors", "<f8"),
    ("created", "<i8"),
    ("municipality", "<i4"),
    ("confirmed", "<i1"),
    ("kind", "<i1"),
    ("min_class", "<i1"),
    ("query", "<i4"),
)


def _compact(doc) -> bytes:
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def batch_payload(batch: NotificationBatch) -> bytes:
    """``batch`` as a JSON record."""
    return _compact(
        {
            "sequence": batch.sequence,
            "wal_seq": batch.wal_seq,
            "subjects": batch.subjects,
            "refs": batch.refs,
        }
    )


def add_payload(
    rows: SubscriptionRows, head=None, acked=None, columns=COLUMNS
) -> bytes:
    """``rows`` as an uncompressed column block, each of ``columns``
    written for every row (the layout also allows shared values and
    row ranges; a reader must take either).  A block of ``columns``
    without ``query`` has no query table, as before standing queries
    were columns."""
    raw = [sub_id.encode("utf-8") for sub_id in rows.ids]
    width = max(map(len, raw), default=0)
    blocks = [name for name, _ in columns]
    data = [
        np.ascontiguousarray(getattr(rows, name)[: len(rows)], dtype=dtype)
        .tobytes()
        for name, dtype in columns
    ]
    if acked is not None:
        blocks.append("acked")
        data.append(np.asarray(acked, dtype="<i8").tobytes())
    doc = dict(head or {})
    doc.update(rows=len(rows), id_width=width, names=rows.names)
    if "query" in blocks:
        doc["queries"] = rows.queries
    doc.update(shared={}, blocks=blocks)
    header = _compact(doc)
    return b"".join(
        [MAGIC, struct.pack("<I", len(header)), header]
        + data
        + [sub_id.ljust(width, b"\0") for sub_id in raw]
    )


def _rewrite(path: str, convert) -> list:
    records, _, base_seq, _ = WriteAheadLog._scan(path)
    payloads = [convert(record.payload) for record in records]
    wal = WriteAheadLog(path, fsync="never", crash_sites=False)
    try:
        wal.rewrite(payloads, base_seq)
    finally:
        wal.close()
    return payloads


def _old_add(payload: bytes) -> bytes:
    if payload.startswith(b"{"):
        return payload
    head, rows = SubscriptionRows.decode(payload)
    acked = head.pop("acked")
    return add_payload(rows, head, acked if acked.any() else None)


def downgrade(subs_dir: str):
    """Rewrite the closed engine state in ``subs_dir`` in the previous
    format; returns the ``(notification, registry)`` payloads written."""
    return (
        _rewrite(
            os.path.join(subs_dir, "notifications.log"),
            lambda p: batch_payload(NotificationBatch.from_payload(p)),
        ),
        _rewrite(os.path.join(subs_dir, "registry.log"), _old_add),
    )
