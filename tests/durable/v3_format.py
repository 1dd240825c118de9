"""A writer of the version-3 durable format, the oracle for reading it.

Version 3 stored every term table raw — u32 count | kind bytes | u32
code-point lengths | u32 byte length | UTF-8 text — in WAL records and
checkpoints alike, and a checkpoint's triples as interleaved u32 id
triples.  :func:`downgrade` rewrites a state directory the current
store wrote into that form, term for term and id for id: the
checkpoint as version 3, every WAL record with its term block replaced
by the raw table.  The table is encoded here, not by the codec, so a
reader that decodes these files agrees with an independent writer.
:func:`read_checkpoint` takes a version-4 checkpoint apart without the
store, for the rewrite and for tests that rebuild its state another
way.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.durable import DurableStore
from repro.durable.codec import decode_terms, split_record, unpack_block
from repro.durable.wal import (
    WriteAheadLog,
    batch_payload,
    split_batch_payload,
)
from repro.rdf.term import BNode, Literal, URI

#: magic | version | last_seq | generation | body crc32 | body length
CHECKPOINT_HEADER = struct.Struct("<8sIQQIQ")


def raw_term_table(terms) -> bytes:
    """The version-3 term table of ``terms``."""
    kinds = bytearray()
    strings = []
    for term in terms:
        if isinstance(term, URI):
            kinds.append(1)
            strings.append(term.value)
        elif isinstance(term, BNode):
            kinds.append(2)
            strings.append(term.label)
        elif term.language is not None:
            kinds.append(5)
            strings += [term.lexical, term.language]
        elif term.datatype is not None:
            kinds.append(4)
            strings += [term.lexical, term.datatype]
        else:
            assert isinstance(term, Literal)
            kinds.append(3)
            strings.append(term.lexical)
    text = "".join(strings).encode("utf-8")
    lengths = [len(s) for s in strings]
    return (
        struct.pack("<I", len(kinds))
        + bytes(kinds)
        + struct.pack(f"<{len(lengths)}I", *lengths)
        + struct.pack("<I", len(text))
        + text
    )


def checkpoint_version(directory: str) -> int:
    path = os.path.join(directory, DurableStore.CHECKPOINT_NAME)
    with open(path, "rb") as fh:
        return CHECKPOINT_HEADER.unpack(
            fh.read(CHECKPOINT_HEADER.size)
        )[1]


def read_checkpoint(path: str):
    """A version-4 checkpoint → ``(header fields, metadata, terms,
    (subjects, predicates, objects))``."""
    with open(path, "rb") as fh:
        data = fh.read()
    fields = CHECKPOINT_HEADER.unpack_from(data, 0)
    assert fields[1] == 4
    meta, body = split_batch_payload(data[CHECKPOINT_HEADER.size:])
    terms, offset = decode_terms(body, 0)
    (count,) = struct.unpack_from("<Q", body, offset)
    offset += 8
    columns = []
    for role in ("subject", "predicate", "object"):
        raw, offset = unpack_block(body, offset, role)
        columns.append(struct.unpack(f"<{count}I", raw))
    assert offset == len(body)
    return fields, meta, terms, tuple(columns)


def _downgrade_checkpoint(path: str) -> None:
    fields, meta, terms, columns = read_checkpoint(path)
    magic, _, last_seq, generation, _, _ = fields
    ids = [tid for triple in zip(*columns) for tid in triple]
    body = batch_payload(
        meta,
        raw_term_table(terms)
        + struct.pack("<Q", len(columns[0]))
        + struct.pack(f"<{len(ids)}I", *ids),
    )
    with open(path, "wb") as fh:
        fh.write(
            CHECKPOINT_HEADER.pack(
                magic, 3, last_seq, generation, zlib.crc32(body), len(body)
            )
        )
        fh.write(body)


def _downgrade_wal(path: str) -> int:
    records, _, base_seq, _ = WriteAheadLog._scan(path)
    payloads = []
    for record in records:
        meta, body = split_batch_payload(record.payload)
        first_id, terms, offset = split_record(body)
        payloads.append(
            batch_payload(
                meta,
                struct.pack("<I", first_id)
                + raw_term_table(terms)
                + body[offset:],
            )
        )
    wal = WriteAheadLog(path, fsync="never")
    try:
        wal.rewrite(payloads, base_seq)
    finally:
        wal.close()
    return len(payloads)


def downgrade(directory: str) -> int:
    """Rewrite the durable state in ``directory`` (a closed store's)
    in the version-3 form; returns the number of WAL records."""
    _downgrade_checkpoint(
        os.path.join(directory, DurableStore.CHECKPOINT_NAME)
    )
    return _downgrade_wal(os.path.join(directory, DurableStore.WAL_NAME))
