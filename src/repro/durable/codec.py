"""Binary codec for the durable layer: term tables and id operations.

The durable form is dictionary-encoded like the live
:class:`~repro.rdf.graph.Graph`: a term's text is written once, when
it enters the graph's dictionary, and everything after that names it
by its u32 term id.  Ids are append-only for a graph's lifetime, so an
id written in one record means the same term in every later one.
Shapes shared by WAL records and checkpoint bodies:

* a **term table** — a run of terms in id order: u32 count | one kind
  byte per term (URI / blank node / plain, typed or language-tagged
  literal) | one u32 length per string, in code points | u32 byte
  length | the strings' UTF-8, concatenated.  A URI, a blank node or a
  plain literal has one string; a typed or language-tagged literal two
  (lexical form, then datatype or tag).  Encoding joins and encodes
  the strings in one call, decoding slices one decoded text;
* a **block** — u32 raw length with the top bit set | u32 packed
  length | the raw bytes as one zlib stream at level
  :data:`BLOCK_LEVEL`.  :func:`encode_terms` writes a term table as a
  block: its text is mostly WKT and URIs, which repeat heavily and
  deflate to about a fifth.  The level and the layout are constants,
  so the bytes are a function of the terms;
* an **operation batch** — u32 count | one opcode byte per operation
  | three u32 term ids per add / remove (a clear carries none).  The
  ids go through one ``struct`` call, never one per term.

A WAL record (:func:`encode_record`) is u32 ``first_id`` | the term
block of the terms interned since the previous record | the
operation batch; ``first_id`` is the dictionary cursor of the writer
(:class:`~repro.durable.store.DurableStore`), so replay can check that
the record continues the dictionary it rebuilt.  Re-adding terms the
store already wrote costs 13 bytes per operation, however often they
were written before.

Earlier writers stored the term table raw, in records and checkpoints
alike.  :func:`decode_terms` reads both: a raw table starts with its
term count, and no count has the top bit set (a WAL payload is at most
1 GiB, so it cannot hold 2^31 kind bytes), while a block's first u32
always has it.  So one decoder opens every record and checkpoint ever
written, and the next record or checkpoint is a block.

Everything is little-endian.  Decoding validates lengths, kind and
opcode bytes and id ranges, and raises
:class:`~repro.errors.DurabilityError` on anything malformed — framing
CRCs catch torn writes before this layer ever sees them, so a decode
failure here means real corruption.  Inflating is bounded: a declared
raw length above deflate's best ratio (1032:1) over the packed bytes
is refused before any work, and the stream is inflated to at most the
declared length, so a corrupt length can neither allocate beyond it
nor run past the block; a stream that ends short of it, runs on, or
leaves bytes over is refused too.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.errors import DurabilityError
from repro.rdf.graph import OP_ADD, OP_CLEAR, OP_REMOVE, Op
from repro.rdf.term import BNode, Literal, Term, URI

__all__ = [
    "OP_ADD",
    "OP_REMOVE",
    "OP_CLEAR",
    "BLOCK_LEVEL",
    "encode_terms",
    "decode_terms",
    "pack_block",
    "unpack_block",
    "pack_ids",
    "unpack_ids",
    "encode_ops",
    "decode_ops",
    "encode_record",
    "split_record",
]

_U32 = struct.Struct("<I")
#: A block's header: flagged raw length | packed length.
_BLOCK = struct.Struct("<II")
#: The top bit of a block's first u32, never set in a term count.
_BLOCK_FLAG = 0x80000000
#: Deflate's best ratio: no valid stream inflates beyond 1032x.
_MAX_RATIO = 1032

#: zlib level of every block.  The fastest one: a term table's repeats
#: (URI prefixes, WKT coordinate runs) are near and long, so level 1
#: already finds most of them, and it keeps a commit's compression
#: under a millisecond.
BLOCK_LEVEL = 1

# Term kind bytes.
_K_URI = 1
_K_BNODE = 2
_K_PLAIN = 3  # literal, no datatype, no language
_K_TYPED = 4  # literal with datatype URI
_K_LANG = 5  # literal with language tag
_KINDS = frozenset((_K_URI, _K_BNODE, _K_PLAIN, _K_TYPED, _K_LANG))
_OPCODES = frozenset((OP_ADD, OP_REMOVE, OP_CLEAR))


def _take_u32(buf: bytes, offset: int, what: str) -> Tuple[int, int]:
    if offset + 4 > len(buf):
        raise DurabilityError(f"truncated {what} in record")
    return _U32.unpack_from(buf, offset)[0], offset + 4


def _take(buf: bytes, offset: int, size: int, what: str):
    end = offset + size
    if end > len(buf):
        raise DurabilityError(f"truncated {what} in record")
    return buf[offset:end], end


def pack_ids(ids: Sequence[int]) -> bytes:
    """``ids`` as little-endian u32s, in one ``struct`` call."""
    return struct.pack(f"<{len(ids)}I", *ids)


def unpack_ids(
    buf: bytes, offset: int, count: int
) -> Tuple[Tuple[int, ...], int]:
    """Inverse of :func:`pack_ids` → ``(ids, next_offset)``."""
    if offset + 4 * count > len(buf):
        raise DurabilityError("truncated term ids in record")
    ids = struct.unpack_from(f"<{count}I", buf, offset)
    return ids, offset + 4 * count


def _term_table(terms: Iterable[Term]) -> bytes:
    """The raw term table of ``terms``, in the order given."""
    kinds = bytearray()
    strings: List[str] = []
    for term in terms:
        if isinstance(term, URI):
            kinds.append(_K_URI)
            strings.append(term.value)
        elif isinstance(term, BNode):
            kinds.append(_K_BNODE)
            strings.append(term.label)
        elif isinstance(term, Literal):
            if term.language is not None:
                kinds.append(_K_LANG)
                strings += (term.lexical, term.language)
            elif term.datatype is not None:
                kinds.append(_K_TYPED)
                strings += (term.lexical, term.datatype)
            else:
                kinds.append(_K_PLAIN)
                strings.append(term.lexical)
        else:
            raise DurabilityError(
                f"cannot encode term of type {type(term).__name__}"
            )
    blob = "".join(strings).encode("utf-8")
    return b"".join(
        (
            _U32.pack(len(kinds)),
            kinds,
            pack_ids([len(text) for text in strings]),
            _U32.pack(len(blob)),
            blob,
        )
    )


def pack_block(raw: bytes) -> bytes:
    """``raw`` as one block: flagged raw length, packed length, zlib
    stream at :data:`BLOCK_LEVEL`."""
    if len(raw) >= _BLOCK_FLAG:
        raise DurabilityError(f"cannot pack a {len(raw)}-byte block")
    packed = zlib.compress(raw, BLOCK_LEVEL)
    return _BLOCK.pack(len(raw) | _BLOCK_FLAG, len(packed)) + packed


def unpack_block(buf: bytes, offset: int, what: str) -> Tuple[bytes, int]:
    """Inflate the block at ``offset`` → ``(raw bytes, next_offset)``,
    never past its declared lengths."""
    head, offset = _take(buf, offset, _BLOCK.size, what)
    flagged, size = _BLOCK.unpack(head)
    if not flagged & _BLOCK_FLAG:
        raise DurabilityError(f"{what} is not a block")
    raw_size = flagged ^ _BLOCK_FLAG
    packed, offset = _take(buf, offset, size, what)
    if raw_size > _MAX_RATIO * size:
        raise DurabilityError(
            f"{what} declares {raw_size} bytes from {size} packed ones"
        )
    inflater = zlib.decompressobj()
    try:
        # One byte over the declared size tells a stream that runs on.
        raw = inflater.decompress(packed, raw_size + 1)
    except zlib.error as error:
        raise DurabilityError(f"corrupt {what}: {error}") from error
    if len(raw) != raw_size or not inflater.eof or inflater.unused_data:
        raise DurabilityError(
            f"{what} does not inflate to its declared {raw_size} bytes"
        )
    return raw, offset


def encode_terms(terms: Iterable[Term]) -> bytes:
    """The term table of ``terms``, in the order given, as a block."""
    return pack_block(_term_table(terms))


def decode_terms(buf: bytes, offset: int = 0) -> Tuple[List[Term], int]:
    """Decode the term block, or an earlier writer's raw term table, at
    ``offset`` → ``(terms, next_offset)``."""
    first, _ = _take_u32(buf, offset, "term count")
    if not first & _BLOCK_FLAG:
        return _decode_table(buf, offset)
    raw, offset = unpack_block(buf, offset, "term block")
    terms, end = _decode_table(raw, 0)
    if end != len(raw):
        raise DurabilityError(
            f"{len(raw) - end} trailing byte(s) in term block"
        )
    return terms, offset


def _decode_table(buf: bytes, offset: int) -> Tuple[List[Term], int]:
    count, offset = _take_u32(buf, offset, "term count")
    kinds, offset = _take(buf, offset, count, "term kinds")
    unknown = set(kinds) - _KINDS
    if unknown:
        raise DurabilityError(f"unknown term kind byte {min(unknown)}")
    lengths, offset = unpack_ids(
        buf, offset, count + kinds.count(_K_TYPED) + kinds.count(_K_LANG)
    )
    size, offset = _take_u32(buf, offset, "term text length")
    blob, offset = _take(buf, offset, size, "term text")
    try:
        text = bytes(blob).decode("utf-8")
    except UnicodeDecodeError as error:
        raise DurabilityError(f"corrupt term text: {error}") from error
    if sum(lengths) != len(text):
        raise DurabilityError("term lengths do not match the term text")
    strings = []
    start = 0
    for length in lengths:
        strings.append(text[start:start + length])
        start += length
    nxt = iter(strings).__next__
    literal = Literal.from_str
    terms: List[Term] = []
    try:
        for kind in kinds:
            if kind == _K_URI:
                terms.append(URI(nxt()))
            elif kind == _K_TYPED:
                terms.append(literal(nxt(), nxt()))
            elif kind == _K_PLAIN:
                terms.append(literal(nxt()))
            elif kind == _K_LANG:
                terms.append(literal(nxt(), None, nxt()))
            else:
                terms.append(BNode(nxt()))
    except ValueError as error:  # an empty URI
        raise DurabilityError(f"corrupt term: {error}") from error
    return terms, offset


def encode_ops(
    ops: Iterable[Op], term_id: Callable[[Term], Optional[int]]
) -> bytes:
    """Serialize a journal operation batch as term ids (``term_id``
    maps a term to its dictionary id, None when it has none)."""
    opcodes = bytearray()
    ids: List[Optional[int]] = []
    for opcode, triple in ops:
        if opcode == OP_ADD or opcode == OP_REMOVE:
            if triple is None:
                raise DurabilityError(
                    "add/remove operation without a triple"
                )
            ids.extend(map(term_id, triple))
        elif opcode != OP_CLEAR:
            raise DurabilityError(f"unknown opcode {opcode!r}")
        opcodes.append(opcode)
    if None in ids:
        raise DurabilityError(
            "operation names a term the dictionary does not hold"
        )
    return _U32.pack(len(opcodes)) + bytes(opcodes) + pack_ids(ids)


def decode_ops(
    buf: bytes,
    offset: int,
    term_count: int,
    term_for_id: Callable[[int], Term],
) -> List[Op]:
    """Decode the operation batch at ``offset`` against a dictionary of
    ``term_count`` terms, read through ``term_for_id`` without copying
    it (strict: the batch must end the buffer, and every id must be in
    the dictionary)."""
    count, offset = _take_u32(buf, offset, "operation count")
    opcodes, offset = _take(buf, offset, count, "opcodes")
    unknown = set(opcodes) - _OPCODES
    if unknown:
        raise DurabilityError(f"unknown opcode byte {min(unknown)}")
    ids, offset = unpack_ids(
        buf, offset, 3 * (count - opcodes.count(OP_CLEAR))
    )
    if offset != len(buf):
        raise DurabilityError(
            f"{len(buf) - offset} trailing byte(s) after operation batch"
        )
    if ids and max(ids) >= term_count:
        raise DurabilityError(
            f"operation names term id {max(ids)}, beyond the "
            f"{term_count}-term dictionary"
        )
    nxt = iter([term_for_id(tid) for tid in ids]).__next__
    return [
        (OP_CLEAR, None)
        if opcode == OP_CLEAR
        else (opcode, (nxt(), nxt(), nxt()))
        for opcode in opcodes
    ]


def encode_record(
    first_id: int,
    terms: Sequence[Term],
    ops: Iterable[Op],
    term_id: Callable[[Term], Optional[int]],
) -> bytes:
    """One WAL record body: the terms interned from id ``first_id`` on
    since the previous record, then ``ops`` as ids."""
    return (
        _U32.pack(first_id)
        + encode_terms(terms)
        + encode_ops(ops, term_id)
    )


def split_record(buf: bytes) -> Tuple[int, List[Term], int]:
    """A record's ``(first_id, new terms, offset of its operation
    batch)``; :func:`decode_ops` decodes the batch once the new terms
    are in the dictionary."""
    first_id, offset = _take_u32(buf, 0, "first term id")
    terms, offset = decode_terms(buf, offset)
    return first_id, terms, offset
