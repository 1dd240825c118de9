"""Binary codec for RDF terms and journal operation batches.

WAL records and checkpoint bodies share one wire format, chosen for
replay speed and density rather than readability:

* strings are u32-length-prefixed UTF-8,
* a term is one kind byte (URI / blank node / plain, typed or
  language-tagged literal) followed by its strings,
* an operation batch is a u32 count followed by one opcode byte per
  operation (add / remove carry a triple, clear carries nothing).

Everything is little-endian.  Decoding validates kind and opcode bytes
and raises :class:`~repro.errors.DurabilityError` on anything
malformed — framing CRCs catch torn writes before this layer ever sees
them, so a decode failure here means real corruption.
"""

from __future__ import annotations

import struct
from typing import Iterable, List, Tuple

from repro.errors import DurabilityError
from repro.rdf.graph import OP_ADD, OP_CLEAR, OP_REMOVE, Op
from repro.rdf.term import BNode, Literal, Term, URI

__all__ = [
    "OP_ADD",
    "OP_REMOVE",
    "OP_CLEAR",
    "encode_term",
    "decode_term",
    "encode_triple",
    "decode_triple",
    "encode_ops",
    "decode_ops",
]

_U32 = struct.Struct("<I")

# Term kind bytes.
_K_URI = 1
_K_BNODE = 2
_K_PLAIN = 3  # literal, no datatype, no language
_K_TYPED = 4  # literal with datatype URI
_K_LANG = 5  # literal with language tag


def _pack_str(out: bytearray, text: str) -> None:
    data = text.encode("utf-8")
    out += _U32.pack(len(data))
    out += data


def _unpack_str(buf: bytes, offset: int) -> Tuple[str, int]:
    end = offset + 4
    if end > len(buf):
        raise DurabilityError("truncated string length in record")
    (length,) = _U32.unpack_from(buf, offset)
    offset, end = end, end + length
    if end > len(buf):
        raise DurabilityError("truncated string payload in record")
    return buf[offset:end].decode("utf-8"), end


def encode_term(out: bytearray, term: Term) -> None:
    """Append the binary form of ``term`` to ``out``."""
    if isinstance(term, URI):
        out.append(_K_URI)
        _pack_str(out, term.value)
    elif isinstance(term, BNode):
        out.append(_K_BNODE)
        _pack_str(out, term.label)
    elif isinstance(term, Literal):
        if term.language is not None:
            out.append(_K_LANG)
            _pack_str(out, term.lexical)
            _pack_str(out, term.language)
        elif term.datatype is not None:
            out.append(_K_TYPED)
            _pack_str(out, term.lexical)
            _pack_str(out, term.datatype)
        else:
            out.append(_K_PLAIN)
            _pack_str(out, term.lexical)
    else:
        raise DurabilityError(
            f"cannot encode term of type {type(term).__name__}"
        )


def decode_term(buf: bytes, offset: int) -> Tuple[Term, int]:
    """Decode one term from ``buf`` at ``offset``; returns
    ``(term, next_offset)``."""
    if offset >= len(buf):
        raise DurabilityError("truncated term kind in record")
    kind = buf[offset]
    offset += 1
    if kind == _K_URI:
        value, offset = _unpack_str(buf, offset)
        return URI(value), offset
    if kind == _K_BNODE:
        label, offset = _unpack_str(buf, offset)
        return BNode(label), offset
    if kind == _K_PLAIN:
        lexical, offset = _unpack_str(buf, offset)
        return Literal(lexical), offset
    if kind == _K_TYPED:
        lexical, offset = _unpack_str(buf, offset)
        datatype, offset = _unpack_str(buf, offset)
        return Literal(lexical, datatype=datatype), offset
    if kind == _K_LANG:
        lexical, offset = _unpack_str(buf, offset)
        language, offset = _unpack_str(buf, offset)
        return Literal(lexical, language=language), offset
    raise DurabilityError(f"unknown term kind byte {kind}")


def encode_triple(out: bytearray, triple: Tuple[Term, Term, Term]) -> None:
    for term in triple:
        encode_term(out, term)


def decode_triple(
    buf: bytes, offset: int
) -> Tuple[Tuple[Term, Term, Term], int]:
    s, offset = decode_term(buf, offset)
    p, offset = decode_term(buf, offset)
    o, offset = decode_term(buf, offset)
    return (s, p, o), offset


def encode_ops(ops: Iterable[Op]) -> bytes:
    """Serialize a journal operation batch."""
    ops = list(ops)
    out = bytearray(_U32.pack(len(ops)))
    for opcode, triple in ops:
        if opcode not in (OP_ADD, OP_REMOVE, OP_CLEAR):
            raise DurabilityError(f"unknown opcode {opcode!r}")
        out.append(opcode)
        if opcode != OP_CLEAR:
            if triple is None:
                raise DurabilityError(
                    "add/remove operation without a triple"
                )
            encode_triple(out, triple)
    return bytes(out)


def decode_ops(buf: bytes) -> List[Op]:
    """Inverse of :func:`encode_ops` (strict: trailing bytes are
    corruption)."""
    if len(buf) < 4:
        raise DurabilityError("truncated operation count")
    (count,) = _U32.unpack_from(buf, 0)
    offset = 4
    ops: List[Op] = []
    for _ in range(count):
        if offset >= len(buf):
            raise DurabilityError("truncated opcode in record")
        opcode = buf[offset]
        offset += 1
        if opcode == OP_CLEAR:
            ops.append((OP_CLEAR, None))
        elif opcode in (OP_ADD, OP_REMOVE):
            triple, offset = decode_triple(buf, offset)
            ops.append((opcode, triple))
        else:
            raise DurabilityError(f"unknown opcode byte {opcode}")
    if offset != len(buf):
        raise DurabilityError(
            f"{len(buf) - offset} trailing byte(s) after operation batch"
        )
    return ops
