"""Property-style round-trip tests for the durable binary codec.

Randomized with the stdlib ``random`` module under fixed seeds (no
extra dependencies): each seed derives a reproducible batch of
operations over URIs, blank nodes, and plain / typed / language-tagged
literals — including non-ASCII lexical forms and WKT geometry literals,
the two shapes the wildfire store actually persists.  Operations are
encoded as term ids against a dictionary, the way the store writes
them, and whole record streams are decoded into a fresh dictionary the
way recovery rebuilds one.
"""

from __future__ import annotations

import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.durable.codec import (
    OP_ADD,
    OP_CLEAR,
    OP_REMOVE,
    decode_ops,
    decode_terms,
    encode_ops,
    encode_record,
    encode_terms,
    pack_block,
    split_record,
    unpack_block,
)
from repro.errors import DurabilityError
from repro.rdf.graph import Graph
from repro.rdf.term import BNode, Literal, URI

from tests.durable.v3_format import raw_term_table

#: Deliberately awkward strings: Greek toponyms (the paper's domain),
#: combining marks, astral-plane emoji, embedded quotes and newlines.
_TEXT_POOL = [
    "",
    "hotspot",
    "Πελοπόννησος",
    "Ηλεία 2007 — πύρινο μέτωπο",
    "naïve café́",
    "🔥" * 3,
    'quote " backslash \\ newline \n tab \t',
    " line separator ",
    "a" * 257,
]

_DATATYPES = [
    "http://www.w3.org/2001/XMLSchema#dateTime",
    "http://strdf.di.uoa.gr/ontology#WKT",
    "http://www.w3.org/2001/XMLSchema#float",
]

_LANGS = ["el", "en-GB", "grc"]

_WKT_POOL = [
    "POINT (21.73 38.24)",
    "POLYGON ((21.52 37.91, 21.57 37.91, 21.56 37.88, 21.52 37.91))",
    "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))",
    "GEOMETRYCOLLECTION (POINT (1 2), LINESTRING (0 0, 1 1))",
]


def _random_text(rng: random.Random) -> str:
    if rng.random() < 0.7:
        return rng.choice(_TEXT_POOL)
    return "".join(
        chr(rng.choice([rng.randrange(32, 127), rng.randrange(0x370, 0x3FF)]))
        for _ in range(rng.randrange(0, 24))
    )


def _random_term(rng: random.Random):
    roll = rng.random()
    if roll < 0.35:
        return URI(
            f"http://teleios.di.uoa.gr/noa#{_random_text(rng)}"
        )
    if roll < 0.45:
        return BNode(f"b{rng.randrange(1000)}")
    if roll < 0.60:
        return Literal(_random_text(rng))
    if roll < 0.80:
        if rng.random() < 0.4:
            # Geometry literal: the shape checkpoints must preserve.
            return Literal(
                rng.choice(_WKT_POOL),
                datatype="http://strdf.di.uoa.gr/ontology#WKT",
            )
        return Literal(_random_text(rng), datatype=rng.choice(_DATATYPES))
    return Literal(_random_text(rng), language=rng.choice(_LANGS))


def _random_triple(rng: random.Random):
    subject = (
        URI(f"http://example.org/s/{rng.randrange(100)}")
        if rng.random() < 0.8
        else BNode(f"s{rng.randrange(100)}")
    )
    predicate = URI(f"http://example.org/p/{rng.randrange(20)}")
    return (subject, predicate, _random_term(rng))


def _random_batch(rng: random.Random):
    ops = []
    for _ in range(rng.randrange(0, 40)):
        roll = rng.random()
        if roll < 0.7:
            ops.append((OP_ADD, _random_triple(rng)))
        elif roll < 0.95:
            ops.append((OP_REMOVE, _random_triple(rng)))
        else:
            ops.append((OP_CLEAR, None))
    return ops


def _key(term):
    if isinstance(term, URI):
        return ("uri", term.value)
    if isinstance(term, BNode):
        return ("bnode", term.label)
    return ("lit", term.lexical, term.datatype, term.language)


def _dictionary(ops):
    """A term table holding every term ``ops`` name, in first-use
    order, and its term -> id map."""
    ids = {}
    for _, triple in ops:
        for term in triple or ():
            ids.setdefault(term, len(ids))
    return list(ids), ids


def _decode_record(buf, dictionary):
    """Recovery's decode of one record against ``dictionary``."""
    first_id, terms, offset = split_record(buf)
    if first_id != len(dictionary):
        raise DurabilityError("record does not continue the dictionary")
    dictionary = dictionary + terms
    return terms, decode_ops(
        buf, offset, len(dictionary), dictionary.__getitem__
    )


@pytest.mark.parametrize("seed", range(25))
def test_ops_roundtrip_randomized(seed):
    rng = random.Random(seed)
    ops = _random_batch(rng)
    table, ids = _dictionary(ops)
    decoded = decode_ops(
        encode_ops(ops, ids.get), 0, len(table), table.__getitem__
    )
    assert len(decoded) == len(ops)
    for (op_in, triple_in), (op_out, triple_out) in zip(ops, decoded):
        assert op_in == op_out
        if op_in == OP_CLEAR:
            assert triple_out is None
        else:
            assert tuple(map(_key, triple_in)) == tuple(
                map(_key, triple_out)
            )


@pytest.mark.parametrize("seed", range(25))
def test_term_roundtrip_randomized(seed):
    rng = random.Random(1000 + seed)
    terms = [_random_term(rng) for _ in range(50)]
    for term in terms:
        encoded = encode_terms([term])
        decoded, end = decode_terms(encoded, 0)
        assert end == len(encoded)
        assert [_key(t) for t in decoded] == [_key(term)]
        # The wire form itself is stable: re-encoding the decoded term
        # produces identical bytes (the codec is canonical).
        assert encode_terms(decoded) == encoded
    # A whole table decodes in order, from any offset.
    table = b"prefix" + encode_terms(terms)
    decoded, end = decode_terms(table, 6)
    assert end == len(table)
    assert [_key(t) for t in decoded] == [_key(t) for t in terms]


#: Term lists drawn through the seeded generator above, plus arbitrary
#: text as plain and language-tagged literals.
_TERM_LISTS = st.lists(
    st.one_of(
        st.randoms(use_true_random=False).map(_random_term),
        st.text().map(Literal),
        st.text().map(lambda text: Literal(text, language="el")),
    ),
    max_size=40,
)


@settings(max_examples=80, deadline=None)
@given(_TERM_LISTS)
def test_term_block_roundtrip(terms):
    """A term table round-trips through its compressed block from any
    offset, and the block is a function of the terms."""
    block = encode_terms(terms)
    assert struct.unpack_from("<I", block)[0] & 0x80000000
    decoded, end = decode_terms(b"prefix" + block + b"suffix", 6)
    assert end == 6 + len(block)
    assert [_key(t) for t in decoded] == [_key(t) for t in terms]
    assert encode_terms(decoded) == block


def _seeded_block(seed: int) -> bytes:
    rng = random.Random(4000 + seed)
    return encode_terms([_random_term(rng) for _ in range(30)])


@pytest.mark.parametrize("seed", range(4))
def test_truncated_term_block_raises(seed):
    block = _seeded_block(seed)
    for cut in range(len(block)):
        with pytest.raises(DurabilityError):
            decode_terms(block[:cut], 0)


@pytest.mark.parametrize("seed", range(4))
def test_flipped_byte_in_term_block_raises(seed):
    """Every byte of the block inverted in turn — lengths, zlib header,
    deflate data, checksum — is refused, never a zlib.error."""
    block = _seeded_block(seed)
    for at in range(len(block)):
        flipped = bytearray(block)
        flipped[at] ^= 0xFF
        with pytest.raises(DurabilityError):
            decode_terms(bytes(flipped), 0)


@pytest.mark.parametrize("delta", [-5, -1, 1, 7])
def test_declared_raw_length_that_disagrees_raises(delta):
    block = _seeded_block(0)
    flagged, size = struct.unpack_from("<II", block)
    lying = struct.pack("<II", flagged + delta, size) + block[8:]
    with pytest.raises(DurabilityError):
        decode_terms(lying, 0)


def test_absurd_declared_raw_length_is_refused_before_inflating():
    """A raw length past deflate's 1032:1 ceiling is corruption, found
    without allocating anything near it."""
    packed = pack_block(b"\x00" * 64)
    _, size = struct.unpack_from("<II", packed)
    absurd = struct.pack("<II", 0xFFFFFFFF, size) + packed[8:]
    with pytest.raises(DurabilityError, match="declares"):
        unpack_block(absurd, 0, "block")
    # A stream that inflates past its declared size stops one byte
    # beyond it.
    short = struct.pack("<II", 0x80000000 | 63, size) + packed[8:]
    with pytest.raises(DurabilityError, match="63"):
        unpack_block(short, 0, "block")


def test_raw_term_table_still_decodes():
    """An earlier writer's raw table (no flag bit) goes through the
    same decoder."""
    rng = random.Random(5000)
    terms = [_random_term(rng) for _ in range(60)]
    raw = raw_term_table(terms)
    decoded, end = decode_terms(raw, 0)
    assert end == len(raw)
    assert [_key(t) for t in decoded] == [_key(t) for t in terms]
    assert encode_terms(decoded) == encode_terms(terms)


def test_geometry_literal_survives_lexically():
    wkt = "POLYGON ((21.52 37.91, 21.57 37.91, 21.56 37.88, 21.52 37.91))"
    term = Literal(wkt, datatype="http://strdf.di.uoa.gr/ontology#WKT")
    (decoded,), _ = decode_terms(encode_terms([term]), 0)
    assert decoded.lexical == wkt
    assert decoded.datatype == term.datatype
    assert decoded.is_geometry


@pytest.mark.parametrize("seed", range(10))
def test_truncation_never_passes_silently(seed):
    """Every strict prefix of an encoded record must raise, not return
    garbage — this is what the WAL relies on when CRCs are bypassed."""
    rng = random.Random(2000 + seed)
    ops = _random_batch(rng)
    if not ops:
        ops = [(OP_ADD, _random_triple(rng))]
    table, ids = _dictionary(ops)
    encoded = encode_record(0, table, ops, ids.get)
    for cut in sorted(rng.sample(range(len(encoded)), min(12, len(encoded)))):
        with pytest.raises(DurabilityError):
            _decode_record(encoded[:cut], [])


def test_trailing_bytes_are_corruption():
    encoded = encode_ops([(OP_CLEAR, None)], {}.get)
    with pytest.raises(DurabilityError):
        decode_ops(encoded + b"\x00", 0, 0, [].__getitem__)


def test_unknown_opcode_and_kind_raise():
    with pytest.raises(DurabilityError):
        decode_ops(b"\x01\x00\x00\x00\x7f", 0, 0, [].__getitem__)
    with pytest.raises(DurabilityError):
        decode_terms(b"\x01\x00\x00\x00\x63", 0)
    with pytest.raises(DurabilityError):
        encode_ops([(99, None)], {}.get)


def test_ids_beyond_the_dictionary_and_unknown_terms_raise():
    triple = (URI("http://example.org/s"), URI("http://example.org/p"),
              Literal("o"))
    table, ids = _dictionary([(OP_ADD, triple)])
    encoded = encode_ops([(OP_ADD, triple)], ids.get)
    with pytest.raises(DurabilityError):
        decode_ops(encoded, 0, 2, table.__getitem__)
    with pytest.raises(DurabilityError):
        encode_ops([(OP_ADD, triple)], {}.get)


def _apply(graph, ops):
    for opcode, triple in ops:
        if opcode == OP_ADD:
            graph.add(*triple)
        elif opcode == OP_REMOVE:
            graph.remove(*triple)
        else:
            graph.clear()


@pytest.mark.parametrize("seed", range(12))
def test_record_stream_rebuilds_the_graph_and_its_ids(seed):
    """Seeded random graphs written the way the store writes them —
    each record carries the terms interned since the previous one from
    a dictionary cursor — decode into a fresh graph with the same
    triples and the same id for every term.  Batches include a clear
    mid-batch, and an add-then-clear batch (whose voided add still
    interned its terms) followed by a batch that uses later ids."""
    rng = random.Random(3000 + seed)
    graph = Graph()
    graph.start_journal()
    records = []
    cursor = 0
    for batch in range(10):
        if batch == 4:
            # Add-then-clear: the journal keeps only the clear.
            for _ in range(rng.randrange(1, 6)):
                graph.add(*_random_triple(rng))
            graph.clear()
        else:
            for opcode, triple in _random_batch(rng):
                if opcode == OP_ADD:
                    graph.add(*triple)
                elif opcode == OP_REMOVE:
                    graph.remove(*triple)
                elif rng.random() < 0.5:
                    graph.clear()
        ops = graph.drain_journal()
        if batch == 4:
            assert ops == [(OP_CLEAR, None)]
        terms = graph.terms(cursor)
        records.append(encode_record(cursor, terms, ops, graph.term_id))
        cursor += len(terms)

    rebuilt = Graph()
    for record in records:
        first_id, terms, offset = split_record(record)
        assert first_id == rebuilt.term_count()
        rebuilt.extend_terms(terms)
        _apply(
            rebuilt,
            decode_ops(
                record, offset, rebuilt.term_count(), rebuilt.term_for_id
            ),
        )
    assert rebuilt.term_count() == graph.term_count()
    for tid in range(graph.term_count()):
        assert _key(rebuilt.term_for_id(tid)) == _key(graph.term_for_id(tid))
    assert set(rebuilt.triples()) == set(graph.triples())
