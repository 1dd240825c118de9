"""The subscriber logs' packed layout, and the previous layout read back.

A notification batch is one zlib block of columns and a registration
one zlib block of a column record.  The previous layout — a batch as
compact JSON, an uncompressed ``\\x00RGF`` column record — is written
here by an independent writer (:mod:`tests.durable.subs_v1_format`):
a ``subs/`` directory in that form must open to the same state, keep
appending, and fold its registry into the packed layout.  Every
truncation or flipped byte of a packed record is a
:class:`~repro.errors.DurabilityError`.
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.durable import NotificationBatch, NotificationLog, RegistryLog
from repro.durable import WriteAheadLog, cursors
from repro.durable.cursors import KINDS, SubscriptionRows
from repro.errors import DurabilityError
from repro.serve.subscribe import SubscriptionEngine

from tests.durable import subs_v1_format
from tests.durable.subscriber_stream import PREFIX, write_state
from tests.serve.subscription_oracle import rows_of


def _records(path):
    return [record.payload for record in WriteAheadLog._scan(path)[0]]


def _engine_state(state_dir):
    engine = SubscriptionEngine(state_dir=state_dir, fsync="never")
    try:
        return (
            [s.to_dict() for s in engine.registry.list()],
            {k: v for k, v in engine._seen.items() if v},
            dict(engine._cursors),
        )
    finally:
        engine.close()


def _assert_same_rows(got: SubscriptionRows, want: SubscriptionRows):
    assert got.ids == want.ids
    assert got.names == want.names and got.queries == want.queries
    for name in SubscriptionRows.COLUMNS:
        np.testing.assert_array_equal(
            getattr(got, name), getattr(want, name)[: len(want)]
        )


def test_a_previous_format_subs_dir_opens_and_resumes(tmp_path):
    new_dir = str(tmp_path / "new")
    batches = write_state(new_dir)
    old_dir = str(tmp_path / "old")
    shutil.copytree(new_dir, old_dir)
    notes, adds = subs_v1_format.downgrade(old_dir)
    assert len(notes) == len(batches) and all(
        p.startswith(b"{") for p in notes
    )
    assert [p[:4] for p in adds if not p.startswith(b"{")] == [
        subs_v1_format.MAGIC
    ] * 3
    old_log = os.path.join(old_dir, "notifications.log")
    with NotificationLog(old_log) as log:
        assert log.batches == batches
        for batch in batches:
            assert log.after(batch.sequence - 1) == [
                b for b in batches if b.sequence >= batch.sequence
            ]

    # Both directories open to the same subscriptions, seen-sets and
    # cursors, and each folds its registry to the same packed record.
    state = _engine_state(new_dir)
    assert state[0] and state[1] and state[2]
    assert _engine_state(old_dir) == state
    folded = [
        _records(os.path.join(d, "registry.log")) for d in (new_dir, old_dir)
    ]
    assert folded[0] == folded[1]
    assert len(folded[0]) == 1
    assert folded[0][0].startswith(cursors._PACKED)

    # The JSON log keeps appending packed batches, and the mixed log
    # reopens whole.
    last = batches[-1]
    more = NotificationBatch(
        sequence=last.sequence + 1,
        wal_seq=7,
        subjects=last.subjects,
        refs=last.refs,
    )
    with NotificationLog(old_log) as log:
        log.append(more)
    with NotificationLog(old_log) as log:
        assert log.batches == batches + [more]
        assert log.after(last.sequence) == [more]
    assert [p[:1] for p in _records(old_log)] == [b"{"] * len(batches) + [
        b"\0"
    ]
    assert _engine_state(old_dir) == state


def test_the_packed_logs_are_smaller_than_the_previous_layout(tmp_path):
    new_dir = str(tmp_path / "new")
    write_state(new_dir)
    old_dir = str(tmp_path / "old")
    shutil.copytree(new_dir, old_dir)
    subs_v1_format.downgrade(old_dir)
    for name in ("notifications.log", "registry.log"):
        new = os.path.getsize(os.path.join(new_dir, name))
        assert new < 0.6 * os.path.getsize(os.path.join(old_dir, name))


def test_the_fold_accounts_for_the_packed_bytes_on_disk(tmp_path):
    path = str(tmp_path / "registry.log")
    rows = rows_of(
        [
            {"kind": "filter", "bbox": [20 + n / 7, 35.0, 20.5 + n / 7, 35.5]}
            for n in range(400)
        ],
        [f"{n * 7919:012x}" for n in range(400)],
    )
    log = RegistryLog(path, fsync="never")
    try:
        before = os.path.getsize(path)
        log.add(rows)
        added = os.path.getsize(path) - before
        assert log._row_bytes == added // 400
        # Below the 44 B of an id and a box unpacked.
        assert log._row_bytes < 30
        log.remove(rows.ids[0])
        assert log._dead >= log._row_bytes
    finally:
        log.close()


# -- round trips -------------------------------------------------------------

#: Subscription ids: any text without NUL (unicode, mixed widths), and
#: the engine's 12 lowercase hex digits, with near misses of those.
_IDS = st.one_of(
    st.text(
        st.characters(blacklist_characters="\0", blacklist_categories=["Cs"]),
        max_size=14,
    ),
    st.text("0123456789abcdef", min_size=12, max_size=12),
    st.text("0123456789abcdefABC ", min_size=2, max_size=4),
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**60), 2**60)
    | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _batches(draw):
    subjects = draw(
        st.lists(
            st.tuples(
                st.text(max_size=20),
                st.dictionaries(st.text(max_size=8), _JSON, max_size=4),
            ),
            max_size=5,
        )
    )
    refs = []
    if subjects:
        ids = draw(st.lists(_IDS, min_size=1, max_size=6))
        refs = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(ids),
                    st.sampled_from(KINDS),
                    st.integers(0, len(subjects) - 1),
                ),
                max_size=12,
            )
        )
    return NotificationBatch(
        sequence=draw(st.integers(0, 2**63 - 1)),
        wal_seq=draw(st.none() | st.integers(0, 2**63 - 1)),
        subjects=tuple(subjects),
        refs=tuple(refs),
    )


@settings(max_examples=150, deadline=None)
@given(_batches())
def test_a_batch_round_trips_in_both_layouts(batch):
    payload = batch.to_payload()
    assert payload.startswith(cursors._BATCH_MAGIC)
    assert NotificationBatch.from_payload(payload) == batch
    assert (
        NotificationBatch.from_payload(subs_v1_format.batch_payload(batch))
        == batch
    )
    assert payload == NotificationBatch.from_payload(payload).to_payload()


_COORD = st.floats(-60.0, 60.0, allow_nan=False)
_DOCS = st.one_of(
    st.builds(
        lambda xs, ys, floor: {
            "kind": "filter",
            "bbox": [min(xs), min(ys), max(xs), max(ys)],
            **({} if floor is None else {"min_confidence": floor}),
        },
        st.tuples(_COORD, _COORD),
        st.tuples(_COORD, _COORD),
        st.none() | st.floats(0.0, 1.0),
    ),
    st.builds(
        lambda x, name: {
            "kind": "filter",
            "bbox": [x, x, x + 0.5, x + 0.25],
            "municipality": name,
        },
        _COORD,
        st.sampled_from(["Αθήνα", "Patras"]),
    ),
    st.builds(
        lambda name: {"kind": "fwi", "min_class": name},
        st.sampled_from(["low", "moderate", "high", "very-high", "extreme"]),
    ),
    st.just(
        {
            "kind": "stsparql",
            "query": PREFIX + "SELECT ?h WHERE { ?h a noa:Hotspot }",
        }
    ),
    st.just({"kind": "filter"}),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_DOCS, min_size=1, max_size=12),
    st.lists(_IDS, min_size=12, max_size=12, unique=True),
    st.booleans(),
)
def test_a_registration_round_trips_in_both_layouts(docs, ids, with_acked):
    rows = rows_of(docs, ids[: len(docs)])
    acked = (
        np.arange(len(rows), dtype=np.int64) if with_acked else None
    )
    head = {"primed": [[rows.ids[0], ["http://example.org/h/1"]]]}
    payload = rows.encode(dict(head), acked=acked)
    assert payload.startswith(cursors._PACKED)
    for record in (
        payload,
        subs_v1_format.add_payload(rows, dict(head), acked),
    ):
        got_head, got = SubscriptionRows.decode(record)
        _assert_same_rows(got, rows)
        assert got_head.pop("primed") == head["primed"]
        np.testing.assert_array_equal(
            got_head.pop("acked"),
            np.zeros(len(rows)) if acked is None else acked,
        )


# -- corruption --------------------------------------------------------------


def _packed_records():
    batch = NotificationBatch(
        sequence=9,
        wal_seq=4,
        subjects=(("http://example.org/h/1", {"lon": 23.5, "c": 0.8}),),
        refs=(("0123456789ab", "filter", 0), ("ü-2", "fwi", 0)),
    )
    rows = rows_of(
        [
            {"kind": "filter", "bbox": [20.0, 35.0, 21.0, 36.0]},
            {"kind": "fwi", "min_class": "high"},
        ],
        ["0123456789ab", "ba9876543210"],
    )
    return [
        (NotificationBatch.from_payload, batch.to_payload()),
        (SubscriptionRows.decode, rows.encode({}, acked=np.ones(2, "<i8"))),
    ]


@pytest.mark.parametrize("which", [0, 1], ids=["batch", "registration"])
def test_every_cut_or_flipped_byte_of_a_packed_record_is_refused(which):
    decode, payload = _packed_records()[which]
    decode(payload)
    for cut in range(len(payload)):
        with pytest.raises(DurabilityError):
            decode(payload[:cut])
    for at in range(len(payload)):
        flipped = bytearray(payload)
        flipped[at] ^= 0xFF
        with pytest.raises(DurabilityError):
            decode(bytes(flipped))
