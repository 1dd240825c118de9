"""Durable subscriber state: NotificationLog and CursorStore."""

from __future__ import annotations

import json
import os

import pytest

from repro.durable import (
    CursorStore,
    NotificationBatch,
    NotificationLog,
    RegistryLog,
    WriteAheadLog,
)
from repro.durable import wal as wal_module
from repro.errors import DurabilityError


def _batch(sequence, wal_seq=None, subjects=()):
    return NotificationBatch(
        sequence=sequence,
        wal_seq=wal_seq,
        subjects=tuple((s, {}) for s in subjects),
        refs=tuple(("sub-1", "filter", n) for n in range(len(subjects))),
    )


class TestNotificationLog:
    def test_append_replay_round_trip(self, tmp_path):
        path = str(tmp_path / "notify.wal")
        with NotificationLog(path) as log:
            log.append(_batch(2, wal_seq=1, subjects=("a", "b")))
            log.append(_batch(3, wal_seq=2, subjects=("c",)))
            assert len(log) == 2
            assert log.last_sequence == 3
            assert log.last_wal_seq == 2
        with NotificationLog(path) as log:
            batches = log.batches
            assert [b.sequence for b in batches] == [2, 3]
            assert batches[0].wal_seq == 1
            assert [
                d["subject"] for d in batches[0].notifications
            ] == ["a", "b"]

    def test_sequences_must_strictly_increase(self, tmp_path):
        with NotificationLog(str(tmp_path / "n.wal")) as log:
            log.append(_batch(2))
            with pytest.raises(ValueError, match="not after"):
                log.append(_batch(2))
            with pytest.raises(ValueError, match="not after"):
                log.append(_batch(1))
            log.append(_batch(5))  # gaps are fine; regressions are not
            assert log.last_sequence == 5

    def test_after_is_the_resume_set(self, tmp_path):
        with NotificationLog(str(tmp_path / "n.wal")) as log:
            for seq in (2, 3, 4):
                log.append(_batch(seq, subjects=(f"s{seq}",)))
            assert [b.sequence for b in log.after(0)] == [2, 3, 4]
            assert [b.sequence for b in log.after(2)] == [3, 4]
            assert [b.sequence for b in log.after(3)] == [4]
            assert log.after(4) == []
            assert log.after(99) == []

    def test_last_wal_seq_skips_none(self, tmp_path):
        with NotificationLog(str(tmp_path / "n.wal")) as log:
            assert log.last_wal_seq is None
            log.append(_batch(2, wal_seq=7))
            log.append(_batch(3, wal_seq=None))
            # The repaired batch carries no wal_seq; the recovery
            # anchor is still the newest batch that does.
            assert log.last_wal_seq == 7

    def test_compact_drops_fully_acknowledged_batches(self, tmp_path):
        path = str(tmp_path / "n.wal")
        with NotificationLog(path) as log:
            for seq in (2, 3, 4, 5):
                log.append(_batch(seq, subjects=(f"s{seq}",)))
            size_before = os.path.getsize(path)
            assert log.compact(3) == 2
            assert log.compact(3) == 0  # idempotent
            assert [b.sequence for b in log.batches] == [4, 5]
            assert os.path.getsize(path) < size_before
        with NotificationLog(path) as log:
            assert [b.sequence for b in log.batches] == [4, 5]

    def test_compact_interrupted_mid_write_loses_nothing(
        self, tmp_path, monkeypatch
    ):
        path = str(tmp_path / "n.wal")
        with NotificationLog(path) as log:
            for seq in (2, 3, 4, 5):
                log.append(_batch(seq, subjects=(f"s{seq}",)))

            class _Dies:
                """A crash while the kept batches are being framed."""

                @staticmethod
                def crc32(_payload):
                    raise OSError("injected crash")

            with monkeypatch.context() as patch:
                patch.setattr(wal_module, "zlib", _Dies)
                with pytest.raises(OSError, match="injected"):
                    log.compact(3)
        with NotificationLog(path) as log:
            kept = [b.sequence for b in log.batches]
        # Either the old log or the compacted one, never neither.
        assert kept in ([2, 3, 4, 5], [4, 5])

    def test_old_layout_record_is_refused(self, tmp_path):
        path = str(tmp_path / "n.wal")
        with WriteAheadLog(path) as wal:
            wal.append(
                b'{"sequence": 2, "wal_seq": null, "notifications": []}'
            )
        with pytest.raises(DurabilityError, match="n.wal"):
            NotificationLog(path)

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "n.wal")
        with NotificationLog(path) as log:
            log.append(_batch(2, subjects=("kept",)))
            log.append(_batch(3, subjects=("torn",)))
        # Chop bytes off the last record: a crash mid-append.
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)
        with NotificationLog(path) as log:
            assert [b.sequence for b in log.batches] == [2]
            # The log stays appendable after repair.
            log.append(_batch(3, subjects=("again",)))
            assert log.last_sequence == 3


class TestRegistryLog:
    def test_replay_folds_changes_into_one_record(self, tmp_path):
        path = str(tmp_path / "registry.log")
        log = RegistryLog(path)
        log.add([{"id": "a", "kind": "filter"}])
        log.add([{"id": "b", "kind": "fwi"}, {"id": "c", "kind": "filter"}])
        log.remove("b")
        log.close()
        for _ in range(2):
            log = RegistryLog(path)
            assert [d["id"] for d in log.documents] == ["a", "c"]
            log.close()
        with WriteAheadLog(path) as wal:
            assert len(wal.replayed) == 1

    def test_fold_survives_a_torn_append(self, tmp_path):
        path = str(tmp_path / "registry.log")
        log = RegistryLog(path)
        log.add([{"id": "a", "kind": "filter"}])
        log.add([{"id": "b", "kind": "filter"}])
        log.close()
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        log = RegistryLog(path)
        assert [d["id"] for d in log.documents] == ["a"]
        log.add([{"id": "c", "kind": "filter"}])
        log.close()
        log = RegistryLog(path)
        assert [d["id"] for d in log.documents] == ["a", "c"]
        log.close()


    def test_add_stores_one_key_list_per_shape(self, tmp_path):
        path = str(tmp_path / "registry.log")
        docs = [
            {"id": f"g{n}", "kind": "filter", "bbox": [n, 0, n + 1, 1]}
            if n % 2
            else {"id": f"f{n}", "kind": "fwi", "min_class": "high"}
            for n in range(6)
        ]
        log = RegistryLog(path)
        log.add(docs)
        log.close()
        with WriteAheadLog(path) as wal:
            (record,) = wal.replayed
        shapes = json.loads(record.payload)["add"]
        assert [shape["keys"] for shape in shapes] == [
            ["id", "kind", "min_class"],
            ["id", "kind", "bbox"],
        ]
        assert [len(shape["rows"]) for shape in shapes] == [3, 3]
        log = RegistryLog(path)
        assert sorted(log.documents, key=lambda d: d["id"]) == sorted(
            docs, key=lambda d: d["id"]
        )
        log.close()

    def test_old_layout_is_refused_naming_the_file(self, tmp_path):
        path = str(tmp_path / "registry.log")
        with WriteAheadLog(path) as wal:
            wal.append(b'{"add":[{"id":"a","kind":"filter"}]}')
        with pytest.raises(DurabilityError, match="registry.log"):
            RegistryLog(path)


class TestCursorStore:
    def test_ack_is_monotonic_and_persistent(self, tmp_path):
        path = str(tmp_path / "cursors.json")
        store = CursorStore(path)
        assert store.get("sub-1") == 0
        assert store.ack("sub-1", 4) == 4
        assert store.ack("sub-1", 2) == 4  # stale ack ignored
        assert store.ack("sub-1", 4) == 4  # replayed ack ignored
        assert CursorStore(path).get("sub-1") == 4

    def test_negative_ack_rejected(self, tmp_path):
        store = CursorStore(str(tmp_path / "c.json"))
        with pytest.raises(ValueError):
            store.ack("sub-1", -1)

    def test_forget_drops_cursor(self, tmp_path):
        path = str(tmp_path / "c.json")
        store = CursorStore(path)
        store.ack("sub-1", 3)
        store.forget("sub-1")
        store.forget("sub-never")  # unknown id is a no-op
        assert store.get("sub-1") == 0
        assert CursorStore(path).all() == {}

    def test_min_cursor_is_the_compaction_horizon(self, tmp_path):
        store = CursorStore(str(tmp_path / "c.json"))
        assert store.min_cursor() == 0
        store.ack("fast", 9)
        store.ack("slow", 3)
        assert store.min_cursor() == 3
        store.forget("slow")
        assert store.min_cursor() == 9

    def test_file_appears_atomically(self, tmp_path):
        path = str(tmp_path / "c.json")
        store = CursorStore(path)
        store.ack("sub-1", 1)
        # Only the final file, never a temp sibling, is left behind.
        siblings = os.listdir(str(tmp_path))
        assert siblings == ["c.json"]
