"""Durable subscriber state: the notification log, the registry log and
the acknowledged cursors it carries."""

from __future__ import annotations

import json
import multiprocessing
import os
import struct
import threading

import numpy as np
import pytest

from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.durable import (
    CRASH_EXIT,
    NotificationBatch,
    NotificationLog,
    RegistryLog,
    WriteAheadLog,
    crashpoints,
    cursors,
)
from repro.durable.codec import unpack_block
from repro.durable.cursors import SubscriptionRows
from repro.errors import DurabilityError
from repro.serve.subscribe import SubscriptionEngine, SubscriptionError

from tests.durable import subs_v1_format
from tests.serve.subscription_oracle import rows_of


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


def _rows(*docs):
    """Valid subscription documents as rows; each document's ``id``
    names it."""
    return rows_of(
        [{k: v for k, v in doc.items() if k != "id"} for doc in docs],
        [doc["id"] for doc in docs],
    )


class TestRegistryLog:
    def test_replay_folds_changes_into_one_record(self, tmp_path):
        path = str(tmp_path / "registry.log")
        log = RegistryLog(path)
        log.add(_rows({"id": "a", "kind": "filter"}))
        log.add(
            _rows({"id": "b", "kind": "fwi"}, {"id": "c", "kind": "filter"})
        )
        log.remove("b")
        log.close()
        for _ in range(2):
            log = RegistryLog(path)
            assert log.rows.ids == ["a", "c"]
            log.close()
        with WriteAheadLog(path) as wal:
            assert len(wal.replayed) == 1

    def test_fold_survives_a_torn_append(self, tmp_path):
        path = str(tmp_path / "registry.log")
        log = RegistryLog(path)
        log.add(_rows({"id": "a", "kind": "filter"}))
        log.add(_rows({"id": "b", "kind": "filter"}))
        log.close()
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        log = RegistryLog(path)
        assert log.rows.ids == ["a"]
        log.add(_rows({"id": "c", "kind": "filter"}))
        log.close()
        log = RegistryLog(path)
        assert log.rows.ids == ["a", "c"]
        log.close()

    def test_an_add_of_every_kind_is_one_column_block(self, tmp_path):
        path = str(tmp_path / "registry.log")
        docs = [
            {"id": f"g{n:02d}", "kind": "filter", "bbox": [n, 0, n + 1, 1]}
            for n in range(40)
        ] + [
            {"id": f"f{n:02d}", "kind": "fwi", "min_class": "high"}
            for n in range(10)
        ]
        log = RegistryLog(path)
        log.add(_rows(*docs))
        log.close()
        with WriteAheadLog(path) as wal:
            (record,) = wal.replayed
        head, rows = SubscriptionRows.decode(record.payload)
        assert "add" not in head
        assert rows.ids == [doc["id"] for doc in docs]
        # The record is one packed block.  Inside it a column equal on
        # every row is written once, in the head; any other only on the
        # row ranges where it is not its default: the boxes (4 float64,
        # as corner and size) of the filters, the kind and min_class
        # (int8) of the fwi rows, then every id (3 bytes).
        assert record.payload[:4] == cursors._PACKED
        body, end = unpack_block(record.payload, 4, "add")
        assert end == len(record.payload)
        (head_size,) = struct.unpack_from("<I", body, 0)
        written = json.loads(body[4 : 4 + head_size])
        assert written["ranges"] == {
            "boxes": [[0, 40]], "kind": [[40, 50]], "min_class": [[40, 50]],
        }
        assert written["extents"] is True
        assert len(body) == (
            4 + head_size + 40 * 32 + 10 * (1 + 1) + 50 * 3
        )
        log = RegistryLog(path)
        again = log.rows
        log.close()
        assert again.ids == rows.ids
        for name in SubscriptionRows.COLUMNS:
            assert np.array_equal(
                getattr(again, name), getattr(rows, name), equal_nan=True
            ), name

    def test_a_torn_binary_add_is_truncated_on_open(self, tmp_path):
        path = str(tmp_path / "registry.log")
        log = RegistryLog(path)
        log.add(_rows({"id": "a", "kind": "filter", "bbox": [1, 2, 3, 4]}))
        kept = os.path.getsize(path)
        log.add(
            _rows(
                *(
                    {"id": f"t{n}", "kind": "filter", "bbox": [n, 0, n + 1, 1]}
                    for n in range(100)
                )
            )
        )
        log.close()
        # A crash halfway through the second add.
        with open(path, "r+b") as fh:
            fh.truncate((kept + os.path.getsize(path)) // 2)
        log = RegistryLog(path)
        assert log.rows.ids == ["a"]
        assert os.path.getsize(path) == kept
        log.add(_rows({"id": "b", "kind": "filter"}))
        log.close()
        log = RegistryLog(path)
        assert log.rows.ids == ["a", "b"]
        assert log.rows.boxes[0].tolist() == [1.0, 2.0, 3.0, 4.0]
        log.close()

    def test_filters_as_json_rows_are_refused_naming_the_file(
        self, tmp_path
    ):
        path = str(tmp_path / "registry.log")
        with WriteAheadLog(path) as wal:
            wal.append(
                b'{"add":[{"keys":["id","kind","bbox"],'
                b'"rows":[["a","filter",[1,2,3,4]]]}]}'
            )
        with pytest.raises(DurabilityError, match="registry.log.*JSON rows"):
            RegistryLog(path)

    @pytest.mark.parametrize("binary", [False, True])
    def test_json_key_list_adds_of_any_kind_are_refused_naming_the_file(
        self, tmp_path, binary
    ):
        """The older layout kept standing queries and FWI subscriptions
        as JSON key-list rows, alone or in the head of a filter block."""
        path = str(tmp_path / "registry.log")
        add = {
            "add": [
                {
                    "keys": ["id", "kind", "min_class"],
                    "rows": [["f", "fwi", "high"]],
                }
            ]
        }
        payload = (
            _rows({"id": "g", "kind": "filter"}).encode(add)
            if binary
            else json.dumps(add).encode()
        )
        with WriteAheadLog(path) as wal:
            wal.append(payload)
        with pytest.raises(DurabilityError, match="registry.log.*JSON rows"):
            RegistryLog(path)

    def test_a_filter_block_without_the_kind_columns_reads_as_filters(
        self, tmp_path
    ):
        """A block written before the kind, min_class and query columns
        existed names none of them: its rows are filters."""
        path = str(tmp_path / "registry.log")
        rows = _rows(
            {"id": "a", "kind": "filter", "bbox": [1, 2, 3, 4]},
            {"id": "b", "kind": "filter", "min_confidence": 0.5},
        )
        with WriteAheadLog(path) as wal:
            wal.append(
                subs_v1_format.add_payload(
                    rows, columns=subs_v1_format.COLUMNS[:5]
                )
            )
        log = RegistryLog(path)
        assert log.rows.ids == ["a", "b"]
        assert log.rows.kind.tolist() == [0, 0]
        assert log.rows.query.tolist() == [-1, -1]
        log.close()

    def test_a_malformed_column_block_is_refused_naming_the_file(
        self, tmp_path
    ):
        path = str(tmp_path / "registry.log")
        payload = _rows(
            {"id": "a", "kind": "filter", "bbox": [1, 2, 3, 4]}
        ).encode()
        with WriteAheadLog(path) as wal:
            wal.append(payload[:-5])
        with pytest.raises(DurabilityError, match="registry.log"):
            RegistryLog(path)

    def test_the_fold_writes_cursors_as_a_column(self, tmp_path):
        path = str(tmp_path / "registry.log")
        log = RegistryLog(path)
        log.add(
            _rows(
                *[{"id": f"g{n}", "kind": "filter"} for n in range(50)],
                {"id": "f", "kind": "fwi", "min_class": "low"},
            )
        )
        for n in range(0, 50, 2):
            log.ack(f"g{n}", n + 1)
        log.ack("f", 9)
        log.close()
        log = RegistryLog(path)  # folds
        log.close()
        with WriteAheadLog(path) as wal:
            (record,) = wal.replayed
        head, rows = SubscriptionRows.decode(record.payload)
        assert "ack" not in head
        assert head["acked"].tolist() == [
            n + 1 if n % 2 == 0 else 0 for n in range(50)
        ] + [9]
        log = RegistryLog(path)
        assert log.cursors == {
            **{f"g{n}": n + 1 for n in range(0, 50, 2)}, "f": 9,
        }
        log.close()

    def test_old_layout_is_refused_naming_the_file(self, tmp_path):
        path = str(tmp_path / "registry.log")
        with WriteAheadLog(path) as wal:
            wal.append(b'{"add":[{"id":"a","kind":"filter"}]}')
        with pytest.raises(DurabilityError, match="registry.log"):
            RegistryLog(path)


def _ack_until_killed(subs_dir, point, progress_path):
    """Child body: register, remove one, then ack round-robin until
    the armed fold crashpoint kills the process.  Each ack is written
    to ``progress_path`` before it is made."""
    crashpoints.arm(point)
    engine = SubscriptionEngine(state_dir=subs_dir, fsync="never")
    subs = engine.register_many([{"kind": "filter"}] * 12)
    engine.remove(subs[0].id)
    with open(progress_path, "w") as progress:
        for sequence in range(1, 100_000):
            for sub in subs[1:]:
                progress.write(f"{sub.id} {sequence}\n")
                progress.flush()
                engine.ack(sub.id, sequence)
    os._exit(0)  # no fold ran: the cell is broken


class TestRegistryFold:
    """The registry log folds by size under acks, not only at open."""

    def test_repeated_acks_keep_the_log_bounded(self, tmp_path):
        subs_dir = str(tmp_path / "subs")
        path = os.path.join(subs_dir, "registry.log")
        engine = SubscriptionEngine(state_dir=subs_dir, fsync="never")
        subs = engine.register_many([{"kind": "filter"}] * 20)
        sizes = []
        for sequence in range(1, 1001):
            for sub in subs:
                engine.ack(sub.id, sequence)
            sizes.append(os.path.getsize(path))
        # Unfolded, 20 000 acks would take ~40 B each.
        assert max(sizes) < 2 * cursors._FOLD_FLOOR_BYTES
        assert min(sizes[10:]) < max(sizes), "no fold ran"
        engine.close()
        engine = SubscriptionEngine(state_dir=subs_dir, fsync="never")
        assert engine.stats()["cursors"] == {sub.id: 1000 for sub in subs}
        engine.close()

    def test_registrations_alone_never_fold(self, tmp_path):
        path = str(tmp_path / "registry.log")
        log = RegistryLog(path, fsync="never")
        for n in range(2000):
            log.add(
                _rows({"id": f"s{n}", "kind": "filter", "bbox": [n, 0, n + 1, 1]})
            )
        log.close()
        with WriteAheadLog(path) as wal:
            assert len(wal.replayed) == 2000

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork()")
    @pytest.mark.parametrize(
        "point", ["registry-fold.pre-rewrite", "registry-fold.post-rewrite"]
    )
    def test_a_crash_beside_a_fold_loses_nothing(self, tmp_path, point):
        subs_dir = str(tmp_path / "subs")
        progress = str(tmp_path / "progress")
        child = multiprocessing.get_context("fork").Process(
            target=_ack_until_killed, args=(subs_dir, point, progress)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == CRASH_EXIT
        expected = {}
        with open(progress) as fh:
            for line in fh:
                sub_id, sequence = line.split()
                expected[sub_id] = int(sequence)
        assert len(expected) == 11
        for _ in range(2):  # the first reopen folds, the second reads it
            engine = SubscriptionEngine(state_dir=subs_dir)
            assert sorted(s.id for s in engine.registry.list()) == sorted(
                expected
            )
            # The ack that triggered the fold was synced before it.
            assert engine.stats()["cursors"] == expected
            engine.close()


class TestCursorDurability:
    """Acknowledged cursors are registry-log records of a durable
    engine."""

    @staticmethod
    def _engine(tmp_path):
        return SubscriptionEngine(state_dir=str(tmp_path / "subs"))

    def test_an_ack_survives_a_restart(self, tmp_path):
        engine = self._engine(tmp_path)
        sub = engine.register({"kind": "filter"})
        assert engine.cursor(sub.id) == 0
        assert engine.ack(sub.id, 4) == 4
        engine.close()
        engine = self._engine(tmp_path)
        assert engine.cursor(sub.id) == 4
        assert engine.stats()["cursors"] == {sub.id: 4}
        engine.close()

    def test_an_ack_appends_one_registry_record(self, tmp_path):
        engine = self._engine(tmp_path)
        sub = engine.register({"kind": "filter"})
        path = str(tmp_path / "subs" / "registry.log")
        with open(path, "rb") as fh:
            before = fh.read()
        engine.ack(sub.id, 4)
        assert engine.ack(sub.id, 2) == 4  # stale: nothing appended
        engine.close()
        with open(path, "rb") as fh:
            assert fh.read().startswith(before)
        with WriteAheadLog(path) as wal:
            last = wal.replayed[-1].payload
            assert len(wal.replayed) == 2
        assert json.loads(last) == {"ack": [[sub.id, 4]]}

    def test_a_replayed_older_ack_never_moves_a_cursor_back(
        self, tmp_path
    ):
        engine = self._engine(tmp_path)
        sub = engine.register({"kind": "filter"})
        engine.ack(sub.id, 7)
        engine.close()
        # A stale ack logged after the newer one (replay folds by max).
        log = RegistryLog(str(tmp_path / "subs" / "registry.log"))
        log.ack(sub.id, 3)
        log.close()
        for _ in range(2):  # the first reopen folds, the second reads it
            engine = self._engine(tmp_path)
            assert engine.cursor(sub.id) == 7
            assert engine.ack(sub.id, 3) == 7
            assert engine.ack(sub.id, 7) == 7
            engine.close()

    def test_remove_drops_the_cursor_across_a_restart(self, tmp_path):
        engine = self._engine(tmp_path)
        gone = engine.register({"kind": "filter"})
        kept = engine.register({"kind": "filter"})
        engine.ack(gone.id, 3)
        engine.ack(kept.id, 5)
        assert engine.remove(gone.id)
        assert engine.cursor(gone.id) == 0
        engine.close()
        for _ in range(2):
            engine = self._engine(tmp_path)
            assert engine.cursor(gone.id) == 0
            assert engine.stats()["cursors"] == {kept.id: 5}
            engine.close()

    def test_a_torn_ack_loses_only_that_ack(self, tmp_path):
        engine = self._engine(tmp_path)
        sub = engine.register({"kind": "filter"})
        engine.ack(sub.id, 5)
        engine.ack(sub.id, 9)
        engine.close()
        path = str(tmp_path / "subs" / "registry.log")
        with open(path, "r+b") as fh:
            fh.truncate(os.path.getsize(path) - 3)
        engine = self._engine(tmp_path)
        assert engine.registry.get(sub.id) is not None
        assert engine.cursor(sub.id) == 5
        engine.close()

    def test_an_ack_does_not_wait_on_a_commit(self, tmp_path):
        engine = self._engine(tmp_path)
        sub = engine.register({"kind": "filter"})
        evaluating, done = threading.Event(), threading.Event()

        def commit():  # holds the engine lock as process_commit does
            with engine._lock:
                evaluating.set()
                done.wait(timeout=30)

        writer = threading.Thread(target=commit)
        writer.start()
        try:
            assert evaluating.wait(timeout=10)
            acker = threading.Thread(target=engine.ack, args=(sub.id, 2))
            acker.start()
            acker.join(timeout=10)
            assert not acker.is_alive()
            assert engine.cursor(sub.id) == 2
        finally:
            done.set()
            writer.join(timeout=30)
            engine.close()

    def test_negative_ack_is_a_subscription_error(self, tmp_path):
        for engine in (SubscriptionEngine(), self._engine(tmp_path)):
            sub = engine.register({"kind": "filter"})
            with pytest.raises(SubscriptionError, match=">= 0"):
                engine.ack(sub.id, -1)
            assert engine.cursor(sub.id) == 0
            engine.close()

    def test_subs_holds_only_the_two_logs(
        self, tmp_path, durable_greece, durable_season,
        acquisition_requests,
    ):
        state_dir = str(tmp_path / "state")
        service = FireMonitoringService(
            greece=durable_greece,
            config=ServiceConfig(state_dir=state_dir, wal_fsync="never"),
        )
        try:
            sub = service.subscriptions.register({"kind": "filter"})
            service.subscriptions.ack(sub.id, 1)
            service.run(
                acquisition_requests[:1],
                RunOptions(season=durable_season, on_error="raise"),
            )
        finally:
            service.close()
        service = FireMonitoringService.open(
            state_dir, greece=durable_greece
        )
        try:
            assert service.subscriptions.cursor(sub.id) == 1
        finally:
            service.close()
        assert sorted(os.listdir(os.path.join(state_dir, "subs"))) == [
            "notifications.log",
            "registry.log",
        ]
        leftovers = [
            name
            for _base, _dirs, names in os.walk(state_dir)
            for name in names
            if name.endswith(".tmp")
        ]
        assert leftovers == []
