"""Flight recorder: ring semantics, atomic dumps, dump loading."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import Tracer
from repro.obs.flightrec import (
    DUMP_SCHEMA,
    FlightRecorder,
    get_flight_recorder,
    latest_dump,
    list_dumps,
    load_dump,
)


def test_record_appends_bounded_ring():
    recorder = FlightRecorder(capacity=3)
    for k in range(5):
        recorder.record("acquisition", f"event-{k}")
    events = recorder.events()
    assert len(events) == 3
    assert [e["name"] for e in events] == ["event-2", "event-3", "event-4"]
    assert all(e["kind"] == "acquisition" for e in events)


def test_record_carries_trace_id_and_detail():
    recorder = FlightRecorder()
    event = recorder.record(
        "error", "serve.hotspots", trace_id="abc123", error="boom"
    )
    assert event["trace_id"] == "abc123"
    assert event["detail"] == {"error": "boom"}
    # No detail kwargs -> no detail key (keeps dumps compact).
    bare = recorder.record("degradation", "decode-failed")
    assert "detail" not in bare


def test_record_span_summarises_a_finished_span():
    tracer = Tracer(enabled=True)
    recorder = FlightRecorder()
    with pytest.raises(ValueError):
        with tracer.span("chain.decode") as span:
            raise ValueError("bad segment")
    recorder.record_span(span)
    (event,) = recorder.events()
    assert event["kind"] == "span"
    assert event["name"] == "chain.decode"
    assert event["trace_id"] == span.trace_id
    assert event["detail"]["status"] == "error"
    assert "bad segment" in event["detail"]["error"]


def test_dump_without_destination_returns_none():
    recorder = FlightRecorder()
    recorder.record("crash", "somewhere")
    assert recorder.dump("no directory configured") is None


def test_dump_and_load_round_trip(tmp_path):
    recorder = FlightRecorder()
    recorder.configure(str(tmp_path / "flightrec"))
    recorder.record("acquisition", "2007-08-25T12:00:00Z")
    recorder.record("crash", "commit.pre-publish", pid=os.getpid())
    path = recorder.dump("crashpoint:commit.pre-publish")
    assert path is not None
    payload = load_dump(path)
    assert payload["schema"] == DUMP_SCHEMA
    assert payload["reason"] == "crashpoint:commit.pre-publish"
    assert payload["pid"] == os.getpid()
    assert payload["events"][-1]["kind"] == "crash"
    assert payload["events"][-1]["name"] == "commit.pre-publish"
    # The dump is complete JSON on disk with no temp residue.
    assert not [
        n for n in os.listdir(recorder.dump_dir) if ".tmp." in n
    ]


def test_load_dump_rejects_foreign_schema(tmp_path):
    path = tmp_path / "flightrec-1-1.json"
    path.write_text(json.dumps({"schema": "something/else"}))
    with pytest.raises(ValueError):
        load_dump(str(path))


def test_list_and_latest_dumps(tmp_path):
    recorder = FlightRecorder()
    recorder.configure(str(tmp_path))
    recorder.record("crash", "first")
    first = recorder.dump("crash", path=str(tmp_path / "flightrec-1-9.json"))
    recorder.clear()
    recorder.record("crash", "second")
    second = recorder.dump(
        "crash", path=str(tmp_path / "flightrec-2-9.json")
    )
    assert list_dumps(str(tmp_path)) == [first, second]
    newest = latest_dump(str(tmp_path))
    assert newest["path"] == second
    assert newest["events"][-1]["name"] == "second"
    # Unreadable newest dump -> fall back to the previous one.
    with open(second, "w") as f:
        f.write("{ torn")
    assert latest_dump(str(tmp_path))["path"] == first
    assert latest_dump(str(tmp_path / "missing")) is None


def test_reset_after_fork_clears_ring_but_keeps_dump_dir(tmp_path):
    recorder = FlightRecorder()
    recorder.configure(str(tmp_path))
    recorder.record("acquisition", "parent-history")
    recorder.reset_after_fork()
    assert recorder.events() == []
    assert recorder.dump_dir == str(tmp_path)


def test_global_recorder_is_always_on():
    recorder = get_flight_recorder()
    marker = "test-marker-event"
    recorder.record("test", marker)
    try:
        assert any(e["name"] == marker for e in recorder.events())
    finally:
        recorder.clear()
