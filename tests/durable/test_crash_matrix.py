"""The crash matrix: every registered crashpoint.

Each cell forks a child that arms exactly one crashpoint, builds a
fresh durable service and feeds it the acquisition stream; the child
aborts with ``os._exit(CRASH_EXIT)`` the instant execution reaches the
armed point mid-commit.  The parent then recovers from the on-disk
state with :meth:`FireMonitoringService.open` and requires the result
to be *indistinguishable* from a never-crashed oracle service at the
same acquisition cursor — triple-for-triple and byte-for-byte in the
served ``/hotspots`` GeoJSON — and that replaying the full request
stream resumes (skipping the committed prefix) to the oracle's final
state.

Crash-hit counts select *which* pass through a point aborts: service
construction writes a baseline graph checkpoint, so the graph
checkpoint points crash on a later pass — the one inside acquisition
2's commit cycle (``checkpoint_interval=2`` makes acquisition 2 trigger
periodic compaction too).  ``service.json`` is written once per open,
on a first open before the baseline checkpoint, so its points crash on
the first pass, before the store exists: the reopen is a fresh open.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.durable import CRASH_EXIT, CRASHPOINTS, crashpoints
from repro.obs import flightrec
from repro.serve.hotspots import query_hotspots

from tests.durable.conftest import N_ACQUISITIONS

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="crash matrix requires fork()"
)

#: Which pass through each point aborts (see module docstring).
CRASH_HITS = {
    "wal.append.torn": 2,
    "wal.append.pre-sync": 2,
    "service-checkpoint.torn": 1,
    "service-checkpoint.pre-rename": 1,
    "commit.pre-publish": 2,
    "commit.post-publish": 2,
    "graph-checkpoint.torn": 2,
    "graph-checkpoint.pre-rename": 2,
    "graph-checkpoint.post-rename": 2,
}

#: Acquisitions durably committed when the crash lands.  A torn WAL
#: append dies *before* its record is complete, so acquisition 2 rolls
#: back to the cursor.  Every other point leaves acquisition 2's record
#: intact in the file — including ``pre-sync``, because an injected
#: process abort (unlike a kernel crash) never loses written-but-
#: unfsynced page-cache data — so acquisition 2 survives.  The
#: ``service.json`` points die inside the first open, before any
#: acquisition.
EXPECTED_CURSOR = {name: 2 for name in CRASH_HITS}
EXPECTED_CURSOR["wal.append.torn"] = 1
EXPECTED_CURSOR["service-checkpoint.torn"] = 0
EXPECTED_CURSOR["service-checkpoint.pre-rename"] = 0

#: Whether the reopen recovers a store: not when the crash landed
#: before the first open's baseline checkpoint.
EXPECTED_RECOVERED = {name: True for name in CRASH_HITS}
EXPECTED_RECOVERED["service-checkpoint.torn"] = False
EXPECTED_RECOVERED["service-checkpoint.pre-rename"] = False


def _service_config(state_dir: str) -> ServiceConfig:
    return ServiceConfig(
        state_dir=state_dir,
        # "never": an injected process abort keeps everything written
        # (fsync only matters for kernel/power loss), and the matrix
        # runs 20 cells — skipping fsyncs keeps it fast.
        wal_fsync="never",
        checkpoint_interval=2,
    )


def _capture(service):
    """(triple count, canonical /hotspots GeoJSON) of the latest
    published snapshot.  The ``snapshot`` provenance block is dropped:
    sequence numbers deliberately advance across restarts and the
    graph generation is process-local, so byte-identity is defined
    over the *content* readers consume."""
    collection = query_hotspots(service.publisher.require_latest())
    collection.pop("snapshot", None)
    return (
        len(service.strabon.graph),
        json.dumps(collection, sort_keys=True),
    )


def _crashing_child(state_dir, point, hits, greece, season, requests):
    crashpoints.arm(point, hits=hits)
    service = FireMonitoringService(
        greece=greece, config=_service_config(state_dir)
    )
    service.run(requests, RunOptions(season=season, on_error="raise"))
    os._exit(0)  # the armed point never fired: the cell is broken


@pytest.fixture(scope="module")
def oracle(durable_greece, durable_season, acquisition_requests):
    """Per-cursor states of a service that never crashes (and never
    touches disk): ``oracle[k]`` is the capture after ``k``
    acquisitions."""
    service = FireMonitoringService(
        greece=durable_greece,
        config=ServiceConfig(mode="teleios"),
    )
    try:
        states = [_capture(service)]
        options = RunOptions(season=durable_season, on_error="raise")
        for when in acquisition_requests:
            outcomes = service.run([when], options)
            assert [o.status for o in outcomes] == ["ok"]
            states.append(_capture(service))
        return states
    finally:
        service.close()


@pytest.mark.parametrize("point", sorted(CRASHPOINTS))
def test_crash_recover_resume(point, tmp_path, oracle,
                              durable_greece, durable_season,
                              acquisition_requests):
    assert set(CRASH_HITS) == set(CRASHPOINTS), (
        "every registered crashpoint must have a matrix row"
    )
    state_dir = str(tmp_path / "state")
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_crashing_child,
        args=(state_dir, point, CRASH_HITS[point], durable_greece,
              durable_season, acquisition_requests),
    )
    child.start()
    child.join(timeout=300)
    assert child.exitcode == CRASH_EXIT, (
        f"child for {point!r} exited {child.exitcode}, "
        f"expected injected crash {CRASH_EXIT}"
    )

    # Dying at *any* armed point leaves a parseable flight-recorder
    # dump whose tail names the crash site.
    dumps = flightrec.list_dumps(os.path.join(state_dir, "flightrec"))
    assert dumps, f"crash at {point!r} left no flight-recorder dump"
    payload = flightrec.load_dump(dumps[-1])
    assert payload["reason"] == f"crashpoint:{point}"
    assert payload["events"], "dump carries no events"
    last = payload["events"][-1]
    assert last["kind"] == "crash"
    assert last["name"] == point

    cursor = EXPECTED_CURSOR[point]
    service = FireMonitoringService.open(state_dir, greece=durable_greece)
    try:
        durability = service.health()["durability"]
        assert durability["recovered"] is EXPECTED_RECOVERED[point]
        assert durability["committed_acquisitions"] == cursor

        # Recovery surfaces the dump: health() names the crash site.
        report = durability["flight_recorder"]
        assert report is not None
        assert report["reason"] == f"crashpoint:{point}"
        assert report["last_event"]["kind"] == "crash"
        assert report["last_event"]["name"] == point
        assert report["events"] >= 1
        assert _capture(service) == oracle[cursor], (
            f"recovered state after {point!r} differs from the "
            f"never-crashed oracle at cursor {cursor}"
        )

        # Resume: replay the *full* stream; the committed prefix must
        # be skipped, the remainder processed, and the final state must
        # match the oracle's.
        outcomes = service.run(
            acquisition_requests,
            RunOptions(season=durable_season, on_error="raise"),
        )
        assert len(outcomes) == N_ACQUISITIONS - cursor
        durability = service.health()["durability"]
        assert durability["committed_acquisitions"] == N_ACQUISITIONS
        assert durability["resume_skipped"] == cursor
        assert _capture(service) == oracle[N_ACQUISITIONS], (
            f"resumed run after {point!r} diverged from the oracle"
        )
    finally:
        service.close()
