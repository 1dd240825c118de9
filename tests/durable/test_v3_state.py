"""A service state dir in the version-3 durable form opens and resumes.

The state is written by the current service, then rewritten by the
version-3 oracle writer (:mod:`tests.durable.v3_format`): a checkpoint
with a raw term table and id triples, WAL records with raw term
tables.  Reopened, it must serve the same ``/v1/hotspots`` answer,
resume the season where it stopped, and write a version-4 checkpoint
at its next compaction.
"""

from __future__ import annotations

import json
import os

from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.serve import ServeClient, serve_in_thread

from tests.durable import v3_format
from tests.durable.conftest import N_ACQUISITIONS


def _served_hotspots(service) -> str:
    with serve_in_thread(service) as handle:
        collection = ServeClient.for_handle(handle).hotspots()
    assert collection["features"]
    return json.dumps(collection["features"], sort_keys=True)


def test_version_3_state_serves_the_same_hotspots_and_resumes(
    tmp_path, durable_greece, durable_season, acquisition_requests
):
    options = RunOptions(season=durable_season, on_error="raise")
    state_dir = str(tmp_path / "state")
    durable_dir = os.path.join(state_dir, "durable")
    service = FireMonitoringService(
        greece=durable_greece,
        config=ServiceConfig(state_dir=state_dir, wal_fsync="never"),
    )
    try:
        service.run(acquisition_requests[:2], options)
        served = _served_hotspots(service)
    finally:
        service.close()
    assert v3_format.downgrade(durable_dir) == 2
    assert v3_format.checkpoint_version(durable_dir) == 3

    reopened = FireMonitoringService.open(state_dir, greece=durable_greece)
    try:
        assert reopened.recovery.replayed_records == 2
        assert _served_hotspots(reopened) == served
        assert len(reopened.run(acquisition_requests, options)) == (
            N_ACQUISITIONS - 2
        )
        reopened.durable.checkpoint()
        assert v3_format.checkpoint_version(durable_dir) == 4
        resumed = _served_hotspots(reopened)
    finally:
        reopened.close()

    # The resumed season ends where an uninterrupted one does.
    oracle_dir = str(tmp_path / "oracle")
    oracle = FireMonitoringService(
        greece=durable_greece,
        config=ServiceConfig(state_dir=oracle_dir, wal_fsync="never"),
    )
    try:
        oracle.run(acquisition_requests, options)
        assert _served_hotspots(oracle) == resumed
    finally:
        oracle.close()

    again = FireMonitoringService.open(state_dir, greece=durable_greece)
    try:
        assert again.recovery.replayed_records == 0
        assert _served_hotspots(again) == resumed
        durability = again.health()["durability"]
        assert durability["committed_acquisitions"] == N_ACQUISITIONS
    finally:
        again.close()
