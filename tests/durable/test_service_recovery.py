"""End-to-end serving-layer recovery.

A durable service is killed mid-season (injected abort after
acquisition 2's publish), reopened with
:meth:`FireMonitoringService.open`, and served over real HTTP: the
``/v1/health`` document must report the recovery, and a polling reader
that saw sequence numbers before the crash must never observe one
again — numbering resumes strictly above the pre-crash maximum and
stays monotonic while the resumed ingest completes.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from datetime import timedelta

import pytest

from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.durable import CRASH_EXIT, crashpoints
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, inject
from repro.serve import ServeClient, serve_in_thread

from tests.durable.conftest import N_ACQUISITIONS

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="recovery e2e requires fork()"
)


def _crash_after_two(state_dir, greece, season, requests):
    # The second pass through commit.post-publish = right after
    # acquisition 2's snapshot reached readers.
    crashpoints.arm("commit.post-publish", hits=2)
    service = FireMonitoringService(
        greece=greece,
        config=ServiceConfig(state_dir=state_dir, wal_fsync="never"),
    )
    service.run(requests, RunOptions(season=season, on_error="raise"))
    os._exit(0)  # crashpoint never fired


def test_recovered_service_serves_monotonic_sequences(
    tmp_path, durable_greece, durable_season, acquisition_requests
):
    state_dir = str(tmp_path / "state")
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_crash_after_two,
        args=(state_dir, durable_greece, durable_season,
              acquisition_requests),
    )
    child.start()
    child.join(timeout=300)
    assert child.exitcode == CRASH_EXIT

    # Sequences the crashed process exposed to readers: the initial
    # aux-only publish (1) plus one per committed acquisition -> 3.
    pre_crash_max = 3

    service = FireMonitoringService.open(state_dir, greece=durable_greece)
    try:
        with serve_in_thread(service) as handle:
            client = ServeClient.for_handle(handle)
            health = client.health()
            durability = health["durability"]
            assert durability["recovered"] is True
            assert durability["committed_acquisitions"] == 2
            assert durability["last_committed_timestamp"] is not None
            assert durability["recovery"]["checkpoint_triples"] > 0
            assert health["snapshot"]["sequence"] > pre_crash_max

            # Resume the season on a writer thread while a reader
            # polls: no sequence it sees may ever move backwards.
            errors = []

            def ingest():
                try:
                    service.run(
                        acquisition_requests,
                        RunOptions(
                            season=durable_season, on_error="raise"
                        ),
                    )
                except Exception as error:  # pragma: no cover
                    errors.append(repr(error))

            writer = threading.Thread(target=ingest, daemon=True)
            sequences = []
            writer.start()
            while writer.is_alive():
                collection = client.hotspots()
                sequences.append(collection["snapshot"]["sequence"])
            writer.join()
            final = client.hotspots()
            sequences.append(final["snapshot"]["sequence"])

            assert not errors
            assert all(s > pre_crash_max for s in sequences)
            assert sequences == sorted(sequences)

            health = client.health()
            durability = health["durability"]
            assert durability["committed_acquisitions"] == N_ACQUISITIONS
            assert durability["resume_skipped"] == 2
            assert len(final["features"]) > 0
    finally:
        service.close()

    # A second cold open resumes without reprocessing anything: the
    # whole stream is recognized as committed.
    reopened = FireMonitoringService.open(state_dir, greece=durable_greece)
    try:
        outcomes = reopened.run(
            acquisition_requests,
            RunOptions(season=durable_season, on_error="raise"),
        )
        assert outcomes == []
        durability = reopened.health()["durability"]
        assert durability["committed_acquisitions"] == N_ACQUISITIONS
        assert durability["resume_skipped"] == N_ACQUISITIONS
        # The dictionary cursor covers the whole recovered dictionary.
        wal = durability["wal"]
        assert wal["durable_terms"] == reopened.strabon.graph.term_count()
        assert wal["checkpoint_bytes"] == os.path.getsize(
            os.path.join(state_dir, "durable", "graph.ckpt")
        )
        sequence = reopened.publisher.sequence
    finally:
        reopened.close()

    # Two opens in a row with no commit between them: the second must
    # still number above the first one's (observable) publication.
    again = FireMonitoringService.open(state_dir, greece=durable_greece)
    try:
        assert again.publisher.sequence > sequence
    finally:
        again.close()


def _crash_after_a_compaction(state_dir, greece, season, requests):
    # checkpoint_interval=1 compacts after every commit, so the WAL is
    # empty when acquisition 5's append tears.  Acquisitions 2-4 fail
    # refinement: three failures open the service's breaker.
    service = FireMonitoringService(
        greece=greece,
        config=ServiceConfig(
            state_dir=state_dir, wal_fsync="never", checkpoint_interval=1
        ),
    )
    plan = FaultPlan()
    for index in (1, 2, 3):
        plan.raise_in("refine.municipalities", index=index)
    crashpoints.arm("wal.append.torn", hits=len(requests))
    with inject(plan):
        service.run(requests, RunOptions(season=season))
    os._exit(0)  # crashpoint never fired


def test_a_crash_after_a_compaction_recovers_the_cursor_from_the_checkpoint(
    tmp_path, durable_greece, durable_season, acquisition_requests
):
    state_dir = str(tmp_path / "state")
    base = acquisition_requests[0]
    requests = [base + timedelta(minutes=15 * k) for k in range(5)]
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_crash_after_a_compaction,
        args=(state_dir, durable_greece, durable_season, requests),
    )
    child.start()
    child.join(timeout=300)
    assert child.exitcode == CRASH_EXIT

    service = FireMonitoringService.open(state_dir, greece=durable_greece)
    try:
        health = service.health()
        durability = health["durability"]
        recovery = durability["recovery"]
        assert recovery["replayed_records"] == 0
        assert recovery["truncated_bytes"] > 0  # the torn append
        assert service.recovery.last_seq is None  # the WAL is empty
        assert durability["committed_acquisitions"] == 4
        assert durability["last_committed_timestamp"] == (
            requests[3].isoformat()
        )
        assert health["acquisitions"] == {
            "ok": 1, "degraded": 3, "error": 0
        }
        assert health["circuit_breaker"] == "open"
        # The aux-only publish plus four acquisitions reached readers.
        assert health["snapshot"]["sequence"] > 5
        assert service.config.checkpoint_interval == 1
        # The cursor resumes at the torn acquisition.
        outcomes = service.run(
            requests, RunOptions(season=durable_season)
        )
        assert [o.timestamp for o in outcomes] == requests[4:]
    finally:
        service.close()


def _crash_in_the_first_open(state_dir, greece):
    # The first pass through graph-checkpoint.post-rename is the
    # baseline checkpoint the first open writes.
    crashpoints.arm("graph-checkpoint.post-rename", hits=1)
    FireMonitoringService(
        greece=greece,
        config=ServiceConfig(
            state_dir=state_dir,
            wal_fsync="never",
            checkpoint_interval=2,
            sources={"seed": 7},
        ),
    )
    os._exit(0)  # crashpoint never fired


def test_a_crash_after_the_baseline_checkpoint_keeps_the_configuration(
    tmp_path, durable_greece
):
    state_dir = str(tmp_path / "state")
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_crash_in_the_first_open, args=(state_dir, durable_greece)
    )
    child.start()
    child.join(timeout=300)
    assert child.exitcode == CRASH_EXIT

    service = FireMonitoringService.open(state_dir, greece=durable_greece)
    try:
        assert service.config.wal_fsync == "never"
        assert service.config.checkpoint_interval == 2
        assert service.config.sources is not None
        assert service.config.sources.seed == 7
    finally:
        service.close()


def _add_saved_config_keys(state_dir, **keys):
    path = os.path.join(state_dir, "service.json")
    with open(path) as fh:
        state = json.load(fh)
    state["config"].update(keys)
    with open(path, "w") as fh:
        json.dump(state, fh)


def test_a_service_json_with_the_retired_config_keys_reopens(
    tmp_path, durable_greece, durable_season, acquisition_requests
):
    # A service.json written while the service still had a mode also
    # saved "mode" and "clouds_per_scene".  Holding the values the
    # service always runs with, they are dropped on open; any other
    # value is refused by name.
    state_dir = str(tmp_path / "state")
    options = RunOptions(season=durable_season, on_error="raise")
    service = FireMonitoringService(
        greece=durable_greece,
        config=ServiceConfig(state_dir=state_dir, wal_fsync="never"),
    )
    try:
        service.run(acquisition_requests[:1], options)
    finally:
        service.close()
    _add_saved_config_keys(state_dir, mode="teleios", clouds_per_scene=0.0)

    reopened = FireMonitoringService.open(state_dir, greece=durable_greece)
    try:
        assert reopened.config.wal_fsync == "never"
        outcomes = reopened.run(acquisition_requests, options)
        assert [o.timestamp for o in outcomes] == acquisition_requests[1:]
        assert all(o.status == "ok" for o in outcomes)
        durability = reopened.health()["durability"]
        assert durability["resume_skipped"] == 1
        assert durability["committed_acquisitions"] == N_ACQUISITIONS
    finally:
        reopened.close()

    _add_saved_config_keys(state_dir, clouds_per_scene=2.0)
    with pytest.raises(ConfigurationError, match="clouds_per_scene"):
        FireMonitoringService.open(state_dir, greece=durable_greece)
