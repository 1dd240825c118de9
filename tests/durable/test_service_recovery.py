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

import multiprocessing
import os
import threading

import pytest

from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.durable import CRASH_EXIT, crashpoints
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
    finally:
        reopened.close()
