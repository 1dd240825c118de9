"""Torn WAL tails across a *federated* commit (ISSUE 10 satellite).

With the multi-source federation enabled, one acquisition's commit
batch interleaves ops from two sources — SEVIRI hotspot stars plus the
polar detections and weather-station stars the federation contributed.
A torn tail must roll the whole interleaved batch back **atomically**:
recovery may not keep one source's half of the acquisition and lose
the other's.  Each cell tears the WAL mid-append at a different
acquisition, recovers, and diffs the result — triples, served GeoJSON
(fused confidences, source lists, static flags included) and
per-source detection counts — against a never-crashed federated
oracle at the same cursor, then resumes to the oracle's final state.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.core.annotation import source_uri
from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.durable import CRASH_EXIT, crashpoints
from repro.rdf import NOA
from repro.serve.hotspots import query_hotspots
from repro.seviri.fires import FireSeason

from tests.durable.conftest import CRISIS_START, N_ACQUISITIONS

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="crash cells require fork()"
)

SEASON_SEED = 7

#: Tear the WAL during acquisition 2 (cursor rolls back to 1) and
#: during acquisition 3 (rolls back to 2) — both mid-season commits
#: carry interleaved two-source batches.
TORN_CELLS = {2: 1, 3: 2}


def _sources_config(state_dir):
    return ServiceConfig(
        state_dir=state_dir,
        wal_fsync="never",
        sources={"seed": SEASON_SEED, "polar_revisit_minutes": 15},
    )


def _make_season(greece):
    return FireSeason(greece, CRISIS_START, days=1, seed=SEASON_SEED)


def _capture(service):
    """(triples, canonical /hotspots GeoJSON, per-source detections).

    The per-source detection census is the atomicity probe: a torn
    interleaved batch must never leave one source's detections behind
    while dropping the other's.
    """
    collection = query_hotspots(service.publisher.require_latest())
    collection.pop("snapshot", None)
    graph = service.strabon.graph
    census = {}
    for name in ("polar", "weather"):
        census[name] = sum(
            1
            for _ in graph.subjects(NOA.fromSource, source_uri(name))
        )
    return (
        len(graph),
        json.dumps(collection, sort_keys=True),
        census,
    )


def _torn_child(state_dir, hits, greece, requests):
    crashpoints.arm("wal.append.torn", hits=hits)
    service = FireMonitoringService(
        greece=greece, config=_sources_config(state_dir)
    )
    service.run(
        requests,
        RunOptions(season=_make_season(greece), on_error="raise"),
    )
    os._exit(0)  # the armed point never fired: the cell is broken


@pytest.fixture(scope="module")
def federated_oracle(durable_greece, acquisition_requests):
    """Per-cursor captures of a federated service that never crashes
    (and never touches disk)."""
    service = FireMonitoringService(
        greece=durable_greece,
        config=ServiceConfig(
            sources={
                "seed": SEASON_SEED,
                "polar_revisit_minutes": 15,
            }
        ),
    )
    try:
        season = _make_season(durable_greece)
        states = [_capture(service)]
        for when in acquisition_requests:
            outcomes = service.run(
                [when], RunOptions(season=season, on_error="raise")
            )
            assert [o.status for o in outcomes] == ["ok"]
            states.append(_capture(service))
        # The run must actually interleave both sources, or the cells
        # below prove nothing about cross-source atomicity.
        final_census = states[-1][2]
        assert final_census["polar"] > 0
        assert final_census["weather"] > 0
        return states
    finally:
        service.close()


@pytest.mark.parametrize("hits", sorted(TORN_CELLS))
def test_torn_two_source_batch_rolls_back_atomically(
    hits,
    tmp_path,
    federated_oracle,
    durable_greece,
    acquisition_requests,
):
    state_dir = str(tmp_path / "state")
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_torn_child,
        args=(
            state_dir,
            hits,
            durable_greece,
            acquisition_requests,
        ),
    )
    child.start()
    child.join(timeout=300)
    assert child.exitcode == CRASH_EXIT

    cursor = TORN_CELLS[hits]
    service = FireMonitoringService.open(
        state_dir, greece=durable_greece
    )
    try:
        durability = service.health()["durability"]
        assert durability["recovered"] is True
        assert durability["committed_acquisitions"] == cursor

        recovered = _capture(service)
        oracle = federated_oracle[cursor]
        assert recovered[2] == oracle[2], (
            "torn interleaved batch rolled back one source but not "
            f"the other: {recovered[2]} != {oracle[2]}"
        )
        assert recovered == oracle

        # Resume the full stream: committed prefix skipped, the torn
        # acquisition re-acquired from *both* sources, final state
        # byte-identical to the never-crashed oracle.
        outcomes = service.run(
            acquisition_requests,
            RunOptions(
                season=_make_season(durable_greece), on_error="raise"
            ),
        )
        assert len(outcomes) == N_ACQUISITIONS - cursor
        assert [o.status for o in outcomes] == ["ok"] * len(outcomes)
        assert _capture(service) == federated_oracle[N_ACQUISITIONS]
    finally:
        service.close()
