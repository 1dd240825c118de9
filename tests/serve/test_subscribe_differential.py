"""The incremental-evaluation contract, asserted differentially.

Two independent guarantees:

* **Equivalence** — per published snapshot, the notification set the
  incremental (delta-driven) evaluation produced equals what a full
  re-run of every standing query over that snapshot would produce,
  across all three subscription families.
* **Exactly-once across crashes** — a durable service killed between
  the triple-WAL commit and the notification-log append regenerates
  the swallowed batch on recovery; the union of notifications over the
  whole crashed-and-resumed season has no duplicates and equals the
  no-crash run, and a subscriber resuming from its acknowledged cursor
  receives exactly the batches it missed.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import tempfile
from datetime import timedelta

import pytest

from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.datasets import SyntheticGreece
from repro.durable import CRASH_EXIT, crashpoints
from repro.serve.subscribe import SubscriptionEngine
from repro.seviri.fires import FireSeason

from tests.durable.conftest import CRISIS_START

PREFIX = (
    "PREFIX noa: "
    "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
)

SUB_DOCS = [
    {"kind": "filter"},
    {"kind": "filter", "min_confidence": 0.5},
    {"kind": "filter", "bbox": [-180.0, -90.0, 180.0, 90.0]},
    {"kind": "filter", "confirmed": True},
    {
        "kind": "stsparql",
        "query": PREFIX
        + "SELECT ?h WHERE { ?h a noa:Hotspot . "
        + "?h noa:hasConfidence ?c . "
        + 'FILTER(?c >= "0.4") }',
    },
    {"kind": "fwi", "min_class": "low"},
]


@pytest.fixture(scope="module")
def diff_greece():
    return SyntheticGreece(seed=42, detail=1)


@pytest.fixture(scope="module")
def diff_season(diff_greece):
    return FireSeason(diff_greece, CRISIS_START, days=1, seed=7)


@pytest.fixture(scope="module")
def diff_requests():
    base = CRISIS_START + timedelta(hours=13)
    return [base + timedelta(minutes=15 * k) for k in range(3)]


def test_incremental_equals_full_rerun_per_snapshot(
    diff_greece, diff_season, diff_requests
):
    service = FireMonitoringService(
        greece=diff_greece,
        config=ServiceConfig(
            mode="teleios",
            workdir=tempfile.mkdtemp(prefix="test_diff_"),
        ),
    )
    try:
        engine = service.subscriptions
        for doc in SUB_DOCS:
            engine.register(doc)

        # The oracle shares the *same* subscription objects (same ids)
        # but evaluates every standing query over each full snapshot;
        # priming it against the initial publication mirrors the live
        # engine's registration-time priming and FWI baseline.
        oracle = SubscriptionEngine()
        for sub in engine.registry.list():
            oracle.registry.add(sub)
        initial = service.publisher.require_latest()
        oracle.evaluate_full(
            initial.view, initial.sequence, commit=True
        )

        batches = {}
        engine.add_listener(
            lambda b: batches.__setitem__(b.sequence, b)
        )
        snapshots = []
        service.publisher.subscribe(snapshots.append)
        service.run(
            diff_requests,
            RunOptions(season=diff_season, on_error="raise"),
        )

        assert len(snapshots) == len(diff_requests)
        total = 0
        for snap in snapshots:
            assert snap.sequence in batches, (
                f"no notification batch for publication "
                f"{snap.sequence}"
            )
            incremental = set(batches[snap.sequence].keys())
            full = set(
                oracle.evaluate_full(
                    snap.view, snap.sequence, commit=True
                ).keys()
            )
            assert incremental == full, (
                f"sequence {snap.sequence}: incremental != full "
                f"(only-incremental={incremental - full}, "
                f"only-full={full - incremental})"
            )
            total += len(incremental)
        assert total > 0, "differential run produced no notifications"
    finally:
        service.close()


def _fanout_docs(greece, geofences=300, queries=12, seed=3):
    """An ``alert_fanout``-shaped standing load: 0.5° geofences over
    the country, half confidence-floor and half spatial standing
    queries (3° regions), one FWI subscription."""
    from repro.core.mapping import region_wkt

    rng = random.Random(seed)
    minx, miny, maxx, maxy = greece.bbox
    docs = []
    for _ in range(geofences):
        x = rng.uniform(minx, maxx)
        y = rng.uniform(miny, maxy)
        box = [x - 0.25, y - 0.25, x + 0.25, y + 0.25]
        docs.append({"kind": "filter", "bbox": box})
    for index in range(queries):
        if index % 2 == 0:
            where = (
                "?h a noa:Hotspot ; noa:hasConfidence ?c . "
                f"FILTER(?c >= {rng.uniform(0.3, 0.9):.2f})"
            )
        else:
            x = rng.uniform(minx, maxx - 3.0)
            y = rng.uniform(miny, maxy - 3.0)
            region = region_wkt(x, y, x + 3.0, y + 3.0)
            where = (
                "?h a noa:Hotspot ; strdf:hasGeometry ?g . "
                f'FILTER(strdf:anyInteract("{region}"^^strdf:WKT, ?g))'
            )
        docs.append(
            {
                "kind": "stsparql",
                "query": PREFIX
                + "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
                + f"SELECT ?h WHERE {{ {where} }}",
            }
        )
    docs.append({"kind": "fwi", "min_class": "moderate"})
    return docs


def test_fanout_load_incremental_equals_full_rerun(
    diff_greece, diff_season, diff_requests
):
    """Seeded per-query batches over a fan-out load: every snapshot's
    incremental notification keys equal a full re-run's."""
    service = FireMonitoringService(
        greece=diff_greece,
        config=ServiceConfig(
            mode="teleios",
            workdir=tempfile.mkdtemp(prefix="test_fanout_"),
        ),
    )
    try:
        engine = service.subscriptions
        engine.register_many(_fanout_docs(diff_greece))
        oracle = SubscriptionEngine()
        for sub in engine.registry.list():
            oracle.registry.add(sub)
        initial = service.publisher.require_latest()
        oracle.evaluate_full(initial.view, initial.sequence)

        batches = {}
        engine.add_listener(lambda b: batches.__setitem__(b.sequence, b))
        snapshots = []
        service.publisher.subscribe(snapshots.append)
        service.run(
            diff_requests,
            RunOptions(season=diff_season, on_error="raise"),
        )

        assert len(snapshots) == len(diff_requests)
        kinds = set()
        for snap in snapshots:
            kinds |= {
                d["kind"] for d in batches[snap.sequence].notifications
            }
            incremental = set(batches[snap.sequence].keys())
            full = set(
                oracle.evaluate_full(snap.view, snap.sequence).keys()
            )
            assert incremental == full, (
                f"sequence {snap.sequence}: "
                f"only-incremental={incremental - full}, "
                f"only-full={full - incremental}"
            )
        assert {"filter", "stsparql"} <= kinds
    finally:
        service.close()


def test_full_rescan_races_source_outage(diff_greece, diff_requests):
    """A CLEAR-triggering store rebuild races a source-outage
    degradation (ISSUE 10 satellite).

    After the second acquisition publishes, the live graph is rebuilt
    wholesale — ``clear()`` + re-add, exactly the journal shape
    checkpoint compaction and recovery replay produce — so the *third*
    acquisition's commit delta carries ``OP_CLEAR`` and forces a full
    rescan.  That same acquisition loses its polar source to an
    injected outage.  The incremental delivery must still equal
    ``evaluate_full()`` on every snapshot: the rescan may not
    resurrect already-notified subjects, alert on static heat sources,
    or hide the degradation's provenance.
    """
    from repro.faults import FaultPlan, inject

    season = FireSeason(diff_greece, CRISIS_START, days=1, seed=7)
    service = FireMonitoringService(
        greece=diff_greece,
        config=ServiceConfig(
            seed=42,
            sources={"seed": 7, "polar_revisit_minutes": 15},
        ),
    )
    try:
        engine = service.subscriptions
        for doc in SUB_DOCS:
            engine.register(doc)

        oracle = SubscriptionEngine()
        for sub in engine.registry.list():
            oracle.registry.add(sub)
        initial = service.publisher.require_latest()
        oracle.evaluate_full(
            initial.view, initial.sequence, commit=True
        )

        batches = {}
        engine.add_listener(
            lambda b: batches.__setitem__(b.sequence, b)
        )
        snapshots = []
        service.publisher.subscribe(snapshots.append)

        rebuilt = []

        def rebuild_after_second(published):
            # Runs on the writer thread right after the publish: the
            # CLEAR + re-adds land in the capture journal and drain
            # into the *next* acquisition's commit delta.
            if published.sequence != initial.sequence + 2 or rebuilt:
                return
            graph = service.strabon.graph
            triples = list(graph.triples())
            graph.clear()
            for s, p, o in triples:
                graph.add(s, p, o)
            service.strabon.reset_derived()
            rebuilt.append(len(triples))

        service.publisher.subscribe(rebuild_after_second)

        plan = FaultPlan(seed=2).raise_in("source.polar", index=2)
        with inject(plan):
            outcomes = service.run(
                diff_requests, RunOptions(season=season)
            )

        assert [o.status for o in outcomes] == [
            "ok",
            "ok",
            "degraded",
        ]
        assert rebuilt, "the CLEAR rebuild never ran"
        assert len(snapshots) == len(diff_requests)

        # The racing acquisition is both degraded *and* full-rescanned;
        # its published provenance still names the gap.
        final = snapshots[-1]
        assert any(
            r["source"] == "polar" and r["status"] == "outage"
            for r in final.sources
        )

        total = 0
        for snap in snapshots:
            assert snap.sequence in batches
            incremental = set(batches[snap.sequence].keys())
            full = set(
                oracle.evaluate_full(
                    snap.view, snap.sequence, commit=True
                ).keys()
            )
            assert incremental == full, (
                f"sequence {snap.sequence}: incremental != full "
                f"(only-incremental={incremental - full}, "
                f"only-full={full - incremental})"
            )
            total += len(incremental)
        assert total > 0

        # The rescan notified nothing twice and nothing static.
        from repro.rdf import NOA

        for sub in engine.registry.list():
            subjects = [
                d["subject"]
                for b in batches.values()
                for d in b.notifications
                if d["subscription"] == sub.id
                and d.get("kind") != "fwi"
            ]
            assert len(subjects) == len(set(subjects))
            for subject in subjects:
                from repro.rdf.term import URI

                assert (
                    final.view.snapshot.value(
                        URI(subject), NOA.matchesStaticSource
                    )
                    is None
                ), f"static heat source {subject} alerted"
    finally:
        service.close()


# -- crash / resume exactness ----------------------------------------------

pytestmark_fork = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="crash e2e requires fork()"
)


def _crash_mid_commit(state_dir, greece, season, requests, id_path):
    # Second pass through commit.pre-publish: acquisition 2 is WAL-
    # committed (its record reserving the publication sequence) but its
    # notification batch never reached the log — the exact window
    # repair_tail covers.
    crashpoints.arm("commit.pre-publish", hits=2)
    service = FireMonitoringService(
        greece=greece,
        config=ServiceConfig(state_dir=state_dir, wal_fsync="never"),
    )
    sub = service.subscriptions.register({"kind": "filter"})
    with open(id_path, "w") as fh:
        fh.write(sub.id)
    service.run(requests, RunOptions(season=season, on_error="raise"))
    os._exit(0)  # crashpoint never fired


@pytestmark_fork
def test_crashed_subscriber_resumes_exactly_once(
    tmp_path, diff_greece, diff_season, diff_requests
):
    state_dir = str(tmp_path / "state")
    id_path = str(tmp_path / "sub_id")
    ctx = multiprocessing.get_context("fork")
    child = ctx.Process(
        target=_crash_mid_commit,
        args=(
            state_dir,
            diff_greece,
            diff_season,
            diff_requests,
            id_path,
        ),
    )
    child.start()
    child.join(timeout=300)
    assert child.exitcode == CRASH_EXIT
    with open(id_path) as fh:
        sub_id = fh.read().strip()

    # Pre-crash state: only acquisition 1's batch (sequence 2) made
    # the log; acquisition 2 is in the triple WAL but unlogged.
    service = FireMonitoringService.open(state_dir, greece=diff_greece)
    try:
        engine = service.subscriptions
        assert engine.registry.get(sub_id) is not None
        sequences = [b.sequence for b in engine.log.batches]
        assert sequences == sorted(set(sequences))
        assert 2 in sequences  # acquisition 1, logged pre-crash
        # The repaired batch rides the recovery publication, so the
        # log now extends past the crash point.
        assert engine.log.last_sequence > 2

        service.run(
            diff_requests,
            RunOptions(season=diff_season, on_error="raise"),
        )

        # Exactly-once: no subject is notified twice across the whole
        # crashed-and-resumed season.
        subjects = [
            doc["subject"]
            for batch in engine.log.batches
            for doc in batch.notifications
            if doc["subscription"] == sub_id
        ]
        assert len(subjects) == len(set(subjects))

        # Equivalence with a run that never crashed.
        oracle_service = FireMonitoringService(
            greece=diff_greece,
            config=ServiceConfig(
                mode="teleios",
                workdir=tempfile.mkdtemp(prefix="test_oracle_"),
            ),
        )
        try:
            oracle_sub = oracle_service.subscriptions.register(
                {"kind": "filter"}
            )
            oracle_subjects = set()
            oracle_service.subscriptions.add_listener(
                lambda b: oracle_subjects.update(
                    d["subject"]
                    for d in b.notifications
                    if d["subscription"] == oracle_sub.id
                )
            )
            oracle_service.run(
                diff_requests,
                RunOptions(season=diff_season, on_error="raise"),
            )
        finally:
            oracle_service.close()
        assert set(subjects) == oracle_subjects

        # Cursor resume: a subscriber that acknowledged sequence 2
        # before the crash receives exactly the later batches.
        resumed = engine.replay_after(2)
        assert [b.sequence for b in resumed] == [
            b.sequence
            for b in engine.log.batches
            if b.sequence > 2
        ]
        resumed_subjects = [
            doc["subject"]
            for batch in resumed
            for doc in batch.notifications
            if doc["subscription"] == sub_id
        ]
        already = {
            doc["subject"]
            for batch in engine.log.batches
            if batch.sequence <= 2
            for doc in batch.notifications
            if doc["subscription"] == sub_id
        }
        assert set(resumed_subjects) == set(subjects) - already
    finally:
        service.close()
