"""The incremental-evaluation contract, asserted differentially.

Two independent guarantees:

* **Equivalence** — per published snapshot, the notification set the
  incremental (delta-driven) evaluation produced equals what a full
  re-run of every standing query over that snapshot would produce,
  across all three subscription families.
* **One evaluation per shape** — evaluating the standing queries of a
  shape with one engine call equals the per-query loop they replaced
  (kept below as the oracle): the same notifications in the same
  order, the same seen-sets, the same batch bytes.
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
from repro.rdf.namespace import NOA, RDF, STRDF
from repro.rdf.term import Literal, URI
from repro.serve import SnapshotPublisher
from repro.serve.subscribe import SubscriptionEngine, _text, delta_from_ops
from repro.seviri.fires import FireSeason
from repro.stsparql import Strabon

from tests.durable.conftest import CRISIS_START
from tests.serve.subscription_oracle import add_many, from_dict

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
        add_many(oracle.registry, engine.registry.list())
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
            workdir=tempfile.mkdtemp(prefix="test_fanout_"),
        ),
    )
    try:
        engine = service.subscriptions
        engine.register_many(_fanout_docs(diff_greece))
        oracle = SubscriptionEngine()
        add_many(oracle.registry, engine.registry.list())
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


class PerQueryEngine(SubscriptionEngine):
    """The oracle: every standing query evaluated by its own engine
    call, seeded with its own pending subjects — the loop per-shape
    evaluation replaced."""

    def _prime_queries(self, source, ids):
        for sub_id in ids:
            query = self.registry.get(sub_id).query
            for row in source.select(query):
                self._seen.setdefault(sub_id, set()).add(_text(row["h"]))

    def _match_queries(self, source, records, out, seeded):
        for sub in self.registry.standing_queries():
            seen = self._seen.setdefault(sub.id, set())
            pending = [
                r for r in records if not r.static and r.subject not in seen
            ]
            if not pending:
                continue
            params = [{"h": URI(r.subject)} for r in pending]
            rows = source.select(sub.query, params if seeded else None)
            matched = {_text(row["h"]) for row in rows}
            for record in pending:
                if record.subject in matched:
                    seen.add(record.subject)
                    out.match(sub.id, sub.kind, record)


def _standing_query(rng, kind=None):
    """One standing query of a random shape (or of shape ``kind``)
    with random constants."""
    kind = rng.randrange(5) if kind is None else kind
    if kind == 0:  # one lifted constant
        where = (
            "?h a noa:Hotspot ; noa:hasConfidence ?c . "
            f"FILTER(?c >= {rng.choice((0.3, 0.5, 0.7))})"
        )
    elif kind == 1:  # a region
        x, y = rng.uniform(20, 25), rng.uniform(35, 39)
        wkt = (
            f"POLYGON (({x} {y}, {x + 3} {y}, {x + 3} {y + 3}, "
            f"{x} {y + 3}, {x} {y}))"
        )
        where = (
            "?h a noa:Hotspot ; strdf:hasGeometry ?g . "
            f'FILTER(strdf:anyInteract("{wkt}"^^strdf:WKT, ?g))'
        )
    elif kind == 2:  # two lifted constants
        low = rng.choice((0.2, 0.4))
        where = (
            "?h a noa:Hotspot ; noa:hasConfidence ?c . "
            f"FILTER(?c >= {low} && ?c < {low + 0.5})"
        )
    elif kind == 3:  # no literal at all
        where = "?h a noa:Hotspot ; noa:isInMunicipality ?m ."
    else:  # a literal inside an OPTIONAL
        where = (
            "?h a noa:Hotspot . OPTIONAL { ?h noa:hasConfirmation ?k . "
            f'FILTER(str(?k) = "{NOA.base}confirmed") }} '
            f"FILTER(bound(?k) || {rng.choice(('true', 'false'))})"
        )
    return {
        "kind": "stsparql",
        "query": PREFIX
        + "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
        + f"SELECT ?h WHERE {{ {where} }}",
    }


def _hotspot(graph, rng, n):
    subject = URI(f"http://example.org/hotspot/{n}")
    x, y = rng.uniform(20, 28), rng.uniform(35, 42)
    graph.add(subject, RDF.type, NOA.Hotspot)
    graph.add(
        subject,
        STRDF.hasGeometry,
        Literal(f"POINT ({x} {y})", datatype=STRDF.WKT),
    )
    graph.add(subject, NOA.hasConfidence, Literal(rng.random()))
    graph.add(
        subject,
        NOA.isInMunicipality,
        URI(f"http://example.org/muni/{rng.randrange(4)}"),
    )
    return subject


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_one_call_per_shape_equals_the_per_query_loop(
    seed, monkeypatch, counter_ids
):
    rng = random.Random(seed)
    strabon = Strabon()
    for n in range(6):
        _hotspot(strabon.graph, rng, n)
    publisher = SnapshotPublisher()
    engines = [SubscriptionEngine(), PerQueryEngine()]
    for engine in engines:
        engine.bind(strabon, publisher)
    strabon.graph.start_journal()
    publisher.publish(strabon)

    def register(docs):
        # The same ids in both engines: the batches' bytes must match.
        start = counter_ids.next
        subs = engines[0].register_many(docs)
        counter_ids.next = start
        engines[1].register_many(docs)
        return subs

    docs = [_standing_query(rng) for _ in range(rng.randrange(8, 14))]
    docs.append(dict(docs[0]))  # two subscriptions, identical text
    docs += [_standing_query(rng, kind) for kind in (2, 3)]
    subs = register(docs)
    shapes = len(engines[0].registry.shapes())
    assert shapes < len(subs)
    hotspots = 6
    calls = notified = 0
    query = Strabon.query
    counted = []

    def counting(self, *args, **kwargs):
        counted.append(args[0])
        return query(self, *args, **kwargs)

    for step in range(6):
        graph = strabon.graph
        for _ in range(rng.randrange(1, 6)):
            _hotspot(graph, rng, hotspots)
            hotspots += 1
        for n in rng.sample(range(hotspots), 2):
            subject = URI(f"http://example.org/hotspot/{n}")
            graph.add(subject, NOA.hasConfirmation, NOA.confirmed)
            graph.remove(subject, NOA.hasConfidence, None)
            graph.add(subject, NOA.hasConfidence, Literal(rng.random()))
        if step == 2:  # a member registered mid-run
            register([_standing_query(rng)])
        if step == 4:  # a member removed mid-run: its shape shrinks
            gone = rng.choice(engines[0].registry.standing_queries())
            for engine in engines:
                engine.remove(gone.id)
        delta = delta_from_ops(graph.drain_journal())
        sequence = publisher.sequence + 1
        counted.clear()
        monkeypatch.setattr(Strabon, "query", counting)
        got = engines[0].process_commit(sequence, delta)
        monkeypatch.setattr(Strabon, "query", query)
        want = engines[1].process_commit(sequence, delta)
        assert got.to_payload() == want.to_payload(), f"step {step}"
        assert len(counted) <= len(engines[0].registry.shapes())
        calls += len(counted)
        notified += len(got.refs)
        publisher.publish(strabon)
        assert engines[0]._seen == engines[1]._seen, f"step {step}"
    assert calls and notified, "the run never notified a standing query"
    # The full re-run path, over subscriptions that have seen nothing.
    fresh = [
        from_dict(_standing_query(rng), f"fresh{n}", 0)
        for n in range(4)
    ]
    for engine in engines:
        add_many(engine.registry, fresh)
    snapshot = publisher.require_latest()
    full = [
        engine.evaluate_full(snapshot.view, snapshot.sequence + 1)
        for engine in engines
    ]
    assert full[0].to_payload() == full[1].to_payload()
    assert any(ref[0].startswith("fresh") for ref in full[0].refs)
    assert engines[0]._seen == engines[1]._seen


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
        add_many(oracle.registry, engine.registry.list())
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
