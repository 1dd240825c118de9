"""The ``/v1/hotspots`` read model against its reference SELECT.

Every publication carries a hotspot table maintained from the commit's
delta; ``query_hotspots`` filters it.  These tests hold the served
bytes to the reference definition (``reference_hotspots``: one SELECT
plus regrouping per read) after every publication — of a real
federated run, of a recovered service, of each shard — and under
seeded random mutations of hotspot stars, and bound what one
publication re-reads.
"""

from __future__ import annotations

import http.client
import json
import random
from datetime import datetime, timedelta, timezone
from urllib.parse import urlencode

import pytest

from repro.core import FireMonitoringService, RunOptions, ServiceConfig
from repro.datasets import SyntheticGreece
from repro.geometry import Envelope
from repro.rdf import NOA, RDF, STRDF, XSD
from repro.rdf.namespace import RDFS
from repro.rdf.term import Literal, URI
from repro.serve import (
    HotspotTable,
    SnapshotPublisher,
    query_hotspots,
    serve_in_thread,
)
from repro.serve import hotspots, subscribe
from repro.serve.subscribe import SubscriptionEngine, delta_from_ops
from repro.seviri.fires import FireSeason
from repro.stsparql import Strabon
from tests.serve.reference_hotspots import reference_hotspots

CRISIS_START = datetime(2007, 8, 24, tzinfo=timezone.utc)
WKT = "http://strdf.di.uoa.gr/ontology#WKT"

#: One of each filter, and a few compositions.
FILTERS = (
    {},
    {"bbox": Envelope(21.0, 36.5, 24.0, 39.5)},
    {"since": "2007-08-24T13:15:00"},
    {"until": "2007-08-24T13:15:00"},
    {"since": "2007-08-24T13:00:00", "until": "2007-08-24T13:30:00"},
    {"min_confidence": 0.5},
    {"confirmed": True},
    {"confirmed": False},
    {"static": True},
    {"static": False},
    {"confirmed": True, "static": False, "min_confidence": 0.3},
)


def _assert_matches_reference(published, where: str) -> None:
    for flags in FILTERS:
        got = json.dumps(query_hotspots(published, **flags))
        want = json.dumps(reference_hotspots(published, **flags))
        assert got == want, f"{where}, filters {flags}"


# -- the HTTP body against the dict path -------------------------------------


class _Pinned:
    """A stand-in service serving whichever publication the test pins."""

    def __init__(self) -> None:
        self.publisher = self
        self.published = None

    def latest(self):
        return self.published

    def health(self):
        return {"status": "ok"}


@pytest.fixture(scope="module")
def pinned():
    service = _Pinned()
    with serve_in_thread(service, read_workers=1) as handle:
        yield service, handle


def _query_string(flags) -> str:
    params = {}
    for name, value in flags.items():
        if isinstance(value, Envelope):
            value = f"{value.minx},{value.miny},{value.maxx},{value.maxy}"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        params[name] = str(value)
    return urlencode(params)


def _get_hotspots(handle, flags) -> bytes:
    conn = http.client.HTTPConnection(*handle.address, timeout=30)
    try:
        conn.request("GET", "/v1/hotspots?" + _query_string(flags))
        response = conn.getresponse()
        body = response.read()
    finally:
        conn.close()
    assert response.status == 200, body[:200]
    return body


def _assert_http_matches_dict_path(pinned, published, where: str) -> None:
    """Every filter's body is ``json.dumps`` of the dict path plus its
    provenance, byte for byte; only the request's own trace id (which
    the dict path cannot know) is taken from the body."""
    service, handle = pinned
    service.published = published
    for flags in FILTERS:
        body = _get_hotspots(handle, flags)
        trace_id = json.loads(body)["provenance"]["request_trace_id"]
        want = query_hotspots(published, **flags)
        if trace_id is not None:
            want["snapshot"]["request_trace_id"] = trace_id
        want["provenance"] = handle.server._provenance(published)
        want["provenance"]["request_trace_id"] = trace_id
        assert body == json.dumps(want).encode("utf-8"), (
            f"{where}, filters {flags}"
        )


# -- a federated, durable, sharded run --------------------------------------


@pytest.fixture(scope="module")
def table_greece():
    return SyntheticGreece(seed=42, detail=1)


def test_served_bytes_equal_reference_after_every_publication(
    table_greece, tmp_path, pinned
):
    state_dir = str(tmp_path / "state")
    season = FireSeason(table_greece, CRISIS_START, days=1, seed=7)
    config = dict(
        state_dir=state_dir,
        wal_fsync="never",
        sources={"seed": 7, "polar_revisit_minutes": 15},
    )
    service = FireMonitoringService(
        greece=table_greece, config=ServiceConfig(**config)
    )
    manager, handle = service.serve_sharded(2)
    publications = []
    # Registered after the shard tier's own subscription, so the shard
    # publishers have republished by the time this runs.
    service.publisher.subscribe(
        lambda published: publications.append(
            (
                published,
                [
                    manager.shards[sid].publisher.latest()
                    for sid in manager.shard_ids
                ],
            )
        )
    )
    try:
        base = CRISIS_START + timedelta(hours=13)
        outcomes = service.run(
            [base + timedelta(minutes=15 * k) for k in range(4)],
            RunOptions(season=season, on_error="raise"),
        )
        assert [o.status for o in outcomes] == ["ok"] * 4
        assert len(publications) == 4
        for published, shards in publications:
            where = f"publication {published.sequence}"
            _assert_matches_reference(published, where)
            _assert_http_matches_dict_path(pinned, published, where)
            for sid, shard in zip(manager.shard_ids, shards):
                _assert_matches_reference(shard, f"{where}, shard {sid}")
        final = query_hotspots(publications[-1][0])["features"]
        assert any(f["properties"]["sources"] for f in final)
        assert any(
            f["properties"]["confirmation"] == "confirmed" for f in final
        )
    finally:
        handle.stop()
        manager.stop_http()
        service.close()
    reopened = FireMonitoringService.open(state_dir, greece=table_greece)
    try:
        latest = reopened.publisher.require_latest()
        _assert_matches_reference(latest, "after open")
        _assert_http_matches_dict_path(pinned, latest, "after open")
        assert query_hotspots(latest)["features"] == final
    finally:
        reopened.close()


# -- seeded random mutations of hotspot stars --------------------------------

FLARE = URI("http://example.org/Flare")
SITE = URI("http://example.org/refinery/1")
SOURCES = [NOA.Source_polar, NOA.Source_viirs]


def _hotspot(n: int) -> URI:
    return URI(f"http://example.org/hotspot/{n}")


def _add_star(graph, n: int, rng: random.Random, kind=NOA.Hotspot):
    h = _hotspot(n)
    lon, lat = rng.uniform(20.5, 27.0), rng.uniform(34.5, 41.5)
    stamp = f"2007-08-24T13:{rng.choice(['00', '15', '30', '45'])}:00"
    graph.add(h, RDF.type, kind)
    graph.add(
        h,
        STRDF.hasGeometry,
        Literal(f"POINT ({lon:.4f} {lat:.4f})", datatype=WKT),
    )
    graph.add(
        h,
        NOA.hasAcquisitionDateTime,
        Literal(stamp, datatype=XSD.base + "dateTime"),
    )
    graph.add(h, NOA.hasConfidence, Literal(f"{rng.random():.3f}"))
    graph.add(
        h,
        NOA.hasConfirmation,
        rng.choice([NOA.confirmed, NOA.unconfirmed]),
    )
    if rng.random() < 0.3:
        graph.add(h, NOA.crossConfirmedBy, rng.choice(SOURCES))


def _mutate(graph, rng: random.Random, live: list, next_id: list):
    """One random edit of one hotspot star."""
    if not live or rng.random() < 0.15:
        _add_star(graph, next_id[0], rng)
        live.append(next_id[0])
        next_id[0] += 1
        return
    n = rng.choice(live)
    h = _hotspot(n)
    edit = rng.randrange(7)
    if edit == 0:  # confirmation flip
        old = graph.value(h, NOA.hasConfirmation)
        graph.remove(h, NOA.hasConfirmation, None)
        graph.add(
            h,
            NOA.hasConfirmation,
            NOA.unconfirmed if old == NOA.confirmed else NOA.confirmed,
        )
    elif edit == 1:  # a static match arrives later
        graph.add(h, NOA.matchesStaticSource, SITE)
    elif edit == 2:
        graph.remove(h, NOA.matchesStaticSource, None)
    elif edit == 3:
        graph.add(h, NOA.crossConfirmedBy, rng.choice(SOURCES))
    elif edit == 4:  # geometry removed: no longer served
        graph.remove(h, STRDF.hasGeometry, None)
    elif edit == 5:  # the whole star deleted (sea / invalid for fires)
        graph.remove(h, None, None)
        live.remove(n)
    else:
        graph.remove(h, NOA.hasConfidence, None)
        graph.add(h, NOA.hasConfidence, Literal(f"{rng.random():.3f}"))


@pytest.mark.parametrize("seed", range(3))
def test_table_tracks_random_star_mutations(seed, monkeypatch, pinned):
    rng = random.Random(seed)
    strabon = Strabon()
    graph = strabon.graph
    live = list(range(12))
    next_id = [len(live)]
    for n in live:
        _add_star(graph, n, rng)
    # A star typed by a class that is not (yet) a hotspot subclass.
    _add_star(graph, 999, rng, kind=FLARE)
    publisher = SnapshotPublisher()
    publisher.publish(strabon)
    graph.start_journal()
    full_builds = []
    real_full = hotspots.iter_hotspot_records

    def counting_full(g):
        full_builds.append(1)
        return real_full(g)

    monkeypatch.setattr(hotspots, "iter_hotspot_records", counting_full)
    for batch in range(12):
        for _ in range(rng.randint(1, 6)):
            _mutate(graph, rng, live, next_id)
        expect_full = False
        if batch == 5:
            # A wholesale rebuild journals a CLEAR.
            triples = list(graph.triples())
            graph.clear()
            for triple in triples:
                graph.add(*triple)
            strabon.reset_derived()
            expect_full = True
        if batch == 8:
            # The Flare star becomes a hotspot without being touched.
            graph.add(FLARE, RDFS.subClassOf, NOA.Hotspot)
            expect_full = True
        delta = delta_from_ops(graph.drain_journal())
        assert (delta.full_rescan or delta.schema_changed) == expect_full
        full_builds.clear()
        published = publisher.publish(strabon, delta=delta)
        assert len(full_builds) == int(expect_full), f"batch {batch}"
        _assert_matches_reference(published, f"seed {seed} batch {batch}")
        # Batches 5 (CLEAR) and 8 (subClassOf) rebuilt every row.
        _assert_http_matches_dict_path(
            pinned, published, f"seed {seed} batch {batch}"
        )
    served = {
        f["properties"]["hotspot"]
        for f in query_hotspots(publisher.require_latest())["features"]
    }
    assert _hotspot(999).value in served


# -- what one publication re-reads -----------------------------------------


@pytest.mark.parametrize("archive", [10, 1000])
def test_publication_rereads_only_changed_stars(archive, monkeypatch):
    rng = random.Random(archive)
    strabon = Strabon()
    graph = strabon.graph
    for n in range(archive):
        _add_star(graph, n, rng)
    publisher = SnapshotPublisher()
    engine = SubscriptionEngine()
    engine.bind(strabon, publisher)
    graph.start_journal()
    engine.register({"kind": "filter"})
    publisher.publish(strabon)

    reads = []
    real = subscribe.hotspot_record

    def counting(graph, inference, subject):
        reads.append(subject)
        return real(graph, inference, subject)

    monkeypatch.setattr(subscribe, "hotspot_record", counting)
    # One commit: two confirmation flips, one deleted star, one new.
    for n in (1, 2):
        graph.remove(_hotspot(n), NOA.hasConfirmation, None)
        graph.add(_hotspot(n), NOA.hasConfirmation, NOA.confirmed)
    graph.remove(_hotspot(3), None, None)
    _add_star(graph, archive, rng)
    delta = delta_from_ops(graph.drain_journal())
    engine.process_commit(publisher.sequence + 1, delta)
    published = publisher.publish(strabon, delta=delta)
    # Each changed star is read once, shared by engine and table, and
    # the count does not depend on the archive's size.
    assert sorted(reads) == sorted(
        _hotspot(n).value for n in (1, 2, 3, archive)
    )
    monkeypatch.undo()
    assert len(published.hotspots) == archive
    rebuilt = HotspotTable.full(published.view.snapshot)
    assert [row.feature for row in published.hotspots.rows] == [
        row.feature for row in rebuilt.rows
    ]
    if archive <= 10:
        _assert_matches_reference(published, f"archive {archive}")
    engine.close()


# -- what a publication and a read encode -------------------------------------


def _features_in(obj) -> int:
    """GeoJSON features inside one object handed to ``json.dumps``."""
    if isinstance(obj, dict):
        if obj.get("type") == "Feature":
            return 1
        return sum(_features_in(value) for value in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(_features_in(value) for value in obj)
    return 0


@pytest.mark.parametrize("archive", [10, 1000])
def test_reads_encode_no_feature_and_publishes_only_changed_ones(
    archive, monkeypatch, pinned
):
    rng = random.Random(archive)
    strabon = Strabon()
    graph = strabon.graph
    for n in range(archive):
        _add_star(graph, n, rng)
    publisher = SnapshotPublisher()
    graph.start_journal()
    first = publisher.publish(strabon)

    encoded = []
    real_dumps = json.dumps

    def counting_dumps(obj, *args, **kwargs):
        encoded.append(_features_in(obj))
        return real_dumps(obj, *args, **kwargs)

    monkeypatch.setattr(json, "dumps", counting_dumps)
    # One commit changing k = 3 served stars: two confirmation flips
    # and one new hotspot.
    for n in (1, 2):
        graph.remove(_hotspot(n), NOA.hasConfirmation, None)
        graph.add(_hotspot(n), NOA.hasConfirmation, NOA.confirmed)
    _add_star(graph, archive, rng)
    published = publisher.publish(
        strabon, delta=delta_from_ops(graph.drain_journal())
    )
    assert sum(encoded) == 3
    unchanged = _hotspot(5).value
    assert [
        row.feature.encoded
        for row in first.hotspots.rows
        if row.feature["properties"]["hotspot"] == unchanged
    ] == [
        row.feature.encoded
        for row in published.hotspots.rows
        if row.feature["properties"]["hotspot"] == unchanged
    ]

    service, handle = pinned
    service.published = published
    encoded.clear()
    for flags in FILTERS:
        body = _get_hotspots(handle, flags)
        assert body.startswith(b'{"type": "FeatureCollection"')
    assert encoded and sum(encoded) == 0
    assert len(
        json.loads(_get_hotspots(handle, {}))["features"]
    ) == archive + 1
