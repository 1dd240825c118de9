"""The sharded scatter-gather tier, differentially against one server.

The acceptance bar for the sharded serving tier: for the same published
store, the router's merged ``/v1/hotspots`` and ``/v1/stsparql``
answers must equal the single-server answers exactly, bbox fan-outs
must consult only intersecting tiles, and a failing shard must degrade
the response (labelled) rather than fail it.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.errors import SnapshotWriteError
from repro.faults import FaultPlan, inject
from repro.serve import (
    CATCH_ALL,
    ServeClient,
    ShardManager,
    serve_in_thread,
    serve_router_in_thread,
)
from repro.stsparql.errors import QueryTimeoutError, SparqlError

PREFIX = (
    "PREFIX noa: "
    "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
)
SELECT = PREFIX + (
    "SELECT ?h ?c WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?c }"
)
ASK = PREFIX + "ASK { ?h a noa:Hotspot }"

N_SHARDS = 4

#: Every route the server answers, each only under ``/v1``: the method
#: and body to send, and the status the ``/v1`` route answers with.
V1_ROUTES = {
    "/hotspots": ("GET", None, 200),
    "/stsparql": ("POST", SELECT, 200),
    "/metrics": ("GET", None, 200),
    "/health": ("GET", None, 200),
    "/debug/tracez": ("GET", None, 200),
    "/subscriptions": ("GET", None, 200),
    # Without subscription= the stream answers at once.
    "/stream": ("GET", None, 400),
}


@pytest.fixture(scope="module")
def single(served_service):
    with serve_in_thread(served_service) as handle:
        yield ServeClient.for_handle(handle)


@pytest.fixture(scope="module")
def tier(served_service):
    manager = ShardManager(served_service, shards=N_SHARDS)
    manager.start_http()
    handle = serve_router_in_thread(manager)
    try:
        yield manager, handle
    finally:
        handle.stop()
        manager.stop_http()


@pytest.fixture(scope="module")
def router(tier):
    _manager, handle = tier
    return ServeClient.for_handle(handle)


def _sorted_bindings(result):
    return sorted(
        result["results"]["bindings"],
        key=lambda b: json.dumps(b, sort_keys=True),
    )


class TestDifferential:
    """Sharded answers == single-store answers, byte for byte."""

    def test_hotspots_match(self, single, router):
        alone = single.hotspots()
        merged = router.hotspots()
        assert len(merged["features"]) > 0
        assert merged["features"] == alone["features"]

    def test_hotspots_match_under_every_filter(self, single, router):
        for kwargs in (
            {"bbox": "20.6,34.6,23.0,38.0"},
            {"min_confidence": 0.5},
            {"confirmed": True},
            {"since": "2007-08-24T13:15:00"},
        ):
            alone = single.hotspots(**kwargs)
            merged = router.hotspots(**kwargs)
            assert merged["features"] == alone["features"], kwargs

    def test_malformed_filters_are_400_through_the_router(
        self, single, router
    ):
        # The shards reject the malformed instant; the router passes
        # their 400 through verbatim.  A non-finite bbox never leaves
        # the router.
        for kwargs in (
            {"since": "garbage"},
            {"bbox": "nan,nan,nan,nan"},
        ):
            with pytest.raises(SparqlError) as alone:
                single.hotspots(**kwargs)
            with pytest.raises(SparqlError) as merged:
                router.hotspots(**kwargs)
            assert str(merged.value) == str(alone.value), kwargs

    def test_select_bindings_match_as_multisets(self, single, router):
        alone = single.query(SELECT)
        merged = router.query(SELECT)
        assert _sorted_bindings(merged) == _sorted_bindings(alone)
        assert merged["head"]["vars"] == alone["head"]["vars"]

    def test_ask_matches(self, single, router):
        assert router.query(ASK)["boolean"] is True
        assert (
            router.query(PREFIX + "ASK { ?h a noa:Nonexistent }")[
                "boolean"
            ]
            is False
        )


class TestFanOut:
    def test_bbox_prunes_consulted_shards(self, tier, router):
        from repro.serve import parse_bbox

        manager, _ = tier
        env = manager.layout.envelope
        west = (
            f"{env.minx},{env.miny},"
            f"{(env.minx + env.maxx) / 2 - 0.01},{env.maxy}"
        )
        merged = router.hotspots(bbox=west)
        consulted = [
            block["shard"] for block in merged["provenance"]["shards"]
        ]
        assert consulted == manager.shard_ids_for_bbox(
            parse_bbox(west)
        )
        assert consulted == [0, 2]  # 2x2 layout: the western column
        assert CATCH_ALL not in consulted

    def test_stsparql_consults_every_shard(self, tier, router):
        manager, _ = tier
        merged = router.query(SELECT)
        consulted = [
            block["shard"] for block in merged["provenance"]["shards"]
        ]
        assert consulted == manager.shard_ids

    def test_router_provenance_shape(self, tier, router):
        manager, _ = tier
        provenance = router.hotspots()["provenance"]
        assert provenance["api"] == "v1"
        assert provenance["role"] == "router"
        assert provenance["degraded"] is False
        assert provenance["missing_shards"] == []
        token = provenance["token"]
        assert token == manager.token().encode()
        # One (sequence, generation) part per shard.
        assert token.count("-") == len(manager.shard_ids) - 1


class TestDegraded:
    def test_dead_shard_degrades_but_labels(self, tier, router):
        manager, _ = tier
        # Kill the shard that actually holds hotspots, so the degraded
        # answer is visibly smaller, not just labelled.
        counts = {}
        for sid in manager.shard_ids_for_bbox(None):
            host, port = manager.shards[sid].address
            doc = ServeClient(host, port).hotspots()
            counts[sid] = len(doc["features"])
        victim = max(counts, key=counts.get)
        assert counts[victim] > 0
        plan = FaultPlan().raise_in(
            "router.fanout", index=victim, times=100
        )
        with inject(plan):
            merged = router.hotspots()
        provenance = merged["provenance"]
        assert provenance["degraded"] is True
        assert provenance["missing_shards"] == [victim]
        consulted = [b["shard"] for b in provenance["shards"]]
        assert victim not in consulted
        # The survivors still answer; the merged set is the clean set
        # minus exactly the dead shard's features.
        clean = router.hotspots()
        assert (
            len(merged["features"])
            == len(clean["features"]) - counts[victim]
        )
        assert set(
            f["properties"]["hotspot"] for f in merged["features"]
        ) <= set(
            f["properties"]["hotspot"] for f in clean["features"]
        )

    def test_all_shards_dead_is_503(self, tier, router):
        from repro.serve import ServeError

        plan = FaultPlan().raise_in("router.fanout", times=1000)
        with inject(plan):
            with pytest.raises(ServeError) as excinfo:
                router.query(SELECT)
        assert excinfo.value.status == 503

    def test_fault_site_is_inert_without_a_plan(self, router):
        # No active plan: the trip is a no-op and service is clean.
        assert router.hotspots()["provenance"]["degraded"] is False


class TestUnifiedContract:
    """ServeClient speaks the same keywords as the in-process engines
    and maps statuses back onto the same exceptions."""

    def test_explain_merges_per_shard_plans(self, tier, router):
        manager, _ = tier
        doc = router.query(SELECT, explain=True)
        assert doc["engine"] == "router"
        assert doc["operation"] == "explain"
        assert set(doc["shards"]) == {
            str(sid) for sid in manager.shard_ids
        }
        assert doc["rows"] == sum(
            shard["rows"] for shard in doc["shards"].values()
        )

    def test_timeout_maps_to_query_timeout_error(self, router):
        # A text no shard has answered on its publication: a repeat of
        # one is served from the shard's answer memo, within any
        # deadline.
        untimed = SELECT.replace("?h", "?timed")
        with pytest.raises(QueryTimeoutError):
            router.query(untimed, timeout=1e-9)

    def test_params_bind_remotely(self, single, router):
        query = PREFIX + (
            "SELECT ?h WHERE { ?h a noa:Hotspot ; "
            "noa:hasConfidence ?min }"
        )
        bindings = single.query(SELECT)["results"]["bindings"]
        assert bindings
        value = float(bindings[0]["c"]["value"])
        got = router.query(query, params={"min": value})
        expected = single.query(query, params={"min": value})
        assert _sorted_bindings(got) == _sorted_bindings(expected)

    def test_updates_refused_as_snapshot_write(self, router):
        with pytest.raises(SnapshotWriteError):
            router.query(
                PREFIX + "INSERT DATA { noa:evil a noa:Hotspot . }"
            )

    def test_undistributable_queries_are_422(self, router):
        for text in (
            SELECT + " LIMIT 2",
            SELECT + " ORDER BY ?c",
            PREFIX
            + "SELECT (COUNT(?h) AS ?n) WHERE { ?h a noa:Hotspot }",
        ):
            with pytest.raises(SparqlError):
                router.query(text)

class TestVersionedApi:
    def _raw(self, client, method, path, body=None):
        conn = http.client.HTTPConnection(
            client.host, client.port, timeout=30
        )
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.getheader("Content-Type", "").startswith(
            "application/json"
        ):
            return response, json.loads(data)
        return response, data.decode("utf-8", errors="replace")

    def test_all_v1_endpoints_answer_without_deprecation(self, single):
        for path in ("/v1/health", "/v1/metrics", "/v1/debug/tracez"):
            response, _ = self._raw(single, "GET", path)
            assert response.status == 200, path
            assert response.getheader("Deprecation") is None

    @pytest.mark.parametrize("tier_name", ["single", "router"])
    @pytest.mark.parametrize("path", list(V1_ROUTES))
    def test_only_v1_paths_answer(self, request, tier_name, path):
        client = request.getfixturevalue(tier_name)
        method, body, v1_status = V1_ROUTES[path]
        response, _ = self._raw(client, method, path, body)
        assert response.status == 404
        response, _ = self._raw(client, method, "/v1" + path, body)
        assert response.status == v1_status
        assert response.getheader("Deprecation") is None

    def test_provenance_is_normalised_everywhere(self, single, router):
        for client in (single, router):
            for payload in (
                client.hotspots(),
                client.query(ASK),
                client.health(),
                client.tracez(),
            ):
                provenance = payload["provenance"]
                assert provenance["api"] == "v1"
                assert provenance["role"] in ("server", "router")
                assert provenance["token"].startswith("v1:")
                assert "degraded" in provenance
                assert "missing_shards" in provenance


class TestRouterHealth:
    def test_health_aggregates_shards(self, tier, router):
        manager, _ = tier
        health = router.health()
        assert health["status"] == "ok"
        assert health["role"] == "router"
        assert health["layout"] == {
            "tiles_x": manager.layout.tiles_x,
            "tiles_y": manager.layout.tiles_y,
        }
        shards = health["shards"]
        assert [s["shard"] for s in shards] == manager.shard_ids
        assert all(s["status"] == "ok" for s in shards)
        assert sum(
            s["snapshot"]["triples"] for s in shards
        ) == len(served_triples(manager))
        assert health["token"] == manager.token().encode()


def served_triples(manager):
    latest = manager.service.publisher.latest()
    return latest.view.snapshot
