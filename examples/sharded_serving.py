"""The sharded scatter-gather serving tier, end to end.

Ingests a crisis-afternoon burst, then starts the *sharded* read path
(`FireMonitoringService.serve_sharded`): the published store is
partitioned by SEVIRI target-grid tile, one HTTP shard per partition
plus a catch-all for non-geometric triples, with a router front end
that scatter-gathers ``/v1/hotspots`` (bbox-pruned to intersecting
tiles) and ``/v1/stsparql`` (federated union over all shards).

The walk-through demonstrates the v1 API redesign:

* the unified query contract — ``ServeClient.query(text, params=,
  explain=, timeout=)`` means the same thing here as on an in-process
  ``Strabon``/``SnapshotView``; every shard answers reads with the
  same fixed engine policy (columnar reads), on its server's thread
  pool;
* the normalised ``provenance`` block with its composite consistency
  token (one ``sequence.generation`` part per shard) that never
  travels backwards while ingest republishes;
* degraded-but-labelled answers when a shard dies mid-fan-out
  (injected with ``repro.faults``).

Run:  python examples/sharded_serving.py
"""

import threading
from datetime import datetime, timedelta, timezone

from repro import obs
from repro.core import FireMonitoringService, RunOptions, ServiceConfig
from repro.datasets import SyntheticGreece
from repro.faults import FaultPlan, inject
from repro.serve import ConsistencyToken, ServeClient
from repro.seviri.fires import FireSeason

STSPARQL = """\
PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>
SELECT ?h ?conf WHERE { ?h a noa:Hotspot ; noa:hasConfidence ?conf }
"""


def main() -> None:
    obs.enable()
    greece = SyntheticGreece(seed=42, detail=2)
    crisis_start = datetime(2007, 8, 24, tzinfo=timezone.utc)
    season = FireSeason(greece, crisis_start, days=1, seed=7)
    options = RunOptions(season=season)

    print("Ingesting the 13:00-13:30 UTC acquisitions...")
    service = FireMonitoringService(
        greece=greece,
        config=ServiceConfig(mode="teleios"),
    )
    first = [
        crisis_start.replace(hour=13) + timedelta(minutes=15 * k)
        for k in range(3)
    ]
    service.run(first, options)

    manager, handle = service.serve_sharded(shards=4)
    try:
        router = ServeClient.for_handle(handle)
        layout = manager.layout
        print(
            f"Sharded tier up: {layout.tiles_x}x{layout.tiles_y} tiles "
            f"+ catch-all, router at http://{router.host}:{router.port}\n"
        )

        merged = router.hotspots()
        provenance = merged["provenance"]
        token = ConsistencyToken.decode(provenance["token"])
        print(
            f"GET /v1/hotspots -> {len(merged['features'])} features "
            f"merged from {len(provenance['shards'])} shards"
        )
        print(f"composite token: {provenance['token']}")

        # Bbox-pruned fan-out: a query box inside the western column
        # consults only the tiles it intersects, never the catch-all.
        env = layout.envelope
        west = (
            f"{env.minx},{env.miny},"
            f"{(env.minx + env.maxx) / 2 - 0.01},{env.maxy}"
        )
        pruned = router.hotspots(bbox=west)
        consulted = [b["shard"] for b in pruned["provenance"]["shards"]]
        print(
            f"GET /v1/hotspots?bbox=<west half> consulted only shards "
            f"{consulted} -> {len(pruned['features'])} features"
        )

        rows = router.query(STSPARQL)
        print(
            "POST /v1/stsparql (federated union) -> "
            f"{len(rows['results']['bindings'])} bindings"
        )
        plan = router.query(STSPARQL, explain=True)
        print(
            f"explain=True -> engine={plan['engine']}, "
            f"{len(plan['shards'])} per-shard plans"
        )

        # Kill one shard's fan-out leg: the answer degrades, labelled.
        victim = consulted[0]
        with inject(
            FaultPlan().raise_in("router.fanout", index=victim, times=10)
        ):
            degraded = router.hotspots()
        print(
            "\nWith shard "
            f"{victim} dead: degraded="
            f"{degraded['provenance']['degraded']}, missing="
            f"{degraded['provenance']['missing_shards']}, "
            f"{len(degraded['features'])} features from the survivors"
        )
        assert degraded["provenance"]["degraded"] is True

        # Ingest more on a writer thread: every publication fans out to
        # the shard publishers and the composite token only advances.
        later = [
            crisis_start.replace(hour=14) + timedelta(minutes=15 * k)
            for k in range(2)
        ]
        writer = threading.Thread(
            target=service.run, args=(later, options), daemon=True
        )
        writer.start()
        writer.join()
        fresh = ConsistencyToken.decode(
            router.hotspots()["provenance"]["token"]
        )
        assert token.is_behind(fresh), (token, fresh)
        print(
            f"\nAfter live ingest the tier advanced: {fresh.encode()} "
            "(the old token is strictly behind it)"
        )

        health = router.health()
        print(
            f"GET /v1/health -> status={health['status']}, "
            f"{len(health['shards'])} shards, "
            f"token={health['token']}"
        )
        assert health["status"] == "ok", health
    finally:
        handle.stop()
        manager.stop_http()
    service.close()
    print("\nSharded tier stopped cleanly.")


if __name__ == "__main__":
    main()
