"""Serving hotspots over HTTP: the read path of the NOA service.

Ingests a burst of crisis-afternoon acquisitions, then starts the
snapshot-isolated serving endpoint (``repro.serve``) on a local port and
plays the emergency-manager's side of the conversation: GeoJSON hotspot
queries with spatial/temporal/confidence filters, a read-only stSPARQL
POST, the health document, and a loop of reads that runs while the
ingest thread keeps publishing fresh snapshots underneath.

Readers never block writers and never see half-refined state: every
response carries the ``snapshot`` provenance block (publication
sequence + store generation) of the frozen snapshot it was answered
from.

Run:  python examples/hotspot_service.py
"""

import json
import threading
from datetime import datetime, timedelta, timezone

from repro import obs
from repro.core import FireMonitoringService, RunOptions
from repro.datasets import SyntheticGreece
from repro.serve import ServeClient, serve_in_thread
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
    service = FireMonitoringService(greece=greece)
    first = [
        crisis_start.replace(hour=13) + timedelta(minutes=15 * k)
        for k in range(3)
    ]
    service.run(first, options)

    with serve_in_thread(service) as handle:
        client = ServeClient.for_handle(handle)
        print(f"Serving at {handle.url}\n")

        collection = client.hotspots()
        snap = collection["snapshot"]
        print(
            f"GET /v1/hotspots -> {len(collection['features'])} features "
            f"(snapshot seq={snap['sequence']} gen={snap['generation']})"
        )
        confident = client.hotspots(min_confidence=0.9, confirmed=True)
        print(
            "GET /v1/hotspots?min_confidence=0.9&confirmed=true -> "
            f"{len(confident['features'])} features"
        )

        rows = client.query(STSPARQL)
        print(
            "POST /v1/stsparql (read-only) -> "
            f"{len(rows['results']['bindings'])} bindings"
        )

        # Keep ingesting on a writer thread while the reads below run.
        # Publication is atomic, so none of these reads can observe a
        # half-refined acquisition; any non-2xx answer raises.
        later = [
            crisis_start.replace(hour=14) + timedelta(minutes=15 * k)
            for k in range(2)
        ]
        writer = threading.Thread(
            target=service.run, args=(later, options), daemon=True
        )
        writer.start()
        reads = 0
        sequences = set()
        while writer.is_alive() or reads < 60:
            sequences.add(client.hotspots()["snapshot"]["sequence"])
            client.hotspots(min_confidence=0.8)
            client.query(STSPARQL)
            client.health()
            reads += 4
        writer.join()
        print(
            f"\n{reads} reads during live ingest, none failed; "
            f"they saw {len(sequences)} publications"
        )

        health = client.health()
        print("\nGET /v1/health ->")
        print(json.dumps(health, indent=2, sort_keys=True))
        assert health["status"] == "ok", health
        assert health["acquisitions"]["ok"] == len(first) + len(later)
        assert health["snapshot"]["sequence"] > snap["sequence"], (
            "ingest thread should have published fresher snapshots"
        )

    service.close()
    print("\nServer stopped; writer and readers never blocked each other.")


if __name__ == "__main__":
    main()
