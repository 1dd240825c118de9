"""The multi-source acquisition federation, end to end.

The paper's service watches Greece through one geostationary
instrument.  This walkthrough turns on ``repro.sources`` and federates
two more feeds — a polar-orbiter fire-detection driver and a
weather-station driver — alongside the SEVIRI stream, then plays a
crisis afternoon through the fused read path:

* cross-source **confirmation**: a hotspot corroborated by >= 2
  sources is marked ``noa:confirmed`` and its confidence becomes the
  noisy-OR fusion of the per-source votes, while single-source
  hotspots decay;
* the **static heat-source rule**: sites that glow in every single
  acquisition are flagged and droppable with
  ``/v1/hotspots?static=false``;
* **provenance**: every served feature carries its ``sources`` list,
  and ``/v1/health`` reports per-driver breaker state and outage totals;
* a mid-season **polar outage** (injected with ``repro.faults`` at the
  ``source.polar`` site) served through as a *degradation* — the
  acquisition completes from the surviving feeds and the gap is named
  in the outcome, the health document, and the snapshot provenance.

Run:  python examples/multi_source_federation.py
"""

import json
from datetime import datetime, timedelta, timezone

from repro import obs
from repro.core import (
    FireMonitoringService,
    RunOptions,
    ServiceConfig,
)
from repro.datasets import SyntheticGreece
from repro.faults import FaultPlan, inject
from repro.serve import ServeClient, serve_in_thread
from repro.seviri.fires import FireSeason

SEASON_SEED = 7


def main() -> None:
    obs.enable()
    greece = SyntheticGreece(seed=42, detail=2)
    crisis_start = datetime(2007, 8, 24, tzinfo=timezone.utc)
    season = FireSeason(
        greece, crisis_start, days=1, seed=SEASON_SEED
    )

    print("Starting the federated service (SEVIRI + polar + weather)...")
    service = FireMonitoringService(
        greece=greece,
        config=ServiceConfig(
            sources={
                "seed": SEASON_SEED,
                "polar_revisit_minutes": 15,
            }
        ),
    )
    whens = [
        crisis_start.replace(hour=13) + timedelta(minutes=15 * k)
        for k in range(3)
    ]
    outcomes = service.run(whens, RunOptions(season=season))
    assert [o.status for o in outcomes] == ["ok"] * len(whens)

    with serve_in_thread(service) as handle:
        client = ServeClient.for_handle(handle)
        print(f"Serving at {handle.url}\n")

        everything = client.hotspots()
        features = everything["features"]
        by_sources = {}
        for feature in features:
            key = ",".join(feature["properties"]["sources"]) or "-"
            by_sources[key] = by_sources.get(key, 0) + 1
        print(
            f"GET /v1/hotspots -> {len(features)} features; "
            "corroborating sources:"
        )
        for key, count in sorted(by_sources.items()):
            print(f"  [{key}]: {count}")

        confirmed = client.hotspots(confirmed=True, static=False)[
            "features"
        ]
        print(
            f"\nconfirmed=true&static=false -> {len(confirmed)} "
            "cross-confirmed live fires, e.g."
        )
        sample = max(
            confirmed,
            key=lambda f: f["properties"]["confidence"],
        )
        print(json.dumps(sample["properties"], indent=2, sort_keys=True))
        assert confirmed, "crisis day produced no confirmed hotspots"
        assert all(
            f["properties"]["confirmation"] for f in confirmed
        )
        assert not any(f["properties"]["static"] for f in confirmed)

        statics = client.hotspots(static=True)["features"]
        print(
            f"\nstatic=true -> {len(statics)} persistent heat "
            "sources (refineries and friends), excluded from alerts"
        )

        # ---- lose the polar feed mid-season -------------------------
        print("\nInjecting a polar-orbiter outage and re-acquiring...")
        plan = FaultPlan(seed=2).raise_in("source.polar", index=0)
        later = [crisis_start.replace(hour=13, minute=45)]
        with inject(plan):
            degraded = service.run(
                later, RunOptions(season=season)
            )
        assert [o.status for o in degraded] == ["degraded"]
        print(f"outcome: {degraded[0].status} — {degraded[0].errors}")

        snap = client.hotspots()["snapshot"]
        gap = [
            r for r in snap["sources"] if r["status"] != "ok"
        ]
        print(f"snapshot provenance names the gap: {gap}")
        assert any(r["source"] == "polar" for r in gap)

        health = client.health()
        print("\nGET /v1/health -> sources:")
        print(json.dumps(health["sources"], indent=2, sort_keys=True))
        assert health["sources"]["polar"]["outages_total"] >= 1
        assert (
            health["acquisitions"].get("degraded", 0) >= 1
        ), health["acquisitions"]

    service.close()
    print("\nDone: the fire never went unwatched.")


if __name__ == "__main__":
    main()
