"""Quickstart: one satellite acquisition, end to end.

Simulates a single MSG/SEVIRI acquisition over a burning synthetic
Greece, runs the in-DBMS SciQL detection chain, refines the product with
linked geospatial data via stSPARQL, and prints what the emergency
manager would see.

Run:  python examples/quickstart.py
"""

from datetime import datetime, timezone

from repro.core import FireMonitoringService, RunOptions
from repro.datasets import SyntheticGreece
from repro.seviri.fires import FireSeason


def main() -> None:
    print("Building the synthetic Greece (coastline, land cover, "
          "municipalities, roads, gazetteer)...")
    greece = SyntheticGreece(seed=42, detail=2)

    crisis_start = datetime(2007, 8, 24, tzinfo=timezone.utc)
    season = FireSeason(greece, crisis_start, days=1, seed=7)
    forest = season.forest_fires()
    print(f"Ground truth: {len(season.events)} events today "
          f"({len(forest)} forest fires).")

    print("Starting the TELEIOS fire monitoring service "
          "(MonetDB/SciQL chain + Strabon refinement)...")
    service = FireMonitoringService(greece=greece)

    when = crisis_start.replace(hour=14)
    print(f"\nProcessing the {when:%H:%M} UTC acquisition...")
    [outcome] = service.run([when], RunOptions(season=season))
    print(f"  status       : {outcome.status}")

    product = outcome.raw_product
    print(f"  chain output : {len(product)} hotspots "
          f"({len(product.fire_pixels())} fire, "
          f"{len(product.potential_pixels())} potential) "
          f"in {outcome.chain_seconds:.3f}s")
    print(f"  refinement   : {outcome.refined_count} hotspots survive, "
          f"{outcome.refinement_seconds:.3f}s across 6 operations")
    for timing in outcome.refinement_timings:
        print(f"    {timing.operation:<18} {timing.seconds * 1000:7.1f} ms  "
              f"{timing.detail}")
    budget = "within" if outcome.within_budget else "OVER"
    print(f"  -> {budget} the 5-minute real-time budget")

    shp = service.export_product(product)
    print(f"\nProduct disseminated as an ESRI shapefile: {shp}")

    print("\nSurviving hotspots (lon/lat of pixel centres):")
    rows = service.refinement.surviving_hotspots(product.timestamp)
    for row in rows:
        geom = row["hGeo"].value
        c = geom.centroid
        conf = row["conf"].lexical
        confirmed = row.get("confirmation")
        state = confirmed.local_name() if confirmed is not None else "n/a"
        print(f"  ({c.x:7.3f}, {c.y:7.3f})  confidence={conf}  {state}")

    service.close()


if __name__ == "__main__":
    main()
