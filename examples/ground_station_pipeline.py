"""Ground-station pipeline: from downlinked segments to fire products.

Recreates the pre-TELEIOS data flow of the paper's Figure 1, end to end:

1. the (simulated) ground station drops HRIT segment files — out of
   order — into an incoming spool,
2. the **SEVIRI Monitor** catalogues their metadata in SQLite, filters
   irrelevant bands, archives complete images to the "disk array",
3. each complete two-band acquisition triggers the processing chain,
4. products are filed in the product archive for dissemination,
5. bad downlink data is handled the way an operational station must:
   an unparseable segment is **quarantined** in the dead-letter box with
   a reason record, and an acquisition whose second band never arrives
   is eventually dispatched **single-band** and processed in degraded
   mode by the service runtime.

Run:  python examples/ground_station_pipeline.py
"""

import os
import random
import shutil
import tempfile
from datetime import datetime, timedelta, timezone

from repro import obs
from repro.core.archive import ProductArchive
from repro.core.legacy import LegacyChain
from repro.datasets import SyntheticGreece
from repro.seviri.fires import FireSeason
from repro.seviri.geo import GeoReference, RawGrid, TargetGrid
from repro.seviri.hrit import write_hrit_segments
from repro.seviri.monitor import SeviriMonitor
from repro.seviri.scene import SceneGenerator


def main() -> None:
    obs.enable()
    greece = SyntheticGreece(seed=42, detail=2)
    start = datetime(2007, 8, 24, 14, 0, tzinfo=timezone.utc)
    season = FireSeason(greece, start.replace(hour=0), days=1, seed=7)
    generator = SceneGenerator(greece)

    root = tempfile.mkdtemp(prefix="ground_station_")
    downlink = os.path.join(root, "downlink")
    incoming = os.path.join(root, "incoming")
    disk_array = os.path.join(root, "disk_array")
    os.makedirs(downlink)
    os.makedirs(incoming)

    print("1. Simulating the downlink: 3 acquisitions x 2 IR bands x 4 "
          "segments, plus bands the fire scenario does not use...")
    all_segments = []
    for k in range(3):
        when = start + timedelta(minutes=15 * k)
        scene = generator.generate(when, season)
        for band, grid in (("IR_039", scene.t039), ("IR_108", scene.t108)):
            all_segments += write_hrit_segments(
                downlink, "MSG2", band, when, grid
            )
        # The station also downlinks visible-band segments; the monitor
        # must filter them out.
        all_segments += write_hrit_segments(
            downlink, "MSG2", "VIS006", when, scene.t108 * 0 + 1.0, 2
        )
    # One downlinked file is garbage (a truncated transmission) ...
    bad = os.path.join(downlink, "H-000-MSG2-IR_108-damaged.hsim")
    with open(bad, "wb") as f:
        f.write(b"\x00\xff" * 16)
    all_segments.append(bad)
    # ... and one acquisition loses its whole 3.9 um band: only IR_108
    # ever arrives for 16:00.
    stale_when = start + timedelta(hours=2)
    stale_scene = generator.generate(stale_when, season)
    all_segments += write_hrit_segments(
        downlink, "MSG2", "IR_108", stale_when, stale_scene.t108
    )
    print(f"   {len(all_segments)} segment files written "
          f"(one corrupt, one half acquisition)")

    print("\n2. Segments arrive at the monitor OUT OF ORDER...")
    random.Random(13).shuffle(all_segments)
    chain = LegacyChain(GeoReference(RawGrid(), TargetGrid()))
    archive = ProductArchive(os.path.join(root, "products"))
    processed = 0
    with SeviriMonitor(incoming, disk_array) as monitor:
        for i, segment in enumerate(all_segments):
            shutil.move(segment, incoming)
            monitor.scan()
            for acquisition in monitor.dispatch_ready():
                product = chain.process(acquisition.chain_input)
                entry = archive.store(product)
                processed += 1
                print(f"   after {i + 1:2d} files: acquisition "
                      f"{acquisition.timestamp:%H:%M} complete -> "
                      f"{entry.hotspot_count} hotspots archived")
        print(f"\n3. Monitor summary: catalogued "
              f"{monitor.catalog_size()} fire-band segments, filtered "
              f"{monitor.filtered_count} non-applicable files, "
              f"rejected {monitor.rejected_count}, "
              f"{len(monitor.pending_images())} incomplete images left")

        print("\n4. Graceful degradation:")
        for record in monitor.dead_letters.records():
            print(f"   dead-lettered {os.path.basename(record.quarantined_path)}"
                  f" ({record.reason}): {record.error}")
        # The 16:00 acquisition will never complete — after its grace
        # period the monitor gives up and ships what it has.
        stale = monitor.dispatch_stale(stale_when + timedelta(hours=1))
        assert len(stale) == 1
        acq = stale[0]
        print(f"   stale acquisition {acq.timestamp:%H:%M} dispatched "
              f"without {'/'.join(acq.missing_bands)}")
        from repro.core import (
            FireMonitoringService,
            RunOptions,
            ServiceConfig,
        )

        with FireMonitoringService(
            greece=greece,
            config=ServiceConfig(mode="pre-teleios"),
        ) as service:
            [outcome] = service.run([acq], RunOptions(season=season))
        print(f"   service outcome: status={outcome.status}")
        for error in outcome.errors:
            print(f"     {error}")
    print(f"   disk array now holds "
          f"{len(os.listdir(disk_array))} archived segment files")

    print(f"\n5. Product archive index ({len(archive)} products):")
    for entry in archive.entries():
        print(f"   {entry.timestamp:%H:%M} {entry.sensor:>5} "
              f"{entry.hotspot_count:3d} hotspots  {entry.base_name}")
    latest = archive.latest()
    reloaded = archive.load(latest)
    print(f"\n   latest product reloaded from its shapefile: "
          f"{len(reloaded)} hotspots at {reloaded.timestamp:%H:%M}")
    assert processed == 3

    metrics = obs.get_metrics()
    scans = metrics.get("monitor_scan_seconds")
    print("\n6. Observability (repro.obs) over the whole run:")
    print(f"   segments catalogued : "
          f"{metrics.get('monitor_segments_received_total').total():.0f}")
    print(f"   segments dropped    : "
          f"{metrics.get('monitor_segments_dropped_total').total():.0f}")
    print(f"   directory scans     : {scans.count()} "
          f"(p95 {scans.percentile(95) * 1000:.2f} ms)")
    print("\n" + obs.table2_from_spans(obs.get_tracer().spans()).format())


if __name__ == "__main__":
    main()
