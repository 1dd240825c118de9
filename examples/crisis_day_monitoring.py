"""Crisis-day monitoring: the operational loop of the NOA service.

Replays two hours of a simulated crisis afternoon at the MSG2 cadence
(one acquisition every 15 minutes), exactly the loop the service runs in
production: scene → vault → SciQL chain → stRDF annotation → stSPARQL
refinement → dissemination.  Prints a situation report per acquisition
and a final summary comparing the TELEIOS service with the pre-TELEIOS
chain (:class:`~repro.core.legacy.LegacyChain`) over the same scenes.

The whole run executes under the observability layer (``repro.obs``):
the final sections print the acquisition-budget report against the
5-minute window and the per-stage breakdown regenerated from the
recorded spans.

With ``--with-faults`` the same afternoon is replayed through the
fault-injection harness (``repro.faults``): one acquisition loses HRIT
segments to corruption, one loses its 3.9 µm band entirely, one hits a
flaky chain that needs retries.  The service's crisis-day contract is
that **no exception escapes** — every acquisition yields an outcome
whose ``status``/``errors`` say what was sacrificed.

Run:  python examples/crisis_day_monitoring.py [--with-faults]
"""

import json
import sys
from datetime import datetime, timedelta, timezone

from repro import obs
from repro.core import FireMonitoringService, RunOptions, ServiceConfig
from repro.core.legacy import LegacyChain
from repro.core.render import render_situation_map
from repro.datasets import SyntheticGreece
from repro.faults import FaultPlan, inject
from repro.seviri.fires import FireSeason


def crisis_plan() -> FaultPlan:
    """One bad afternoon: segment corruption at 14:30, a lost band at
    15:00, a chain that fails twice before succeeding at 15:30."""
    return (
        FaultPlan(seed=7)
        .corrupt_segment(index=2)
        .drop_band(index=4, band="IR_039")
        .raise_in("stage.chain", index=6, times=2)
    )


def main(with_faults: bool = False) -> None:
    obs.enable()
    greece = SyntheticGreece(seed=42, detail=2)
    crisis_start = datetime(2007, 8, 24, tzinfo=timezone.utc)
    season = FireSeason(greece, crisis_start, days=1, seed=7)

    teleios = FireMonitoringService(
        greece=greece,
        config=ServiceConfig(
            archive_products=True,
            # Faults mangle HRIT segment bytes, so the faulted replay
            # must feed the chain through real files.
            use_files=with_faults,
        ),
    )
    whens = [
        crisis_start.replace(hour=14) + timedelta(minutes=15 * step)
        for step in range(8)
    ]

    plan = crisis_plan() if with_faults else None
    if plan is not None:
        print(f"Injecting faults: {plan.describe()}\n")
    with inject(plan):
        outcomes = teleios.run(whens, RunOptions(season=season))
    # The pre-TELEIOS baseline: the legacy C-style chain alone, no
    # refinement, over the same (fault-free) scenes.
    legacy = LegacyChain(teleios.georeference)
    legacy_seconds = [
        legacy.process(
            teleios.scene_generator.generate(when, season)
        ).processing_seconds
        for when in whens
    ]

    print("time   | status   | raw  refined | chain(s) refine(s) | fires")
    print("-" * 64)
    for when, outcome in zip(whens, outcomes):
        active = len(season.active_fires(when))
        raw = (
            len(outcome.raw_product)
            if outcome.raw_product is not None
            else 0
        )
        refined = outcome.refined_count or 0
        print(
            f"{when:%H:%M}  | {outcome.status:<8} | {raw:4d} "
            f"{refined:7d} | "
            f"{outcome.chain_seconds:8.3f} "
            f"{outcome.refinement_seconds:9.3f} | {active:3d}"
        )
        for error in outcome.errors:
            print(f"       |   what was sacrificed: {error}")

    if with_faults:
        degraded = sum(1 for o in outcomes if o.degraded)
        print(
            f"\nCrisis-day contract held: {len(outcomes)} outcomes for "
            f"{len(whens)} requests, {degraded} degraded, no exception "
            f"escaped.  Quarantined input: "
            f"{len(teleios.dead_letters)} file(s) in the dead-letter box."
        )
        for record in teleios.dead_letters.records():
            print(f"  {record.reason} at {record.site}: {record.error}")

    print("\nSummary (averages per acquisition):")
    summary = obs.budget_summary(outcomes)
    print(
        f"  {'TELEIOS':<12} chain {summary['chain_avg_s']:.3f}s"
        f" + refinement {summary['refinement_avg_s']:.3f}s"
    )
    print(
        f"  {'pre-TELEIOS':<12} chain "
        f"{sum(legacy_seconds) / len(legacy_seconds):.3f}s"
        "  (no refinement stage)"
    )

    last = outcomes[-1]
    raw = len(last.raw_product)
    refined = last.refined_count or 0
    print(
        f"\nAt {last.timestamp:%H:%M} the refinement step removed "
        f"{raw - refined} of {raw} raw detections (sea smoke, "
        f"inconsistent land cover) and annotated the rest with "
        f"municipalities and confirmation states."
    )

    print("\n" + teleios.budget_report())
    print("\n" + obs.table2_from_spans(
        obs.get_tracer().spans()
    ).format())

    health = teleios.health()
    print("\nMachine-readable health document (what GET /v1/health serves):")
    print(json.dumps(health, indent=2, sort_keys=True))
    counted = sum(health["acquisitions"].values())
    assert counted == len(whens), (counted, len(whens))
    assert health["status"] in ("ok", "degraded"), health["status"]
    assert health["snapshot"]["sequence"] >= len(whens)

    print(f"\nArchive: {len(teleios.archive)} products filed under "
          f"{teleios.archive.directory}")
    print(f"\nSituation map at {last.timestamp:%H:%M} UTC:")
    print(render_situation_map(greece, last.raw_product.hotspots,
                               width=76, height=26))
    teleios.close()


if __name__ == "__main__":
    main(with_faults="--with-faults" in sys.argv[1:])
