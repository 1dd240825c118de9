"""Continuous-subscription benchmark (``BENCH_subscribe.json``).

Measurements per subscription-count series point (1k / 10k / 100k
geofenced subscriptions):

* **Registration** — bulk :meth:`SubscriptionEngine.register_many`
  wall time (the batch validated column-wise, one R-tree pack of the
  box column, then priming probes the packed tree once per hotspot of
  the published snapshot inside the new fences' envelope), reported as
  subscriptions per second.
* **Incremental vs full re-run** — one acquisition's delta is
  committed through :meth:`process_commit` (the production path: delta
  records probed against the geofence index) and, against the *same*
  pre-commit engine state, through :meth:`evaluate_full` with
  ``commit=False`` (every standing query over the whole snapshot minus
  the seen-set).  Both are the best of ``REPEATS`` runs from that one
  state: every commit but the last is undone
  (:meth:`SubscriptionEngine.evaluation_undone`).  The headline bar — asserted here at the largest
  count — is incremental >= 10x faster than the full re-run.
* **Differential** — the notification key set the incremental path
  produced must equal the full re-run's at every series point;
  ``differential_mismatches`` lands in the artifact and is gated at
  zero by ``check_regression.py``.
* **Log bytes** — the incremental batch's notification-log record
  size per notification (``log_bytes_per_notification``): each matched
  hotspot's payload is stored once however many subscriptions it
  notifies, and the batch is one zlib block of columns.  The largest
  point's value is ``headline.log_bytes_per_notification``, gated in
  ``check_regression.py``.
* **Single-subscription churn** (largest point only) — 200 single
  :meth:`SubscriptionEngine.register` calls, then 200
  :meth:`SubscriptionEngine.remove` calls of the same subscriptions,
  each timed alone (``single_op_ms``).  Each one inserts into or
  deletes from the geofence tree; ``headline.single_op_ms_p99`` is
  gated by an absolute bound in ``check_regression.py``, so an
  operation that re-packs the whole tree shows up as a stall.
* **Reopen** (largest point only) — the same documents registered on a
  durable engine, which is closed and reopened; ``headline.reopen_s``
  is the reopen's wall time: replaying ``registry.log`` (one packed
  column block, inflated and read with ``np.frombuffer``) and packing
  the geofences.  ``headline.registry_bytes_per_subscription`` is that
  log's size per subscription before the reopen, gated in
  ``check_regression.py``.

The store is deliberately modest (hundreds of hotspots) while the
subscription count scales to 100k: the quantity under test is how
evaluation cost scales with *subscriptions*, which is where a naive
re-run-everything design blows up (cost ~ subscriptions x snapshot)
and the delta-driven engine stays ~ delta x log(subscriptions).
"""

from __future__ import annotations

import math
import os
import random
import shutil
import tempfile
import time
from contextlib import nullcontext

import pytest

from repro.serve import SnapshotPublisher, SubscriptionEngine
from repro.serve.subscribe import delta_from_ops
from repro.stsparql import Strabon

#: Subscription counts in the series; the acceptance bar is defined at
#: the largest.
SERIES = (1_000, 10_000, 100_000)
#: Hotspots in the store before the measured acquisition.
N_INITIAL = 480
#: Hotspots the measured acquisition inserts (one delta batch).
N_DELTA = 24
#: Timing repeats (best-of) for the incremental and full re-run
#: measurements.
REPEATS = 3
#: Single registrations (then removals) timed at the largest point.
N_CHURN = 200
#: The synthetic Greece-ish envelope subscriptions geofence within.
ENVELOPE = (20.0, 34.0, 29.0, 42.0)

NOA = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#"
WKT = "http://strdf.di.uoa.gr/ontology#WKT"

_ARTIFACTS = {}


def _insert_hotspots(strabon, start, count, rng):
    statements = []
    for n in range(start, start + count):
        lon = rng.uniform(ENVELOPE[0], ENVELOPE[2])
        lat = rng.uniform(ENVELOPE[1], ENVELOPE[3])
        confidence = round(rng.uniform(0.3, 1.0), 3)
        subject = f"<http://example.org/hotspot/{n}>"
        statements.append(f"{subject} a noa:Hotspot .")
        statements.append(
            f'{subject} strdf:hasGeometry "POINT ({lon:.5f} '
            f'{lat:.5f})"^^<{WKT}> .'
        )
        statements.append(
            f'{subject} noa:hasConfidence "{confidence}" .'
        )
    strabon.update(
        f"PREFIX noa: <{NOA}>\n"
        "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
        "INSERT DATA {\n" + "\n".join(statements) + "\n}"
    )


def _subscription_docs(count, rng):
    """Geofenced filter subscriptions: small random boxes over the
    envelope, a spread of confidence floors."""
    minx, miny, maxx, maxy = ENVELOPE
    docs = []
    for _ in range(count):
        w = rng.uniform(0.05, 0.8)
        h = rng.uniform(0.05, 0.8)
        x = rng.uniform(minx, maxx - w)
        y = rng.uniform(miny, maxy - h)
        doc = {"kind": "filter", "bbox": [x, y, x + w, y + h]}
        if rng.random() < 0.5:
            doc["min_confidence"] = round(rng.uniform(0.3, 0.9), 2)
        docs.append(doc)
    return docs


def _series_point(count: int) -> dict:
    rng = random.Random(20130807 + count)
    strabon = Strabon()
    _insert_hotspots(strabon, 0, N_INITIAL, rng)

    publisher = SnapshotPublisher()
    engine = SubscriptionEngine()
    engine.bind(strabon, publisher)
    strabon.graph.start_journal()
    publisher.publish(strabon)

    docs = _subscription_docs(count, rng)
    t0 = time.perf_counter()
    engine.register_many(docs)
    register_wall = time.perf_counter() - t0

    # One acquisition's delta, recorded by the graph's journal.
    _insert_hotspots(strabon, N_INITIAL, N_DELTA, rng)

    # Full re-run against the same pre-commit state (commit=False
    # leaves seen-sets untouched, so both paths see identical state).
    full_wall = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        full = engine.evaluate_full(strabon, 2, commit=False)
        full_wall = min(full_wall, time.perf_counter() - t0)

    # The production path, timed as the best of REPEATS commits of the
    # drained ops, each on the same pre-commit state (every commit but
    # the last is undone) and with a fresh DeltaBatch (the batch
    # memoises the stars it reads), so the gated number is not one
    # sample.
    ops = strabon.graph.drain_journal()
    incremental_wall = float("inf")
    keys = []
    for repeat in range(REPEATS):
        undo = repeat < REPEATS - 1
        with engine.evaluation_undone() if undo else nullcontext():
            t0 = time.perf_counter()
            batch = engine.process_commit(2, delta_from_ops(ops))
            incremental_wall = min(
                incremental_wall, time.perf_counter() - t0
            )
        keys.append(set(batch.keys()))
    assert all(k == keys[0] for k in keys)

    incremental_keys = keys[-1]
    full_keys = set(full.keys())
    mismatches = len(incremental_keys ^ full_keys)

    largest = count == SERIES[-1]
    churn = _single_op_churn(engine, rng) if largest else None
    engine.close()
    return {
        "subscriptions": count,
        "registration": {
            "wall_s": register_wall,
            "subs_per_s": count / register_wall,
        },
        "incremental_ms": incremental_wall * 1e3,
        "full_rerun_ms": full_wall * 1e3,
        "speedup_incremental_vs_full": full_wall / incremental_wall,
        "notifications": len(incremental_keys),
        "differential_mismatches": mismatches,
        "log_bytes_per_notification": len(batch.to_payload())
        / max(1, len(batch.refs)),
        **({"single_op_ms": churn} if churn else {}),
        **(_durable_reopen(docs) if largest else {}),
    }


def _durable_reopen(docs) -> dict:
    """Register ``docs`` on a durable engine, close it, measure its
    registry log per subscription, and time the reopen."""
    state_dir = tempfile.mkdtemp(prefix="bench-subscribe-")
    try:
        engine = SubscriptionEngine(state_dir=state_dir)
        engine.register_many(docs)
        engine.close()
        log = os.path.join(state_dir, "registry.log")
        size = os.path.getsize(log)
        t0 = time.perf_counter()
        engine = SubscriptionEngine(state_dir=state_dir)
        wall = time.perf_counter() - t0
        assert len(engine.registry) == len(docs)
        engine.close()
        return {
            "reopen_s": wall,
            "registry_bytes_per_subscription": size / len(docs),
        }
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)


def _single_op_churn(engine, rng) -> dict:
    """Time ``N_CHURN`` single registrations, then their removals."""
    times = []
    ids = []
    for doc in _subscription_docs(N_CHURN, rng):
        t0 = time.perf_counter()
        ids.append(engine.register(doc).id)
        times.append(time.perf_counter() - t0)
    for sub_id in ids:
        t0 = time.perf_counter()
        assert engine.remove(sub_id)
        times.append(time.perf_counter() - t0)
    times.sort()
    return {
        "ops": len(times),
        "p50": times[len(times) // 2] * 1e3,
        "p99": times[math.ceil(0.99 * len(times)) - 1] * 1e3,
        "max": times[-1] * 1e3,
    }


@pytest.fixture(scope="module")
def subscribe_run():
    series = {}
    for count in SERIES:
        series[str(count)] = _series_point(count)
    top = series[str(SERIES[-1])]
    run = {
        "schema": "bench-subscribe/1",
        "workload": {
            "initial_hotspots": N_INITIAL,
            "delta_hotspots": N_DELTA,
            "series": list(SERIES),
        },
        "series": series,
        "headline": {
            "subscriptions": SERIES[-1],
            "speedup_incremental_vs_full": top[
                "speedup_incremental_vs_full"
            ],
            "incremental_ms": top["incremental_ms"],
            "full_rerun_ms": top["full_rerun_ms"],
            "registration_subs_per_s": top["registration"][
                "subs_per_s"
            ],
            "single_op_ms_p99": top["single_op_ms"]["p99"],
            "reopen_s": top["reopen_s"],
            "log_bytes_per_notification": top["log_bytes_per_notification"],
            "registry_bytes_per_subscription": top[
                "registry_bytes_per_subscription"
            ],
            "differential_mismatches": sum(
                point["differential_mismatches"]
                for point in series.values()
            ),
        },
    }
    _ARTIFACTS["run"] = run
    return run


def test_incremental_meets_the_10x_bar(subscribe_run):
    headline = subscribe_run["headline"]
    assert headline["speedup_incremental_vs_full"] >= 10.0, (
        f"incremental evaluation at {headline['subscriptions']} "
        f"subscriptions only reached "
        f"{headline['speedup_incremental_vs_full']:.1f}x the full "
        "re-run"
    )


def test_incremental_and_full_agree_everywhere(subscribe_run):
    for count, point in subscribe_run["series"].items():
        assert point["differential_mismatches"] == 0, (
            f"incremental != full re-run at {count} subscriptions"
        )
        assert point["notifications"] > 0, (
            f"no notifications at {count} subscriptions - "
            "the differential is vacuous"
        )


def test_incremental_cost_tracks_matches_not_registry(subscribe_run):
    """Delta evaluation cost must scale with the *matches it
    delivers*, not with the registry: per-notification cost may not
    grow as the registry does (a per-subscription re-scan would grow
    it ~linearly in subscriptions)."""
    series = subscribe_run["series"]
    small = series[str(SERIES[0])]
    large = series[str(SERIES[-1])]
    per_notif_small = small["incremental_ms"] / small["notifications"]
    per_notif_large = large["incremental_ms"] / large["notifications"]
    assert per_notif_large <= per_notif_small * 5.0, (
        f"per-notification cost grew "
        f"{per_notif_large / per_notif_small:.1f}x over a "
        f"{SERIES[-1] // SERIES[0]}x registry growth"
    )


def teardown_module(module):
    from benchmarks.reporting import report, write_bench_json

    run = _ARTIFACTS.get("run")
    if run is None:
        return
    write_bench_json("subscribe", run)
    lines = [
        "Continuous subscriptions: incremental vs full re-run "
        f"({N_INITIAL}+{N_DELTA} hotspots)",
        "",
        f"{'subs':>8}  {'register/s':>11}  {'incr ms':>8}  "
        f"{'full ms':>8}  {'speedup':>8}  {'notifs':>6}  {'diff':>4}",
    ]
    for count in SERIES:
        point = run["series"][str(count)]
        lines.append(
            f"{count:>8}  "
            f"{point['registration']['subs_per_s']:>11.0f}  "
            f"{point['incremental_ms']:>8.2f}  "
            f"{point['full_rerun_ms']:>8.2f}  "
            f"{point['speedup_incremental_vs_full']:>7.1f}x  "
            f"{point['notifications']:>6}  "
            f"{point['differential_mismatches']:>4}"
        )
    headline = run["headline"]
    churn = run["series"][str(SERIES[-1])]["single_op_ms"]
    lines += [
        "",
        f"single register/remove at {SERIES[-1]}: "
        f"p50 {churn['p50']:.2f} ms, p99 {churn['p99']:.2f} ms, "
        f"max {churn['max']:.2f} ms ({churn['ops']} ops)",
        f"durable reopen at {SERIES[-1]}: {headline['reopen_s']:.3f} s",
        f"log bytes at {SERIES[-1]}: "
        f"{headline['log_bytes_per_notification']:.1f} B per notification, "
        f"{headline['registry_bytes_per_subscription']:.1f} B per "
        "registered subscription",
        "",
        f"headline: {headline['speedup_incremental_vs_full']:.1f}x "
        f"at {headline['subscriptions']} subscriptions "
        f"(bar: >= 10x), "
        f"{headline['differential_mismatches']} differential "
        "mismatches",
    ]
    report("subscribe", "\n".join(lines))
