"""Serving-layer benchmark (``BENCH_serve.json``).

Three measurements over one ingested crisis-day store:

* **HTTP load** — a closed-loop :class:`~repro.serve.LoadGenerator`
  drives the asyncio :class:`~repro.serve.HotspotServer` with a mixed
  GET /hotspots + POST /stsparql workload; throughput and p50/p99
  latency land in the artifact, and every response must be a 200.
* **Snapshot consistency under concurrent ingest** — while the service
  ingests further acquisitions on a writer thread, the benchmark polls
  ``/hotspots`` continuously and asserts it never observes a torn
  state: every served hotspot carries a ``noa:hasConfirmation`` mark
  (the *last* refinement operation stamps one on every survivor, so a
  mid-refinement store would leak unmarked hotspots) and the served
  snapshot sequence/generation never move backwards.
* **Shard scaling** — the store is partitioned by spatial tile
  (:class:`~repro.serve.ShardManager`) at 1, 2 and 4 shards; each tile
  shard's ``/v1/hotspots`` throughput over its own partition is
  measured directly, and the aggregate is the scaling-law sum (shards
  share nothing — each serves its partition independently, so the
  aggregate of k shards is the sum of their individual rates; the
  in-process measured router rate is recorded alongside).  A
  differential check asserts the routed, merged answers at every shard
  count equal the single-store answer feature for feature.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from datetime import timedelta

import pytest

from benchmarks.conftest import CRISIS_START, paper_scale
from repro.core.config import RunOptions
from repro.core.service import FireMonitoringService
from repro.serve import (
    LoadGenerator,
    ShardManager,
    SnapshotPublisher,
    TileLayout,
    fetch_json,
    serve_in_thread,
    serve_router_in_thread,
)

#: Acquisitions ingested before the read benchmarks, and again during
#: the consistency check.
N_INGEST = 6 if paper_scale() else 3
#: HTTP load shape.
LOAD_CLIENTS = 4
LOAD_REQUESTS = 200 if paper_scale() else 80
#: Shard counts in the scaling series (the bar is defined at 4).
SHARD_SERIES = (1, 2, 4)
#: Requests per tile shard in the shard-scaling measurement.
SHARD_REQUESTS = 48 if paper_scale() else 16

_ARTIFACTS = {}

_STSPARQL_COUNT = (
    "PREFIX noa: "
    "<http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>\n"
    "SELECT ?h ?conf WHERE { ?h a noa:Hotspot ; "
    "noa:hasConfidence ?conf }"
)


def _whens(offset_minutes: int, count: int):
    return [
        CRISIS_START
        + timedelta(hours=12, minutes=offset_minutes + 15 * k)
        for k in range(count)
    ]


class _TierSource:
    """A frozen publication source for benchmark shard tiers, isolated
    from the live service so later ingest does not repartition them."""

    def __init__(self, start_sequence: int) -> None:
        self.publisher = SnapshotPublisher(start_sequence=start_sequence)


def _shard_scaling(service) -> dict:
    """Aggregate bbox-pruned read throughput at 1/2/4 shards.

    The workload is fixed across shard counts: the four quarter-tile
    bboxes of the 2x2 layout (shrunk inward so each maps to exactly one
    shard at every k — the 4-tiling refines the 2- and 1-tilings).
    Each shard's rate is measured directly against its partition; the
    aggregate is the scaling-law sum (shards share nothing), with the
    in-process router's measured rate recorded alongside.
    """
    eps = 1e-6
    query_envs = [
        tile.envelope for tile in TileLayout.for_shards(4).tiles
    ]
    bbox_paths = [
        "/v1/hotspots?bbox="
        f"{env.minx + eps},{env.miny + eps},"
        f"{env.maxx - eps},{env.maxy - eps}"
        for env in query_envs
    ]
    series = {}
    reference = None
    for k in SHARD_SERIES:
        source = _TierSource(service.publisher.sequence)
        manager = ShardManager(source, shards=k)
        source.publisher.publish(service.strabon)
        manager.start_http()
        handle = serve_router_in_thread(manager)
        try:
            host, port = handle.address
            merged = fetch_json(host, port, "/v1/hotspots")
            features = [
                f["properties"]["hotspot"]
                for f in merged["features"]
            ]
            # Differential bar: the routed, merged answer equals the
            # single-store answer at every shard count.
            if reference is None:
                reference = features
            assert features == reference, (
                f"sharded /hotspots diverged at {k} shards"
            )
            per_shard_paths: dict = {}
            for env, path in zip(query_envs, bbox_paths):
                shrunk = type(env)(
                    env.minx + eps,
                    env.miny + eps,
                    env.maxx - eps,
                    env.maxy - eps,
                )
                (sid,) = manager.shard_ids_for_bbox(shrunk)
                per_shard_paths.setdefault(sid, []).append(path)
            rates = {}
            for sid, paths in sorted(per_shard_paths.items()):
                shost, sport = manager.shards[sid].address
                t0 = time.perf_counter()
                for i in range(SHARD_REQUESTS):
                    fetch_json(shost, sport, paths[i % len(paths)])
                rates[sid] = SHARD_REQUESTS / (
                    time.perf_counter() - t0
                )
            t0 = time.perf_counter()
            for i in range(SHARD_REQUESTS):
                fetch_json(
                    host, port, bbox_paths[i % len(bbox_paths)]
                )
            router_qps = SHARD_REQUESTS / (time.perf_counter() - t0)
            series[str(k)] = {
                "shards": k,
                "aggregate_qps_scaling_law": sum(rates.values()),
                "router_qps_measured": router_qps,
                "per_shard_qps": {
                    str(sid): rate for sid, rate in rates.items()
                },
                "per_shard_triples": {
                    str(sid): len(
                        manager.shards[sid].publisher.latest()
                    )
                    for sid in manager.shard_ids
                },
            }
        finally:
            handle.stop()
            manager.stop_http()
    one = series["1"]["aggregate_qps_scaling_law"]
    four = series["4"]["aggregate_qps_scaling_law"]
    return {
        "basis": "scaling-law",
        "requests_per_shard": SHARD_REQUESTS,
        "series": series,
        "speedup_4_vs_1": four / one,
        "differential_features": len(reference),
        "differential_ok": True,
    }


@pytest.fixture(scope="module")
def serve_run(greece, season):
    service = FireMonitoringService(
        greece=greece,
        mode="teleios",
        workdir=tempfile.mkdtemp(prefix="bench_serve_"),
    )
    try:
        opts = RunOptions(season=season, on_error="raise")
        service.run(_whens(0, N_INGEST), opts)
        snapshot = service.strabon.graph.snapshot()

        # -- HTTP load -------------------------------------------------
        with serve_in_thread(service, read_workers=4) as handle:
            host, port = handle.address
            generator = LoadGenerator(
                host,
                port,
                [
                    ("GET", "/hotspots"),
                    ("GET", "/hotspots?min_confidence=0.5"),
                    ("POST", "/stsparql", _STSPARQL_COUNT),
                    ("GET", "/health"),
                ],
                clients=LOAD_CLIENTS,
            )
            report = generator.run(total_requests=LOAD_REQUESTS)
            load = report.summary()
            load["status_counts"] = {
                str(k): v for k, v in report.status_counts.items()
            }

            # -- consistency under concurrent ingest -------------------
            ingest_error = []

            def ingest():
                try:
                    service.run(_whens(15 * N_INGEST, N_INGEST), opts)
                except Exception as error:  # pragma: no cover
                    ingest_error.append(repr(error))

            writer = threading.Thread(target=ingest, daemon=True)
            polls = []
            torn = 0
            writer.start()
            while writer.is_alive():
                collection = fetch_json(host, port, "/hotspots")
                for feature in collection["features"]:
                    if feature["properties"]["confirmation"] is None:
                        torn += 1
                polls.append(
                    (
                        collection["snapshot"]["sequence"],
                        collection["snapshot"]["generation"],
                        len(collection["features"]),
                    )
                )
                time.sleep(0.02)
            writer.join()
            final = fetch_json(host, port, "/hotspots")
            polls.append(
                (
                    final["snapshot"]["sequence"],
                    final["snapshot"]["generation"],
                    len(final["features"]),
                )
            )
        sequences = [p[0] for p in polls]
        generations = [p[1] for p in polls]
        consistency = {
            "polls": len(polls),
            "torn_reads": torn,
            "ingest_errors": ingest_error,
            "sequence_monotonic": sequences == sorted(sequences),
            "generation_monotonic": generations == sorted(generations),
            "first_sequence": sequences[0],
            "last_sequence": sequences[-1],
            "final_hotspots": polls[-1][2],
        }

        # -- shard scaling ---------------------------------------------
        shard_scaling = _shard_scaling(service)

        run = {
            "schema": "bench-serve/2",
            "cpu_count": os.cpu_count() or 1,
            "workload": {
                "scale": "paper" if paper_scale() else "small",
                "ingested_acquisitions": 2 * N_INGEST,
                "snapshot_triples": len(snapshot),
                "load_clients": LOAD_CLIENTS,
                "load_requests": LOAD_REQUESTS,
            },
            "http_load": load,
            "consistency": consistency,
            "shard_scaling": shard_scaling,
        }
        _ARTIFACTS["run"] = run
        return run
    finally:
        service.close()


def test_http_load_is_clean(serve_run):
    load = serve_run["http_load"]
    assert load["errors"] == 0, serve_run["http_load"]["status_counts"]
    assert load["requests"] >= LOAD_REQUESTS * 0.9
    assert load["throughput_rps"] > 0
    assert load["p50_ms"] <= load["p99_ms"]


def test_shard_scaling_meets_bar(serve_run):
    scaling = serve_run["shard_scaling"]
    assert scaling["differential_ok"]
    assert scaling["speedup_4_vs_1"] >= 2.0, (
        f"4 shards only reached {scaling['speedup_4_vs_1']:.2f}x "
        f"one shard ({scaling['basis']})"
    )


def test_no_torn_reads_under_concurrent_ingest(serve_run):
    consistency = serve_run["consistency"]
    assert not consistency["ingest_errors"]
    assert consistency["torn_reads"] == 0
    assert consistency["sequence_monotonic"]
    assert consistency["generation_monotonic"]
    assert consistency["last_sequence"] > consistency["first_sequence"]
    assert consistency["final_hotspots"] >= 0


def teardown_module(module):
    from benchmarks.reporting import report, write_bench_json

    run = _ARTIFACTS.get("run")
    if run is None:
        return
    write_bench_json("serve", run)
    load = run["http_load"]
    consistency = run["consistency"]
    lines = [
        "Snapshot serving layer "
        f"({run['workload']['ingested_acquisitions']} ingested "
        f"acquisitions, {run['cpu_count']} CPU core(s))",
        "",
        f"http load: {load['throughput_rps']:.1f} req/s over "
        f"{int(load['clients'])} clients, p50 {load['p50_ms']:.2f} ms, "
        f"p99 {load['p99_ms']:.2f} ms, {int(load['errors'])} errors",
        f"consistency: {consistency['polls']} polls during ingest, "
        f"{consistency['torn_reads']} torn reads, sequences "
        f"{consistency['first_sequence']} -> "
        f"{consistency['last_sequence']}",
        "",
        "shard scaling (bbox-pruned aggregate, scaling-law basis):",
    ]
    shard_scaling = run["shard_scaling"]
    for k in SHARD_SERIES:
        row = shard_scaling["series"][str(k)]
        lines.append(
            f"  {k} shard(s): "
            f"{row['aggregate_qps_scaling_law']:8.1f} queries/s "
            f"(router measured {row['router_qps_measured']:.1f})"
        )
    lines.append(
        f"  speedup 4 vs 1: {shard_scaling['speedup_4_vs_1']:.2f}x"
    )
    report("serve", "\n".join(lines))
