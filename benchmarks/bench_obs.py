"""Benchmark + artifacts of the observability layer (``repro.obs``).

One fully instrumented ground-station run — HRIT segments ingested by the
:class:`SeviriMonitor`, processed by the teleios service, disseminated as
shapefiles — is executed with tracing and metrics enabled.  Its artifacts
are persisted under ``benchmarks/out/``:

* ``BENCH_obs.json`` — the machine-readable per-stage p50/p95 +
  deadline-miss snapshot (schema enforced by a tier-1 smoke test),
* ``obs_spans.jsonl`` — the raw span log of the whole run,
* ``obs_metrics.prom`` — the Prometheus-style metrics dump,
* ``obs.txt`` — budget report, Table 2 regenerated from spans, and a
  span-tree excerpt.

Two pytest-benchmark timings compare the chain with tracing off and on —
the disabled path must stay within noise of the uninstrumented baseline
(<5% acceptance bound measured against ``bench_table2_chain_times``).
"""

from __future__ import annotations

import os
import tempfile
import time
from datetime import timedelta

import pytest

from benchmarks.conftest import CRISIS_START, paper_scale
from repro import obs
from repro.core.sciql_chain import SciQLChain
from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.obs import (
    build_snapshot,
    prometheus_text,
    table2_from_spans,
    tree_report,
    validate_snapshot,
    write_spans_jsonl,
)
from repro.obs.span import Tracer
from repro.seviri.hrit import write_hrit_segments
from repro.seviri.monitor import SeviriMonitor

#: Acquisitions in the instrumented run (the acceptance bar is >= 3).
N_ACQUISITIONS = 12 if paper_scale() else 4

#: Spans opened/closed when measuring raw span throughput.
N_THROUGHPUT_SPANS = 50_000 if paper_scale() else 10_000

#: Interleaved on/off acquisition timings for the overhead ratio.
N_OVERHEAD_REPS = 9 if paper_scale() else 5

_ARTIFACTS = {}


@pytest.fixture(scope="module")
def instrumented_run(greece, season):
    """Run the full pipeline once with observability enabled."""
    obs.disable()
    obs.reset()
    obs.enable()
    try:
        workdir = tempfile.mkdtemp(prefix="bench_obs_")
        incoming = os.path.join(workdir, "incoming")
        archive = os.path.join(workdir, "archive")
        os.makedirs(incoming)
        service = FireMonitoringService(
            greece=greece,
            config=ServiceConfig(mode="teleios", workdir=workdir),
        )
        for k in range(N_ACQUISITIONS):
            when = CRISIS_START + timedelta(hours=12, minutes=15 * k)
            scene = service.scene_generator.generate(when, season)
            for band, grid in (
                ("IR_039", scene.t039), ("IR_108", scene.t108)
            ):
                write_hrit_segments(
                    incoming, scene.sensor_name, band, when, grid
                )
        with SeviriMonitor(incoming, archive) as monitor:
            registered = monitor.scan()
            ready = monitor.dispatch_ready()
        outcomes = service.run(ready, RunOptions(on_error="raise"))
        shapefiles = [
            service.export_product(o.raw_product) for o in outcomes
        ]
        spans = obs.get_tracer().spans()
        metrics = obs.get_metrics()
        run = {
            "spans": spans,
            "snapshot": build_snapshot(metrics, service.budget),
            "prometheus": prometheus_text(metrics),
            "table2": table2_from_spans(spans).format(),
            "tree": tree_report(spans, max_spans=80),
            "budget_report": service.budget.report(),
            "registered": registered,
            "outcomes": outcomes,
            "shapefiles": shapefiles,
        }
        _ARTIFACTS["run"] = run
        return run
    finally:
        obs.disable()
        obs.reset()


def test_span_log_covers_every_pipeline_layer(instrumented_run):
    run = instrumented_run
    assert len(run["outcomes"]) >= 3
    assert run["registered"] > 0
    names = {s.name for s in run["spans"]}
    # Ingestion -> vault -> chain -> annotation -> refinement ->
    # dissemination, plus the store backends underneath.
    assert {
        "monitor.scan",
        "monitor.dispatch",
        "vault.load",
        "acquisition",
        "chain.process",
        "chain.decode",
        "chain.crop",
        "chain.georeference",
        "chain.classify",
        "chain.vectorize",
        "annotation",
        "refinement",
        "refine.store",
        "refine.time_persistence",
        "stsparql.query",
        "arraydb.execute",
        "disseminate.shapefile",
    } <= names
    roots = [s for s in run["spans"] if s.name == "acquisition"]
    assert len(roots) == len(run["outcomes"])
    assert all(s.status == "ok" for s in roots)


def test_snapshot_and_budget_from_the_run(instrumented_run):
    run = instrumented_run
    snapshot = run["snapshot"]
    validate_snapshot(snapshot)
    for stage in ("decode", "crop", "georeference", "classify",
                  "vectorize"):
        entry = snapshot["stages"][f"chain/sciql/{stage}"]
        assert entry["count"] == len(run["outcomes"])
        assert 0.0 <= entry["p50_s"] <= entry["p95_s"] <= entry["max_s"]
    deadline = snapshot["deadline"]
    assert deadline["acquisitions"] == len(run["outcomes"])
    assert 0.0 <= deadline["miss_ratio"] <= 1.0
    assert deadline["total_max_s"] < deadline["window_seconds"]
    assert "Table 2" in run["table2"]
    assert "deadline misses" in run["budget_report"]


def test_chain_with_tracing_disabled(benchmark, georeference,
                                     scene_generator, season):
    """Baseline for the <5% disabled-overhead acceptance bound."""
    obs.disable()
    scene = scene_generator.generate(
        CRISIS_START + timedelta(hours=13), season
    )
    chain = SciQLChain(georeference)
    product = benchmark(chain.process, scene)
    assert product.timestamp == scene.timestamp


def test_chain_with_tracing_enabled(benchmark, georeference,
                                    scene_generator, season):
    obs.reset()
    obs.enable()
    scene = scene_generator.generate(
        CRISIS_START + timedelta(hours=13), season
    )
    chain = SciQLChain(georeference)
    try:
        product = benchmark(chain.process, scene)
    finally:
        obs.disable()
        obs.reset()
    assert product.timestamp == scene.timestamp


def test_tracing_span_throughput():
    """Raw span cost on a private tracer: open + close, stacked."""
    tracer = Tracer(max_spans=N_THROUGHPUT_SPANS + 16)
    start = time.perf_counter()
    for _ in range(N_THROUGHPUT_SPANS):
        with tracer.span("bench.throughput"):
            pass
    elapsed = time.perf_counter() - start
    per_s = N_THROUGHPUT_SPANS / elapsed
    # Sanity floor only; the real gate is the committed artifact +
    # check_regression.py.
    assert per_s > 1_000
    _ARTIFACTS["span_throughput_per_s"] = per_s


def test_tracing_overhead_per_acquisition(georeference, scene_generator,
                                          season):
    """p50 chain latency, tracing on vs off, interleaved rounds.

    Interleaving shares machine drift between the two populations, so
    the ratio isolates the instrumentation cost.  The acceptance gate
    (overhead_p50_ratio < 5%) is enforced by ``check_regression.py``
    against the persisted artifact.
    """
    obs.disable()
    obs.reset()
    scene = scene_generator.generate(
        CRISIS_START + timedelta(hours=14), season
    )
    chain = SciQLChain(georeference)
    chain.process(scene)  # warm plan caches before either timing
    off_samples, on_samples = [], []
    try:
        for _ in range(N_OVERHEAD_REPS):
            obs.disable()
            t0 = time.perf_counter()
            chain.process(scene)
            off_samples.append(time.perf_counter() - t0)
            obs.reset()
            obs.enable()
            t0 = time.perf_counter()
            chain.process(scene)
            on_samples.append(time.perf_counter() - t0)
    finally:
        obs.disable()
        obs.reset()
    p50_off = sorted(off_samples)[len(off_samples) // 2]
    p50_on = sorted(on_samples)[len(on_samples) // 2]
    ratio = max(0.0, (p50_on - p50_off) / p50_off)
    _ARTIFACTS["tracing_overhead"] = {
        "p50_off_s": p50_off,
        "p50_on_s": p50_on,
        "overhead_p50_ratio": ratio,
    }
    # Loose in-test sanity bound; the strict 5% bar lives in the
    # regression gate where a one-off noisy run is visible in review.
    assert ratio < 0.5


def teardown_module(module):
    from benchmarks.reporting import report, write_bench_json

    run = _ARTIFACTS.get("run")
    if run is None:
        return
    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    snapshot = run["snapshot"]
    tracing = dict(_ARTIFACTS.get("tracing_overhead", {}))
    if "span_throughput_per_s" in _ARTIFACTS:
        tracing["span_throughput_per_s"] = _ARTIFACTS[
            "span_throughput_per_s"
        ]
    if tracing:
        snapshot["tracing"] = tracing
    write_bench_json("obs", snapshot)
    write_spans_jsonl(
        run["spans"], os.path.join(out_dir, "obs_spans.jsonl")
    )
    with open(os.path.join(out_dir, "obs_metrics.prom"), "w") as f:
        f.write(run["prometheus"])
    report(
        "obs",
        "\n\n".join(
            [
                run["budget_report"],
                run["table2"],
                "Span tree (first acquisitions):\n" + run["tree"],
            ]
        ),
    )
