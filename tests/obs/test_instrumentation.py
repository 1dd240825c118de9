"""End-to-end instrumentation: the pipeline under the global tracer.

Covers the acceptance criteria of the observability PR: service outcomes
still populate their public timing fields with tracing on *and* off, the
recorded span tree covers every pipeline layer, ingestion through the
SEVIRI monitor is counted, and a zero-hotspot acquisition still renders
a budget report.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone

import pytest

from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.obs import budget_summary, table2_from_spans, tree_report
from repro.seviri.hrit import write_hrit_segments
from repro.seviri.monitor import SeviriMonitor

WHEN = datetime(2007, 8, 24, 13, 0, tzinfo=timezone.utc)


@pytest.fixture()
def teleios(greece, tmp_path):
    return FireMonitoringService(
        greece=greece,
        config=ServiceConfig(workdir=str(tmp_path)),
    )


def test_outcome_fields_populated_with_tracing_disabled(
    teleios, season, noon_scene
):
    outcome = teleios.run([noon_scene], RunOptions(on_error="raise"))[0]
    assert outcome.chain_seconds > 0.0
    assert len(outcome.refinement_timings) == 6
    assert all(t.seconds >= 0.0 for t in outcome.refinement_timings)
    assert outcome.refined_count is not None
    assert len(teleios.outcomes) == 1
    # Nothing was recorded: observability defaults to off.
    from repro import obs

    assert obs.get_tracer().spans() == []
    assert obs.get_metrics().collect() == []


def test_span_tree_covers_every_pipeline_layer(
    observability, teleios, noon_scene
):
    outcome = teleios.run([noon_scene], RunOptions(on_error="raise"))[0]
    teleios.export_product(outcome.raw_product)
    spans = observability.get_tracer().spans()
    names = {s.name for s in spans}
    # Chain, annotation, refinement, store backends, dissemination.
    assert {
        "acquisition",
        "chain.process",
        "chain.decode",
        "chain.crop",
        "chain.georeference",
        "chain.classify",
        "chain.vectorize",
        "refinement",
        "refine.store",
        "annotation",
        "stsparql.query",
        "stsparql.parse",
        "stsparql.eval",
        "arraydb.execute",
        "disseminate.shapefile",
    } <= names
    by_id = {s.span_id: s for s in spans}
    # Parentage: chain stages under chain.process, which sits under the
    # acquisition root; refinement operations under "refinement".
    root = next(s for s in spans if s.name == "acquisition")
    assert root.parent_id is None
    chain_root = next(s for s in spans if s.name == "chain.process")
    assert by_id[chain_root.parent_id].name == "acquisition"
    for stage in ("decode", "crop", "georeference", "classify",
                  "vectorize"):
        span = next(s for s in spans if s.name == f"chain.{stage}")
        assert span.parent_id == chain_root.span_id
    # Stage two (refinement + surviving query + archive) is delimited
    # by "stage.refine", which sits under the acquisition root.
    refinement = next(s for s in spans if s.name == "refinement")
    stage2 = by_id[refinement.parent_id]
    assert stage2.name == "stage.refine"
    assert by_id[stage2.parent_id].name == "acquisition"
    store = next(s for s in spans if s.name == "refine.store")
    assert store.parent_id == refinement.span_id
    # Outcome timing is the sum of the stage spans, so it fits inside
    # the chain root span (which adds only inter-stage overhead).
    assert 0.0 < outcome.chain_seconds <= chain_root.duration
    assert chain_root.duration - outcome.chain_seconds < 0.05
    assert root.attributes["raw_hotspots"] == len(outcome.raw_product)
    # The tree report renders the whole acquisition without error.
    report = tree_report(spans)
    assert "acquisition" in report and "disseminate.shapefile" in report


def test_metrics_and_table2_from_an_instrumented_run(
    observability, teleios, noon_scene
):
    teleios.run([noon_scene], RunOptions(on_error="raise"))[0]
    metrics = observability.get_metrics()
    stage_hist = metrics.get("chain_stage_seconds")
    assert stage_hist is not None
    for stage in ("decode", "crop", "georeference", "classify",
                  "vectorize"):
        assert stage_hist.count(chain="sciql", stage=stage) == 1
    acq_hist = metrics.get("acquisition_stage_seconds")
    assert acq_hist.count(stage="total") == 1
    assert metrics.get("stsparql_query_seconds").count(
        operation="update"
    ) > 0
    assert metrics.get("arraydb_statement_seconds") is not None
    breakdown = table2_from_spans(observability.get_tracer().spans())
    assert breakdown.acquisition_count == 1
    assert set(breakdown.chains) == {"sciql"}
    assert breakdown.chains["sciql"]["TOTAL"].count == 1


def test_monitor_ingestion_spans_and_counters(
    observability, noon_scene, georeference, tmp_path
):
    incoming = str(tmp_path / "incoming")
    archive = str(tmp_path / "archive")
    os.makedirs(incoming)
    write_hrit_segments(
        incoming, noon_scene.sensor_name, "IR_039", WHEN, noon_scene.t039
    )
    write_hrit_segments(
        incoming, noon_scene.sensor_name, "IR_108", WHEN, noon_scene.t108
    )
    # One irrelevant band the monitor must filter out.
    write_hrit_segments(
        incoming, noon_scene.sensor_name, "VIS006", WHEN, noon_scene.t108
    )
    with SeviriMonitor(incoming, archive) as monitor:
        registered = monitor.scan()
        ready = monitor.dispatch_ready()
    assert registered > 0
    assert len(ready) == 1
    names = {s.name for s in observability.get_tracer().spans()}
    assert {"monitor.scan", "monitor.dispatch"} <= names
    metrics = observability.get_metrics()
    assert metrics.get("monitor_segments_received_total").total() == \
        registered
    assert metrics.get("monitor_segments_dropped_total").value(
        reason="irrelevant_band"
    ) > 0
    assert metrics.get("monitor_acquisitions_assembled_total").total() == 1
    assert metrics.get("monitor_scan_seconds").count() == 1


def test_vault_load_spans_from_file_based_chain(
    observability, teleios, noon_scene
):
    teleios.use_files = True
    teleios.run([noon_scene], RunOptions(on_error="raise"))[0]
    spans = observability.get_tracer().spans()
    vault_loads = [s for s in spans if s.name == "vault.load"]
    assert vault_loads, "file-based ingestion must traverse the vault"
    assert all(
        s.attributes.get("format") or s.attributes.get("name")
        for s in vault_loads
    )
    metrics = observability.get_metrics()
    assert metrics.get("vault_loads_total").total() >= 1


def test_zero_hotspot_acquisition_still_reports_budget(
    observability, teleios
):
    # No fire season: a quiet acquisition with nothing to refine.
    outcome = teleios.run([WHEN], RunOptions(season=None, on_error="raise"))[0]
    assert len(outcome.raw_product) == 0
    assert outcome.refined_count == 0
    report = teleios.budget_report()
    assert "1 acquisition(s)" in report
    assert "deadline misses: 0/1" in report
    assert budget_summary(teleios.outcomes)["deadline_miss_ratio"] == 0.0


def test_failed_acquisition_closes_spans_and_counts_failure(
    observability, teleios, noon_scene, monkeypatch
):
    def explode(*args, **kwargs):
        raise RuntimeError("chain crashed")

    monkeypatch.setattr(teleios.chain, "process", explode)
    with pytest.raises(RuntimeError, match="chain crashed"):
        teleios.run([noon_scene], RunOptions(on_error="raise"))[0]
    tracer = observability.get_tracer()
    (span,) = [s for s in tracer.spans() if s.name == "acquisition"]
    assert span.status == "error"
    assert span.end is not None
    assert tracer.failure_counts.get("acquisition") == 1
    metrics = observability.get_metrics()
    assert metrics.get("span_failures_total").value(
        span="acquisition"
    ) == 1
