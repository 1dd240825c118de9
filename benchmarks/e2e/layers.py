"""Per-layer metrics and the layer table of a traced run.

Layer = module name.  Unless noted, ``*_ms_p50`` / ``*_ms_max`` are
taken over the timed acquisitions (or timed requests) of the inclusive
time spent inside that layer's wrapped entry points; counts are totals
over the timed acquisitions.  Everything here is derived from the span
summary ``trace.summarize`` built in the SUT plus what the load
generator observed on its side of the sockets.
"""

from __future__ import annotations

import statistics
from typing import Dict, List

import trace as layer_trace


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _p(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def metrics(run) -> Dict[str, float]:
    stats = run.stats
    summary = stats["summary"]
    timed = [f"acq:{a['index']}" for a in run.acquisitions]
    requests = [op for op in summary if op.startswith("req:")]
    n = len(timed)

    def per_acq(name, field="total_ms"):
        return [
            summary.get(op, {}).get(name, {}).get(field, 0.0)
            for op in timed
        ]

    def count(name, key, ops=timed):
        return sum(
            summary.get(op, {}).get(name, {}).get("counts", {}).get(
                key, 0
            )
            for op in ops
        )

    def per_request(name):
        return [
            summary[op][name]["total_ms"]
            for op in requests
            if name in summary[op]
        ]

    out: Dict[str, float] = {}
    # seviri / chain / annotate
    out["seviri.monitor_scan_ms_p50"] = _p50(
        per_acq("seviri.monitor_scan")
    )
    out["seviri.decode_ms_p50"] = _p50(per_acq("seviri.decode"))
    out["seviri.segments_in"] = sum(
        a["segments"] for a in run.acquisitions
    )
    out["chain.process_ms_p50"] = _p50(per_acq("chain.process"))
    out["chain.hotspots_out"] = count("chain.process", "hotspots")
    out["annotate.product_ms_p50"] = _p50(per_acq("annotate.product"))
    out["annotate.triples_out"] = count("annotate.product", "triples")
    # refine
    totals = [0.0] * n
    for op_name in layer_trace.REFINE_OPS:
        values = per_acq(f"refine.{op_name}")
        out[f"refine.{op_name}_ms_p50"] = _p50(values)
        out[f"refine.{op_name}_ms_max"] = max(values, default=0.0)
        totals = [t + v for t, v in zip(totals, values)]
    out["refine.total_ms_p50"] = _p50(totals)
    edge = min(4, max(1, n // 2))
    out["refine.total_growth"] = _ratio(
        statistics.fmean(totals[-edge:]),
        statistics.fmean(totals[:edge]),
    )
    # stsparql
    out["stsparql.calls_per_acq"] = _ratio(
        sum(per_acq("stsparql.query", "calls")), n
    )
    out["stsparql.busy_ms_per_acq"] = _ratio(
        sum(per_acq("stsparql.query")), n
    )
    out["stsparql.read_query_ms_p50"] = _p50(
        per_request("stsparql.read_query")
    )
    out["stsparql.plan_cache_hit_ratio"] = stats["plan_cache"].get(
        "hit_ratio", 0.0
    )
    spatial = [
        cache
        for name, cache in stats["caches"].items()
        if name.startswith("spatial_")
    ]
    hits = sum(c["hits"] for c in spatial)
    out["stsparql.spatial_cache_hit_ratio"] = _ratio(
        hits, hits + sum(c["misses"] for c in spatial)
    )
    # sources
    out["sources.collect_ms_p50"] = _p50(per_acq("sources.collect"))
    out["sources.fuse_ms_p50"] = _p50(per_acq("sources.fuse"))
    out["sources.observations_in"] = count(
        "sources.collect", "observations"
    )
    confirmed = count("refine.cross_confirm", "confirmed")
    out["sources.clusters_out"] = confirmed
    out["sources.confirmed_ratio"] = _ratio(
        confirmed, confirmed + count("refine.cross_confirm", "decayed")
    )
    # durable
    commits = per_acq("durable.commit")
    out["durable.commit_ms_p50"] = _p50(commits)
    out["durable.commit_ms_max"] = max(commits, default=0.0)
    first = run.acquisitions[0]["reply"]["fsyncs"]
    last = run.acquisitions[-1]["reply"]["fsyncs"]
    out["durable.fsyncs_per_acq"] = _ratio(last - first, max(1, n - 1))
    out["durable.wal_bytes_per_acq"] = _ratio(
        count("durable.wal_append", "appended"), n
    )
    out["durable.notiflog_append_ms_p50"] = _p50(
        per_acq("durable.notiflog_append")
    )
    checkpoints = per_acq("durable.checkpoint")
    out["durable.checkpoints"] = sum(
        per_acq("durable.checkpoint", "calls")
    )
    out["durable.checkpoint_ms_max"] = max(checkpoints, default=0.0)
    out["durable.checkpoint_bytes"] = max(
        (
            summary.get(op, {})
            .get("durable.checkpoint", {})
            .get("counts", {})
            .get("bytes", 0)
            for op in timed
        ),
        default=0,
    )
    opened = (
        run.recovered.get("summary", {})
        .get("recovery", {})
        .get("durable.open", {})
    )
    out["durable.recovery_s"] = run.recovery_s
    out["durable.open_ms"] = _ratio(
        opened.get("total_ms", 0.0), opened.get("calls", 0)
    )
    out["durable.replayed_records"] = run.recovered.get(
        "recovery", {}
    ).get("replayed_records", 0)
    # rdf / publish / shard
    out["rdf.triples_total"] = stats["triples"]
    out["rdf.snapshot_ms_p50"] = _p50(per_acq("rdf.snapshot"))
    out["publish.publish_ms_p50"] = _p50(per_acq("publish.publish"))
    out["publish.publications"] = sum(
        per_acq("publish.publish", "calls")
    )
    out["shard.repartition_ms_p50"] = _p50(
        per_acq("shard.repartition")
    )
    parts = (
        summary.get(timed[-1], {})
        .get("shard.repartition", {})
        .get("counts", {})
    )
    out["shard.triples_skew"] = _ratio(
        parts.get("max", 0) * parts.get("parts", 0),
        parts.get("total", 0),
    )
    # subscribe / sse
    out["subscribe.subscriptions"] = stats["subscriptions"]
    out["subscribe.register_per_s"] = run.register_per_s
    out["subscribe.process_commit_ms_p50"] = _p50(
        per_acq("subscribe.process_commit")
    )
    out["subscribe.notifications_per_acq"] = _ratio(
        count("subscribe.process_commit", "notifications"), n
    )
    latencies = [a["latency_ms"] for a in run.acquisitions]
    out["sse.alert_latency_p50_ms"] = _p50(latencies)
    out["sse.alert_latency_max_ms"] = max(latencies)
    out["sse.deliver_ms_p50"] = _p50(
        [
            (a["arrived_ns"] - a["reply"]["publish_end_ns"]) / 1e6
            for a in run.acquisitions
            if a["reply"].get("publish_end_ns")
        ]
    )
    out["sse.frames"] = sum(s.frames for s in run.streams)
    out["sse.bytes_per_acq"] = _ratio(
        sum(s.bytes for s in run.streams), run.plan.acquisitions
    )
    out["sse.gaps"] = run.sse["gaps"]
    out["sse.duplicates"] = run.sse["duplicates"]
    # http / hotspots / router
    samples = [s for r in run.readers for s in r.samples]
    good = [s for s in samples if s.status == 200]
    out["http.requests"] = len(samples)
    out["http.non_200"] = len(samples) - len(good)
    out["http.response_bytes_p50"] = _p50([s.size for s in good])
    out["http.read_rps"] = _ratio(len(good), run.read_wall_s)
    out["http.read_latency_p50_ms"] = _p50([s.ms for s in good])
    out["http.read_latency_p90_ms"] = _p([s.ms for s in good], 0.90)
    handler = per_request("hotspots.query")
    out["hotspots.query_ms_p50"] = _p50(handler)
    calls = sum(
        summary[op]["hotspots.query"]["calls"]
        for op in requests
        if "hotspots.query" in summary[op]
    )
    out["hotspots.scan_ratio"] = _ratio(
        run.store_hotspots * calls,
        count("hotspots.query", "features", requests),
    )
    served = handler + [
        summary[op]["stsparql.read_query"]["total_ms"]
        for op in requests
        if "stsparql.read_query" in summary[op]
        and "hotspots.query" not in summary[op]
    ]
    out["http.overhead_ms_p50"] = max(
        0.0, _p50([s.ms for s in good]) - _p50(served)
    )
    sharded = bool(run.workload.shards)
    out["router.fanout_per_request"] = (
        _ratio(len(served), len(samples)) if sharded else 0.0
    )
    out["router.degraded_responses"] = sum(
        r.degraded for r in run.readers
    )
    # service
    runs = per_acq("service.run")
    out["service.run_ms_p50"] = _p50(runs)
    out["service.acq_ms_max"] = max(runs, default=0.0)
    out["service.other_ms_p50"] = _p50(per_acq("service.run", "self_ms"))
    out["service.degraded"] = stats["degraded"]
    # validity
    timed_wall_ns = (
        run.acquisitions[-1]["reply"]["run_end_ns"]
        - run.acquisitions[0]["reply"]["run_start_ns"]
    )
    timed_spans = sum(
        row["calls"]
        for op in timed
        for row in summary.get(op, {}).values()
    )
    out["trace.overhead_ratio"] = _ratio(
        timed_spans * stats["span_cost_ns"], timed_wall_ns
    )
    out["loadgen.late_ms_p95"] = _p(
        [s.late_ms for s in samples], 0.95
    )
    return {name: float(value) for name, value in out.items()}


def tables(run) -> str:
    """The layer table(s) of one workload: self time per layer over
    the timed acquisitions, and over the read requests."""
    summary = run.stats["summary"]
    timed = [f"acq:{a['index']}" for a in run.acquisitions]
    requests = [op for op in summary if op.startswith("req:")]
    text = layer_trace.layer_table(
        summary,
        timed,
        f"layer table — {run.workload.name}: self time per timed "
        f"acquisition ({len(timed)})",
    )
    if requests:
        text += layer_trace.layer_table(
            summary,
            requests,
            f"layer table — {run.workload.name}: self time per "
            f"server-side read ({len(requests)})",
        )
    return text
