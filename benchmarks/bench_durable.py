"""Durability benchmark (``BENCH_durable.json``).

Three measurements over the ``repro.durable`` layer:

* **WAL append throughput** — committed operation batches per second
  through :class:`DurableStore.commit` under each fsync policy
  (``never`` isolates the framing/encoding cost; ``commit`` adds the
  one-fsync-per-acquisition price the service actually pays).
* **Recovery time vs log length** — cold-open wall time of a store
  whose WAL holds progressively more uncompacted batches, plus the
  replay rate in triples/s; demonstrates recovery cost is linear in
  the log, which is exactly what periodic compaction bounds.
* **Checkpoint compaction ratio** — a rolling-update workload (the
  hotspot refinement pattern: the same subjects rewritten every round)
  grows the WAL far beyond the live graph; the ratio of WAL bytes
  replaced to checkpoint bytes written is the space the compaction
  earns back.
* **Checkpoint of a realistic store** — the auxiliary data of
  ``SyntheticGreece(seed=42, detail=2, municipality_count=150,
  land_cover_count=200)`` (long WKT geometries, many URIs) plus seeded
  hotspot stars: bytes per triple of the checkpoint, and the median
  seconds to write it and to load it back into an empty graph.  The
  other sections hold short literals, so only this one sees what the
  term-table compression and the id columns save.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import tempfile
import time
from datetime import datetime, timedelta, timezone

from benchmarks.conftest import paper_scale
from repro.durable import DurableStore
from repro.rdf.graph import Graph
from repro.rdf.namespace import NOA, RDF, STRDF, XSD
from repro.rdf.term import Literal, URI

#: Operation batches per throughput run (one batch ≈ one acquisition).
N_BATCHES = 600 if paper_scale() else 200
#: Triple operations per batch.
OPS_PER_BATCH = 24
#: WAL lengths (in batches) for the recovery-scaling measurement.
RECOVERY_LENGTHS = (
    [64, 256, 1024] if paper_scale() else [32, 128, 512]
)
#: Rolling-update rounds for the compaction measurement.
COMPACTION_ROUNDS = 200 if paper_scale() else 64
COMPACTION_SUBJECTS = 150
#: Hotspot stars beside the auxiliary data in the checkpoint section,
#: and the write / load repetitions whose median it reports.
CHECKPOINT_HOTSPOTS = 3000
CHECKPOINT_REPEATS = 5

_ARTIFACTS = {}

_PRED = URI("http://teleios.di.uoa.gr/noa#hasConfidence")
_GEO = URI("http://strdf.di.uoa.gr/ontology#hasGeometry")
_WKT = "http://strdf.di.uoa.gr/ontology#WKT"


def _subject(n: int) -> URI:
    return URI(f"http://teleios.di.uoa.gr/noa/hotspot/{n}")


def _mutate_batch(graph: Graph, base: int) -> None:
    for k in range(OPS_PER_BATCH // 2):
        s = _subject(base * OPS_PER_BATCH + k)
        graph.add(s, _PRED, Literal(f"0.{k}"))
        graph.add(
            s,
            _GEO,
            Literal(
                f"POINT (21.{k} 38.{k})", datatype=_WKT
            ),
        )


def _fresh_dir() -> str:
    return tempfile.mkdtemp(prefix="bench_durable_")


def _append_throughput(fsync: str) -> dict:
    directory = _fresh_dir()
    graph = Graph()
    store = DurableStore(
        directory, graph=graph, fsync=fsync,
        checkpoint_interval=10**9,
    )
    graph.start_journal()
    try:
        t0 = time.perf_counter()
        for n in range(N_BATCHES):
            _mutate_batch(graph, n)
            store.commit(graph.drain_journal(), meta={"committed": n + 1})
        wall = time.perf_counter() - t0
        wal_bytes = store.wal.size_bytes()
    finally:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)
    ops = N_BATCHES * OPS_PER_BATCH
    return {
        "fsync": fsync,
        "batches": N_BATCHES,
        "ops": ops,
        "wall_s": wall,
        "batches_per_s": N_BATCHES / wall,
        "ops_per_s": ops / wall,
        "wal_mb": wal_bytes / 1e6,
        "wal_mb_per_s": wal_bytes / 1e6 / wall,
    }


def _recovery_point(batches: int) -> dict:
    directory = _fresh_dir()
    graph = Graph()
    store = DurableStore(
        directory, graph=graph, fsync="never",
        checkpoint_interval=10**9,
    )
    graph.start_journal()
    try:
        for n in range(batches):
            _mutate_batch(graph, n)
            store.commit(graph.drain_journal())
        triples = len(graph)
        wal_bytes = store.wal.size_bytes()
    finally:
        store.close()
    try:
        t0 = time.perf_counter()
        recovered = DurableStore(directory, graph=Graph(), fsync="never")
        wall = time.perf_counter() - t0
        info = recovered.recovery
        assert info is not None
        assert info.replayed_records == batches
        assert len(recovered.graph) == triples
        recovered.close()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "wal_batches": batches,
        "wal_mb": wal_bytes / 1e6,
        "triples": triples,
        "seconds": wall,
        "replayed_ops": info.replayed_ops,
        "triples_per_s": triples / wall if wall > 0 else 0.0,
    }


def _compaction() -> dict:
    directory = _fresh_dir()
    graph = Graph()
    store = DurableStore(
        directory, graph=graph, fsync="never",
        checkpoint_interval=10**9,
    )
    graph.start_journal()
    try:
        for round_no in range(COMPACTION_ROUNDS):
            for k in range(COMPACTION_SUBJECTS):
                s = _subject(k)
                graph.remove(s, _PRED, None)
                graph.add(
                    s, _PRED, Literal(f"0.{round_no % 10}{k}")
                )
            store.commit(graph.drain_journal())
        wal_before = store.wal.size_bytes()
        live_triples = len(graph)
        t0 = time.perf_counter()
        store.checkpoint()
        checkpoint_s = time.perf_counter() - t0
        wal_after = store.wal.size_bytes()
        ckpt_bytes = os.path.getsize(
            os.path.join(directory, DurableStore.CHECKPOINT_NAME)
        )
    finally:
        store.close()
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "rounds": COMPACTION_ROUNDS,
        "subjects": COMPACTION_SUBJECTS,
        "live_triples": live_triples,
        "wal_mb_before": wal_before / 1e6,
        "wal_mb_after": wal_after / 1e6,
        "checkpoint_mb": ckpt_bytes / 1e6,
        "checkpoint_s": checkpoint_s,
        # Bytes of log history replaced per byte of checkpoint kept.
        "ratio": wal_before / ckpt_bytes if ckpt_bytes else 0.0,
    }


def _hotspot_star(graph: Graph, rng: random.Random, n: int) -> None:
    """One refined hotspot: class, confidence, acquisition time,
    sensor, chain, producer and a pixel footprint polygon."""
    h = NOA.term(f"hotspot_{n}")
    when = datetime(2007, 8, 24, tzinfo=timezone.utc) + timedelta(
        minutes=15 * (n // 40)
    )
    x = round(rng.uniform(20.5, 27.0), 4)
    y = round(rng.uniform(34.5, 41.5), 4)
    ring = ", ".join(
        f"{x + dx:.4f} {y + dy:.4f}"
        for dx, dy in ((0, 0), (0.03, 0), (0.03, 0.03), (0, 0.03), (0, 0))
    )
    graph.add(h, RDF.type, NOA.Hotspot)
    graph.add(
        h,
        NOA.hasConfidence,
        Literal(f"{rng.random():.3f}", datatype=XSD.base + "float"),
    )
    graph.add(
        h,
        NOA.hasAcquisitionDateTime,
        Literal(when.isoformat(), datatype=XSD.base + "dateTime"),
    )
    graph.add(
        h,
        NOA.isDerivedFromSensor,
        Literal("MSG2", datatype=XSD.base + "string"),
    )
    graph.add(
        h,
        NOA.isFromProcessingChain,
        Literal("cloud-masked", datatype=XSD.base + "string"),
    )
    graph.add(h, NOA.isProducedBy, NOA.noa)
    graph.add(
        h,
        STRDF.hasGeometry,
        Literal(f"POLYGON (({ring}))", datatype=_WKT),
    )


def _checkpoint_section() -> dict:
    from repro.datasets import SyntheticGreece
    from repro.datasets.loader import load_auxiliary_data
    from repro.stsparql import Strabon

    strabon = Strabon()
    load_auxiliary_data(
        strabon,
        SyntheticGreece(
            seed=42, detail=2, municipality_count=150, land_cover_count=200
        ),
    )
    graph = strabon.graph
    rng = random.Random(42)
    for n in range(CHECKPOINT_HOTSPOTS):
        _hotspot_star(graph, rng, n)
    directory = _fresh_dir()
    try:
        store = DurableStore(directory, graph=graph, fsync="never")
        writes = []
        for _ in range(CHECKPOINT_REPEATS):
            t0 = time.perf_counter()
            store.checkpoint()
            writes.append(time.perf_counter() - t0)
        store.close()
        ckpt_bytes = os.path.getsize(
            os.path.join(directory, DurableStore.CHECKPOINT_NAME)
        )
        loads = []
        for _ in range(CHECKPOINT_REPEATS):
            t0 = time.perf_counter()
            loaded = DurableStore(directory, graph=Graph(), fsync="never")
            loads.append(time.perf_counter() - t0)
            assert len(loaded.graph) == len(graph)
            loaded.close()
            del loaded  # freed here, not inside the next timing
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "triples": len(graph),
        "terms": graph.term_count(),
        "bytes": ckpt_bytes,
        "bytes_per_triple": ckpt_bytes / len(graph),
        "write_seconds": statistics.median(writes),
        "load_seconds": statistics.median(loads),
    }


def test_wal_throughput_and_recovery_and_compaction():
    wal = {
        policy: _append_throughput(policy)
        for policy in ("never", "commit")
    }
    recovery = [_recovery_point(n) for n in RECOVERY_LENGTHS]
    compaction = _compaction()
    checkpoint = _checkpoint_section()

    # Sanity bars (loose; the regression gate does the precise work).
    assert wal["never"]["batches_per_s"] > 50
    assert recovery[-1]["triples_per_s"] > 1000
    assert compaction["ratio"] > 2.0
    assert checkpoint["bytes_per_triple"] < 20.0
    # Recovery grows with the log — the point compaction exists.
    assert recovery[-1]["seconds"] > recovery[0]["seconds"] * 0.5

    run = {
        "schema": "bench-durable/1",
        "scale": "paper" if paper_scale() else "small",
        "wal": wal,
        "recovery": {
            "points": recovery,
            "longest_seconds": recovery[-1]["seconds"],
            "triples_per_s": recovery[-1]["triples_per_s"],
        },
        "compaction": compaction,
        "checkpoint": checkpoint,
    }
    _ARTIFACTS["run"] = run


def teardown_module(module):
    from benchmarks.reporting import report, write_bench_json

    run = _ARTIFACTS.get("run")
    if run is None:
        return
    write_bench_json("durable", run)
    wal = run["wal"]
    compaction = run["compaction"]
    checkpoint = run["checkpoint"]
    lines = [
        "Durable store: WAL throughput, recovery scaling, compaction",
        "",
        f"wal append (fsync=never):  {wal['never']['batches_per_s']:8.1f}"
        f" batches/s  ({wal['never']['wal_mb_per_s']:.2f} MB/s)",
        f"wal append (fsync=commit): {wal['commit']['batches_per_s']:8.1f}"
        f" batches/s",
        "",
        "recovery:",
    ]
    for point in run["recovery"]["points"]:
        lines.append(
            f"  {point['wal_batches']:5d} batches "
            f"({point['wal_mb']:.2f} MB) -> {point['seconds']*1e3:7.1f} ms"
            f"  ({point['triples_per_s']:.0f} triples/s)"
        )
    lines += [
        "",
        f"compaction: {compaction['wal_mb_before']:.2f} MB of WAL -> "
        f"{compaction['checkpoint_mb']:.2f} MB checkpoint "
        f"({compaction['ratio']:.1f}x) in "
        f"{compaction['checkpoint_s']*1e3:.1f} ms",
        "",
        f"checkpoint of {checkpoint['triples']} triples "
        f"({checkpoint['terms']} terms): {checkpoint['bytes']} B "
        f"({checkpoint['bytes_per_triple']:.1f} B/triple), written in "
        f"{checkpoint['write_seconds']*1e3:.1f} ms, loaded in "
        f"{checkpoint['load_seconds']*1e3:.1f} ms",
    ]
    report("durable", "\n".join(lines))
