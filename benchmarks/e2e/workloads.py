"""The four workloads and the seeded inputs they run on.

Dataset and traffic are separated the way a database benchmark
separates them.  The *dataset* is fixed: ``SyntheticGreece(seed=42,
detail=2, municipality_count=150, land_cover_count=200)``, the
three-day crisis ``FireSeason(seed=7)`` and the secondary feeds
(refineries, weather stations, the orbiter; ``sources`` seed 7),
acquisitions every 15 minutes from 2007-08-24 10:00 UTC.  The traffic
is derived from ``--seed``: the sensor noise and terrain of every
synthesised scene, the order HRIT segments land in, the read mix and
its viewports, and every subscription.  (The fire scenario and the
refinery sites are not reseeded: Poisson event counts swing the
per-acquisition cost several-fold between seeds, and where a refinery
stands moves it by a quarter — either would bury every regression
bound.)

A run is a number of *rounds*.  Every round sets the system up from
nothing and drives the same fixed sequence of acquisitions through it;
the reads follow on the frozen store it leaves (or run beside the
ingest, open loop).  ``--seconds`` buys rounds — one per
``ROUND_SECONDS`` — and read time; the sequence itself never changes,
so an acquisition is measured once per round on the same store and the
run reports the median of those.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Dict, List

GREECE = dict(
    seed=42, detail=2, municipality_count=150, land_cover_count=200
)
SEASON_SEED = 7
SEASON_DAYS = 3
#: Seed of the secondary feeds: where the refineries and weather
#: stations stand and how the orbiter samples the fires.
SOURCES_SEED = 7
START = datetime(2007, 8, 24, 10, 0, tzinfo=timezone.utc)
CADENCE_MINUTES = 15
GREECE_BBOX = (20.5, 34.5, 27.0, 41.5)
BANDS = ("IR_039", "IR_108")
SENSOR = "MSG2"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: How acquisitions reach the SUT: HRIT segment files through the
    #: SEVIRI monitor, or in-memory scenes.
    transport: str
    federated: bool
    #: 0 = one ``serve_in_thread`` server, N = ``serve_sharded(N)``.
    shards: int
    warmup: int
    #: Timed acquisitions of one round.
    timed: int
    #: ``"after"``: closed loop, 2 connections, once a round's ingest
    #: is done; ``"during"``: open loop, 1 connection, beside it.
    reads: str
    #: Closed-loop read seconds per ``--seconds`` second, split evenly
    #: over the rounds.
    read_share: float
    geofences: int = 0
    standing_queries: int = 0
    fwi: int = 0
    sse_streams: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="crisis_ingest",
            why="write path: HRIT decode, SciQL chain, nine "
            "refinement ops, fusion, WAL and checkpoints on a growing "
            "store; one subscriber, almost no serving",
            transport="hrit",
            federated=True,
            shards=0,
            warmup=3,
            timed=8,
            reads="after",
            read_share=0.3,
        ),
        Workload(
            name="map_reads",
            why="read path on a frozen store: HTTP parse, pool hop, "
            "query_hotspots, SnapshotView.query, GeoJSON encode; "
            "bypasses every ingest optimisation",
            transport="scene",
            federated=True,
            shards=0,
            warmup=2,
            timed=8,
            reads="after",
            read_share=0.5,
        ),
        Workload(
            name="reads_during_ingest",
            why="writes beside reads on the 2-shard tier: COW "
            "detach, repartition per publication, router fan-out, "
            "composite tokens, checkpoint stalls, GIL sharing",
            transport="hrit",
            federated=True,
            shards=2,
            warmup=3,
            timed=10,
            reads="during",
            read_share=0.0,
        ),
        Workload(
            name="alert_fanout",
            why="commit-to-alert path: 20k geofences, 40 standing "
            "queries and 50 FWI subscriptions evaluated per commit, "
            "notification log, SSE fan-out; no decode, no fusion",
            transport="scene",
            federated=False,
            shards=0,
            warmup=3,
            timed=6,
            reads="after",
            read_share=0.3,
            geofences=20000,
            standing_queries=40,
            fwi=50,
            sse_streams=2,
        ),
    )
}

#: Open-loop read rate of ``reads_during_ingest``.
OPEN_LOOP_RPS = 3.0
#: ``checkpoint_interval`` of every durable service (the store passes
#: through several checkpoint cycles within one run).
CHECKPOINT_INTERVAL = 4


#: One round per this many ``--seconds``.
ROUND_SECONDS = 10.0


@dataclass(frozen=True)
class Plan:
    """The fixed sizes of one run."""

    workload: Workload
    seed: int
    seconds: float
    rounds: int
    #: Timed acquisitions of one round.
    timed: int
    #: Closed-loop read seconds of one round.
    read_seconds: float

    @property
    def acquisitions(self) -> int:
        return self.workload.warmup + self.timed


def plan(
    workload: Workload, seed: int, seconds: float, quick: bool = False
) -> Plan:
    rounds = max(1, round(seconds / ROUND_SECONDS))
    return Plan(
        workload=workload,
        seed=seed,
        seconds=seconds,
        rounds=rounds,
        timed=3 if quick else workload.timed,
        read_seconds=(
            0.0
            if workload.reads == "during"
            else max(1.0, seconds * workload.read_share / rounds)
        ),
    )


def acquisition_time(index: int) -> datetime:
    return START + timedelta(minutes=CADENCE_MINUTES * index)


def build_dataset(workload: Workload):
    """(greece, season) — the fixed dataset.  For a federated workload
    the static heat sources (refineries) are attached to the season,
    exactly as the service's federation will attach them, so the
    scenes the generator synthesises already show their heat."""
    from repro.datasets import SyntheticGreece
    from repro.seviri.fires import FireSeason

    greece = SyntheticGreece(**GREECE)
    season = FireSeason(
        greece,
        START.replace(hour=0),
        days=SEASON_DAYS,
        seed=SEASON_SEED,
    )
    if workload.federated:
        from repro.sources import (
            SourcesConfig,
            attach_static_sites,
            simulate_static_sites,
        )

        config = SourcesConfig.from_dict(sources_config())
        attach_static_sites(
            season,
            simulate_static_sites(
                greece, count=config.static_sites, seed=config.seed
            ),
        )
    return greece, season


def sources_config() -> Dict[str, int]:
    return {
        "seed": SOURCES_SEED,
        "polar_revisit_minutes": CADENCE_MINUTES,
    }


def service_config(workload: Workload, state_dir=None, workdir=None):
    """The SUT's (and, with ``state_dir=None``, the reference run's)
    ``ServiceConfig``."""
    from repro.core import ServiceConfig

    return ServiceConfig(
        state_dir=state_dir,
        workdir=workdir,
        wal_fsync="commit",
        checkpoint_interval=CHECKPOINT_INTERVAL,
        sources=sources_config() if workload.federated else None,
    )


# -- read mix -------------------------------------------------------------

_PREFIXES = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/"
    "noaOntology.owl#>\n"
    "PREFIX gag: <http://teleios.di.uoa.gr/ontologies/"
    "gagOntology.owl#>\n"
    "PREFIX lgdo: <http://linkedgeodata.org/ontology/>\n"
    "PREFIX gn: <http://www.geonames.org/ontology#>\n"
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)

#: Figure 6's overlay queries whose joins stay subject-local (so the
#: sharded union equals the single-store answer): hotspots in a region
#: and time window, primary roads, prefecture capitals, municipality
#: boundaries.
_MAP_QUERIES = (
    "SELECT ?hotspot ?hGeo ?hAcqTime ?hConfidence WHERE {{\n"
    "  ?hotspot a noa:Hotspot ; strdf:hasGeometry ?hGeo ;\n"
    "    noa:hasAcquisitionDateTime ?hAcqTime ;\n"
    "    noa:hasConfidence ?hConfidence .\n"
    '  FILTER( "{start}" <= str(?hAcqTime) ) .\n'
    '  FILTER( strdf:contains("{region}"^^strdf:WKT, ?hGeo) ) . }}',
    "SELECT ?road ?rGeo WHERE {{\n"
    "  ?road a lgdo:Primary ; strdf:hasGeometry ?rGeo .\n"
    '  FILTER( strdf:anyInteract("{region}"^^strdf:WKT, ?rGeo) ) . }}',
    "SELECT ?n ?nName ?nGeo WHERE {{\n"
    "  ?n a gn:Feature ; strdf:hasGeometry ?nGeo ; gn:name ?nName ;\n"
    "    gn:featureCode gn:P.PPLA .\n"
    '  FILTER( strdf:contains("{region}"^^strdf:WKT, ?nGeo) ) . }}',
    "SELECT ?m ?mLabel ( strdf:boundary(?mGeo) AS ?mBoundary ) "
    "WHERE {{\n"
    "  ?m a gag:Dhmos ; rdfs:label ?mLabel ;\n"
    "    strdf:hasGeometry ?mGeo .\n"
    '  FILTER( strdf:anyInteract("{region}"^^strdf:WKT, ?mGeo) ) . }}',
)


def _viewport(rng: random.Random, size: float = 2.0):
    minx, miny, maxx, maxy = GREECE_BBOX
    x = round(rng.uniform(minx, maxx - size), 2)
    y = round(rng.uniform(miny, maxy - size), 2)
    return x, y, x + size, y + size


def _region_wkt(box) -> str:
    from repro.core.mapping import region_wkt

    return region_wkt(*box)


@dataclass(frozen=True)
class ReadRequest:
    kind: str  # "all" | "bbox" | "since" | "stsparql"
    method: str
    path: str
    body: bytes = b""
    #: Requests that cost alike: the kind, and for stSPARQL the
    #: overlay query too.
    family: str = ""


#: One block of the read mix: 40 % unfiltered, 30 % viewport, 15 %
#: since/confirmed/static, 15 % overlay SELECT.
_MIX_BLOCK = ("all",) * 8 + ("bbox",) * 6 + ("since",) * 3 + (
    "stsparql",
) * 3
#: Share of each family of requests in the mix — the weights of
#: ``read_latency_mean_ms``.  The overlay queries take turns.
MIX_SHARES = {
    kind: _MIX_BLOCK.count(kind) / len(_MIX_BLOCK)
    for kind in ("all", "bbox", "since")
}
MIX_SHARES.update(
    (
        f"stsparql.{index}",
        _MIX_BLOCK.count("stsparql") / len(_MIX_BLOCK) / len(_MAP_QUERIES),
    )
    for index in range(len(_MAP_QUERIES))
)


def read_mix(seed: int, acquisitions: int, blocks: int = 24):
    """The seeded read mix the loops cycle through: 40 % unfiltered
    ``/v1/hotspots``, 30 % 2°x2° viewports, 15 % ``since`` /
    ``confirmed`` / ``static``, 15 % Figure-6 thematic-map SELECTs.
    Stratified — every block of 20 requests has exactly these shares,
    in a seeded order — so a short read phase sees the same mix as a
    long one."""
    rng = random.Random(seed * 7919 + 1)
    out: List[ReadRequest] = []
    overlays = 0
    for _ in range(blocks):
        kinds = list(_MIX_BLOCK)
        rng.shuffle(kinds)
        for kind in kinds:
            out.append(_read_request(rng, kind, acquisitions, overlays))
            overlays += kind == "stsparql"
    return out


def _read_request(
    rng: random.Random, kind: str, acquisitions: int, overlay: int
) -> "ReadRequest":
    since = acquisition_time(
        rng.randrange(max(1, acquisitions))
    ).strftime("%Y-%m-%dT%H:%M:%S")
    if kind == "all":
        return ReadRequest("all", "GET", "/v1/hotspots", family=kind)
    if kind == "bbox":
        x0, y0, x1, y1 = _viewport(rng)
        return ReadRequest(
            "bbox",
            "GET",
            f"/v1/hotspots?bbox={x0},{y0},{x1},{y1}",
            family=kind,
        )
    if kind == "since":
        return ReadRequest(
            "since",
            "GET",
            f"/v1/hotspots?since={since}&confirmed=true&static=false",
            family=kind,
        )
    template = overlay % len(_MAP_QUERIES)
    text = _PREFIXES + _MAP_QUERIES[template].format(
        region=_region_wkt(_viewport(rng)), start=since
    )
    return ReadRequest(
        "stsparql",
        "POST",
        "/v1/stsparql",
        json.dumps({"query": text}).encode("utf-8"),
        family=f"stsparql.{template}",
    )


# -- subscriptions --------------------------------------------------------

_STANDING_PREFIX = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/"
    "noaOntology.owl#>\n"
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n"
)


def stream_filters(workload: Workload) -> List[Dict]:
    """The subscriptions the SSE connections stream: Greece-wide
    geofences (the second one, when present, with a confidence
    floor)."""
    wide = {"kind": "filter", "bbox": list(GREECE_BBOX)}
    floors = [None, 0.5][: workload.sse_streams]
    return [
        dict(wide) if floor is None
        else dict(wide, min_confidence=floor)
        for floor in floors
    ]


def bulk_subscriptions(workload: Workload, seed: int) -> List[Dict]:
    """``alert_fanout``'s standing load.

    Geofences are 0.5° boxes on a jittered grid (stratified, so the
    number of fences over any point — and with it the notifications
    per hotspot — barely depends on the seed).  Half of the standing
    queries are plain hotspot-star patterns with a confidence floor,
    half add a spatial FILTER the engine must evaluate per subject.
    """
    rng = random.Random(seed * 104729 + 3)
    minx, miny, maxx, maxy = GREECE_BBOX
    docs: List[Dict] = []
    if workload.geofences:
        cols = max(1, round((workload.geofences * (maxx - minx)
                             / (maxy - miny)) ** 0.5))
        rows = -(-workload.geofences // cols)
        dx = (maxx - minx) / cols
        dy = (maxy - miny) / rows
        for index in range(workload.geofences):
            x = minx + (index % cols + rng.random()) * dx
            y = miny + (index // cols + rng.random()) * dy
            docs.append(
                {
                    "kind": "filter",
                    "bbox": [
                        round(x - 0.25, 4),
                        round(y - 0.25, 4),
                        round(x + 0.25, 4),
                        round(y + 0.25, 4),
                    ],
                }
            )
    for index in range(workload.standing_queries):
        floor = round(rng.uniform(0.3, 0.9), 2)
        if index % 2 == 0:
            text = (
                "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                "noa:hasConfidence ?c . "
                f"FILTER( ?c >= {floor} ) }}"
            )
        else:
            region = _region_wkt(_viewport(rng, size=3.0))
            text = (
                "SELECT ?h WHERE { ?h a noa:Hotspot ; "
                "strdf:hasGeometry ?g . "
                f'FILTER( strdf:anyInteract("{region}"^^strdf:WKT, '
                "?g) ) }"
            )
        docs.append(
            {"kind": "stsparql", "query": _STANDING_PREFIX + text}
        )
    classes = ("moderate", "high", "very-high")
    for index in range(workload.fwi):
        docs.append(
            {"kind": "fwi", "min_class": classes[index % len(classes)]}
        )
    return docs


def segment_order(seed: int, index: int, names: List[str]) -> List[str]:
    """The (shuffled) order one acquisition's segments land in."""
    ordered = sorted(names)
    random.Random(seed * 31 + index).shuffle(ordered)
    return ordered


def summary(p: Plan) -> Dict[str, object]:
    """Run-record block: what this run's sizes were."""
    w = p.workload
    return {
        "transport": w.transport,
        "federated": w.federated,
        "shards": w.shards,
        "rounds": p.rounds,
        "warmup_acquisitions": w.warmup,
        "timed_acquisitions_per_round": p.timed,
        "read_loop": "open, 1 connection, "
        f"{OPEN_LOOP_RPS:g} req/s beside ingest"
        if w.reads == "during"
        else f"closed, 2 connections, {p.read_seconds:g} s after each "
        "round's ingest",
        "geofences": w.geofences,
        "standing_queries": w.standing_queries,
        "fwi_subscriptions": w.fwi,
        "sse_streams": w.sse_streams,
        "checkpoint_interval": CHECKPOINT_INTERVAL,
        "fsync_policy": "commit",
    }
