"""Spatial sharding of the hotspot store for scatter-gather serving.

The serving tier partitions the published RDF store by **spatial
tile**: the :class:`~repro.seviri.geo.TargetGrid` product area (the
paper's Greek AOI) is cut into an ``tiles_x x tiles_y`` grid of
envelopes, and every *subject* whose ``strdf:hasGeometry`` geometry
falls in a tile lands — with its entire star of triples — in that
tile's partition.  Subjects with no geometry (ontology, corine
taxonomy, auxiliary data) go to one **catch-all** partition that every
fan-out consults for non-spatial queries and no bbox-pruned ``/hotspots``
fan-out ever needs.

Partitioning is *by subject*, which is what makes scatter-gather
answers exact: a subject's star is never split across shards, so any
query whose joins stay subject-local (the serving workload — the
``/hotspots`` star query, per-hotspot lookups) evaluates on each shard
exactly as it would on the whole store, and the multiset union of the
per-shard answers equals the single-store answer.

:class:`ShardManager` owns one :class:`~repro.stsparql.Strabon` + one
:class:`~repro.serve.state.SnapshotPublisher` per partition and
subscribes to the main publisher: every main publication repartitions
the frozen snapshot and republishes per shard, so the shard tier lags
the writer by exactly one deterministic fan-out and each shard's
``(sequence, generation)`` advances in lock-step.  The composite
:class:`~repro.serve.state.ConsistencyToken` over all shards is the
router's consistency stamp.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.geometry import Envelope, Geometry
from repro.obs import get_metrics
from repro.rdf.graph import Graph
from repro.serve.state import ConsistencyToken, SnapshotPublisher
from repro.stsparql import Strabon

_metrics = get_metrics()

#: Partition id of the non-geometric (catch-all) shard.
CATCH_ALL = -1

__all__ = [
    "CATCH_ALL",
    "ShardManager",
    "Tile",
    "TileLayout",
    "partition_snapshot",
]


@dataclass(frozen=True)
class Tile:
    """One spatial partition: an index and its lon/lat envelope."""

    index: int
    envelope: Envelope


class TileLayout:
    """A ``tiles_x x tiles_y`` tiling of the product-grid envelope.

    Derived from the SEVIRI target grid so the serving partitions line
    up with the area the chain actually georeferences to; geometry
    centres outside the grid clamp to the nearest edge tile (nothing
    is ever dropped by the partitioner).
    """

    def __init__(
        self, tiles_x: int, tiles_y: int, grid=None
    ) -> None:
        if tiles_x < 1 or tiles_y < 1:
            raise ValueError("tile counts must be >= 1")
        if grid is None:
            from repro.seviri.geo import TargetGrid

            grid = TargetGrid()
        self.grid = grid
        self.tiles_x = tiles_x
        self.tiles_y = tiles_y
        minx, miny = grid.lon0, grid.lat0
        maxx = grid.lon0 + grid.nx * grid.dlon
        maxy = grid.lat0 + grid.ny * grid.dlat
        #: The full area covered by the tiling.
        self.envelope = Envelope(minx, miny, maxx, maxy)
        self._dx = (maxx - minx) / tiles_x
        self._dy = (maxy - miny) / tiles_y
        self.tiles: List[Tile] = [
            Tile(
                j * tiles_x + i,
                Envelope(
                    minx + i * self._dx,
                    miny + j * self._dy,
                    minx + (i + 1) * self._dx,
                    miny + (j + 1) * self._dy,
                ),
            )
            for j in range(tiles_y)
            for i in range(tiles_x)
        ]

    @classmethod
    def for_shards(cls, shards: int, grid=None) -> "TileLayout":
        """The most-square ``a x b = shards`` tiling (4 → 2x2, 2 → 2x1,
        6 → 3x2 ...)."""
        if shards < 1:
            raise ValueError("shards must be >= 1")
        best_a = 1
        for a in range(1, int(shards**0.5) + 1):
            if shards % a == 0:
                best_a = a
        return cls(shards // best_a, best_a, grid=grid)

    def tile_for(self, lon: float, lat: float) -> int:
        """Tile index owning the point (clamped to the nearest tile for
        out-of-grid coordinates)."""
        i = int((lon - self.envelope.minx) / self._dx)
        j = int((lat - self.envelope.miny) / self._dy)
        i = min(max(i, 0), self.tiles_x - 1)
        j = min(max(j, 0), self.tiles_y - 1)
        return j * self.tiles_x + i

    def tiles_for_bbox(self, bbox: Optional[Envelope]) -> List[int]:
        """Tile indices whose envelope intersects ``bbox`` (all of them
        when ``bbox`` is None).  The router prunes its ``/hotspots``
        fan-out to exactly this set."""
        if bbox is None:
            return [tile.index for tile in self.tiles]
        return [
            tile.index
            for tile in self.tiles
            if tile.envelope.intersects(bbox)
        ]

    def __len__(self) -> int:
        return len(self.tiles)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TileLayout {self.tiles_x}x{self.tiles_y} over "
            f"({self.envelope.minx}, {self.envelope.miny}, "
            f"{self.envelope.maxx}, {self.envelope.maxy})>"
        )


def partition_snapshot(snapshot, layout: TileLayout) -> Dict[int, Graph]:
    """Partition a frozen graph into per-tile graphs plus a catch-all.

    By subject: a subject carrying any geometry literal goes — with
    every triple it is the subject of — to the tile under its first
    geometry's envelope centre; all other subjects go to
    :data:`CATCH_ALL`.  The partitions are disjoint and their union is
    exactly the input (asserted by the shard test-suite).
    """
    subject_tile: Dict[object, int] = {}
    for s, _p, lit in snapshot.geometry_literals():
        if s in subject_tile:
            continue
        geom = lit.value
        if isinstance(geom, Geometry) and not geom.is_empty:
            env = geom.envelope
            subject_tile[s] = layout.tile_for(
                (env.minx + env.maxx) / 2.0,
                (env.miny + env.maxy) / 2.0,
            )
    parts: Dict[int, Graph] = {
        tile.index: Graph() for tile in layout.tiles
    }
    parts[CATCH_ALL] = Graph()
    for s, p, o in snapshot.triples():
        parts[subject_tile.get(s, CATCH_ALL)].add(s, p, o)
    return parts


@dataclass
class _Shard:
    """One partition's serving state (engine, publisher, HTTP server)."""

    shard_id: int
    tile: Optional[Tile]
    publisher: SnapshotPublisher
    strabon: Optional[Strabon] = None
    plan_cache: object = None
    handle: object = None  # ServerHandle once HTTP is started

    @property
    def address(self):
        return None if self.handle is None else self.handle.address


class _ShardService:
    """The duck-typed ``service`` a per-shard ``HotspotServer`` sees:
    the shard's publisher plus a small health document."""

    #: Shards never host the subscription engine — continuous queries
    #: evaluate on the main commit path; the router exposes the main
    #: service's engine instead (``/v1/subscriptions`` on a shard
    #: answers 404).
    subscriptions = None

    def __init__(self, manager: "ShardManager", shard_id: int) -> None:
        self._manager = manager
        self._shard = manager.shards[shard_id]

    @property
    def publisher(self) -> SnapshotPublisher:
        return self._shard.publisher

    def health(self) -> dict:
        tile = self._shard.tile
        latest = self._shard.publisher.latest()
        return {
            "status": "ok" if latest is not None else "starting",
            "role": "shard",
            "shard": self._shard.shard_id,
            "tile": None
            if tile is None
            else [
                tile.envelope.minx,
                tile.envelope.miny,
                tile.envelope.maxx,
                tile.envelope.maxy,
            ],
            "snapshot": None
            if latest is None
            else {
                "sequence": latest.sequence,
                "generation": latest.generation,
                "triples": len(latest),
            },
        }


class ShardManager:
    """Partition the published store and serve each partition.

    ``service`` is duck-typed: it must expose a ``publisher``
    (:class:`~repro.serve.state.SnapshotPublisher`).  The manager
    subscribes to it, so every publication by the writer repartitions
    the frozen snapshot and republishes through each shard's own
    publisher; the per-shard publishers are seeded with the main
    sequence so shard tokens stay monotonic across service restarts
    exactly like the main one.
    """

    def __init__(
        self,
        service,
        shards: int = 4,
        layout: Optional[TileLayout] = None,
        grid=None,
    ) -> None:
        self.service = service
        self.layout = (
            layout
            if layout is not None
            else TileLayout.for_shards(shards, grid=grid)
        )
        self._repartition_lock = threading.Lock()
        self._last_main_sequence = -1
        base = service.publisher.sequence
        #: Deterministic shard order: tiles row-major, catch-all last.
        self.shard_ids: List[int] = [
            tile.index for tile in self.layout.tiles
        ] + [CATCH_ALL]
        self.shards: Dict[int, _Shard] = {}
        for tile in self.layout.tiles:
            self.shards[tile.index] = _Shard(
                shard_id=tile.index,
                tile=tile,
                publisher=SnapshotPublisher(start_sequence=base),
            )
        self.shards[CATCH_ALL] = _Shard(
            shard_id=CATCH_ALL,
            tile=None,
            publisher=SnapshotPublisher(start_sequence=base),
        )
        service.publisher.subscribe(self._on_publish)
        latest = service.publisher.latest()
        if latest is not None:
            self._on_publish(latest)

    # -- repartition on publish --------------------------------------------

    def _on_publish(self, published) -> None:
        """Fan one main publication out to every shard publisher."""
        with self._repartition_lock:
            if published.sequence <= self._last_main_sequence:
                return  # duplicate delivery (construction race)
            self._last_main_sequence = published.sequence
            t0 = time.perf_counter()
            parts = partition_snapshot(
                published.view.snapshot, self.layout
            )
            for sid in self.shard_ids:
                shard = self.shards[sid]
                strabon = Strabon(parts[sid])
                if shard.plan_cache is not None:
                    # Parsed plans survive repartitions: the cache is
                    # keyed on request text alone.
                    strabon.plan_cache = shard.plan_cache
                shard.plan_cache = strabon.plan_cache
                shard.strabon = strabon
                shard.publisher.publish(
                    strabon,
                    timestamp=published.timestamp,
                    trace_id=published.trace_id,
                )
            if _metrics.enabled:
                _metrics.histogram(
                    "serve_shard_repartition_seconds",
                    "Wall seconds to repartition + republish all shards",
                ).observe(time.perf_counter() - t0)
                gauge = _metrics.gauge(
                    "serve_shard_triples",
                    "Triples held per serving shard",
                )
                for sid in self.shard_ids:
                    gauge.set(len(parts[sid]), shard=str(sid))

    # -- composite consistency ---------------------------------------------

    def token(self) -> ConsistencyToken:
        """The composite consistency token over all shards, in
        :attr:`shard_ids` order."""
        parts = []
        for sid in self.shard_ids:
            latest = self.shards[sid].publisher.latest()
            parts.append(
                (0, 0)
                if latest is None
                else (latest.sequence, latest.generation)
            )
        return ConsistencyToken(tuple(parts))

    def shard_ids_for_bbox(
        self, bbox: Optional[Envelope]
    ) -> List[int]:
        """Tile shards a bbox-filtered ``/hotspots`` must consult.

        Never includes the catch-all: hotspot subjects always carry a
        geometry, so they always live in a tile shard.
        """
        return self.layout.tiles_for_bbox(bbox)

    # -- HTTP lifecycle ----------------------------------------------------

    def start_http(
        self, host: str = "127.0.0.1", read_workers: int = 2
    ) -> Dict[int, tuple]:
        """Start one HTTP server per shard; returns shard_id →
        (host, port)."""
        from repro.serve.http import serve_in_thread

        for sid in self.shard_ids:
            shard = self.shards[sid]
            if shard.handle is None:
                shard.handle = serve_in_thread(
                    _ShardService(self, sid),
                    host=host,
                    port=0,
                    read_workers=read_workers,
                )
        return self.addresses()

    def addresses(self) -> Dict[int, tuple]:
        return {
            sid: self.shards[sid].address
            for sid in self.shard_ids
            if self.shards[sid].handle is not None
        }

    def stop_http(self) -> None:
        for shard in self.shards.values():
            if shard.handle is not None:
                shard.handle.stop()
                shard.handle = None

    def health(self) -> dict:
        """Aggregate shard-tier health (the router folds this into its
        own health document)."""
        return {
            "shards": [
                _ShardService(self, sid).health()
                for sid in self.shard_ids
            ],
            "token": self.token().encode(),
            "layout": {
                "tiles_x": self.layout.tiles_x,
                "tiles_y": self.layout.tiles_y,
            },
        }

    def __enter__(self) -> "ShardManager":
        return self

    def __exit__(self, *exc) -> None:
        self.stop_http()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardManager {self.layout.tiles_x}x{self.layout.tiles_y}"
            f"+catchall token={self.token().encode()}>"
        )
