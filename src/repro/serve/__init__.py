"""``repro.serve`` — the scale-out read path of the monitoring service.

The paper's service ends at dissemination: shapefiles and overlay maps
pushed to GeoServer.  This package is the modern equivalent for the
"millions of users" target — a serving layer that answers hotspot
queries from immutable, atomically-published snapshots of the Strabon
store while the ingest/refinement writer keeps running:

* :class:`SnapshotPublisher` / :class:`PublishedSnapshot` — the
  single-writer → many-reader hand-off, and
  :class:`ConsistencyToken` — the opaque comparable stamp every served
  response carries (``repro.serve.state``),
* :class:`HotspotTable` / :func:`query_hotspots` — the per-publication
  hotspot table and the filter over it that answers ``/v1/hotspots``
  (``repro.serve.hotspots``),
* :class:`HotspotServer` / :func:`serve_in_thread` — the stdlib-only
  asyncio HTTP endpoint; every route lives under ``/v1/`` and answers
  from the latest publication — hotspot-table reads on the event loop,
  stSPARQL on its thread pool (``repro.serve.http``),
* :class:`ShardManager` / :class:`TileLayout` — spatial partitioning
  of the published store by target-grid tile, one engine + publisher
  per shard (``repro.serve.shard``),
* :class:`ShardRouter` / :func:`serve_router_in_thread` — the
  scatter-gather front end with bbox-pruned fan-out and composite
  consistency tokens (``repro.serve.router``),
* :class:`ServeClient` — the one HTTP client, speaking the same
  ``query(text, params=, explain=, timeout=)`` contract
  as the in-process engines, plus subscription CRUD and an
  :class:`SseStream` reader (``repro.serve.client``),
* :class:`SubscriptionEngine` / :class:`Subscription` — continuous
  stSPARQL subscriptions with incremental per-commit evaluation and
  durable exactly-once delivery (``repro.serve.subscribe``),
* :class:`SseHub` — the push fan-out bridging the writer thread to
  ``/v1/stream`` SSE channels (``repro.serve.sse``).
"""

from repro.serve.client import ServeClient, ServeError, SseStream
from repro.serve.hotspots import (
    HotspotTable,
    parse_bbox,
    parse_instant,
    query_hotspots,
)
from repro.serve.http import HotspotServer, ServerHandle, serve_in_thread
from repro.serve.router import (
    RouterService,
    ShardRouter,
    serve_router_in_thread,
)
from repro.serve.shard import (
    CATCH_ALL,
    ShardManager,
    Tile,
    TileLayout,
    partition_snapshot,
)
from repro.serve.sse import SseChannel, SseHub
from repro.serve.state import (
    ConsistencyToken,
    PublishedSnapshot,
    SnapshotPublisher,
)
from repro.serve.subscribe import (
    Subscription,
    SubscriptionEngine,
    SubscriptionError,
    SubscriptionRegistry,
)

__all__ = [
    "CATCH_ALL",
    "ConsistencyToken",
    "HotspotServer",
    "HotspotTable",
    "PublishedSnapshot",
    "RouterService",
    "ServeClient",
    "ServeError",
    "ServerHandle",
    "ShardManager",
    "ShardRouter",
    "SnapshotPublisher",
    "SseChannel",
    "SseHub",
    "SseStream",
    "Subscription",
    "SubscriptionEngine",
    "SubscriptionError",
    "SubscriptionRegistry",
    "Tile",
    "TileLayout",
    "parse_bbox",
    "parse_instant",
    "partition_snapshot",
    "query_hotspots",
    "serve_in_thread",
    "serve_router_in_thread",
]
