"""``ShardRouter`` — scatter-gather front end over the shard tier.

The router speaks the same v1 HTTP surface as a single
:class:`~repro.serve.http.HotspotServer` but answers by fanning out to
the per-shard servers of a :class:`~repro.serve.shard.ShardManager`
and merging:

* ``GET /v1/hotspots`` — the fan-out is **bbox-pruned**: only tile
  shards whose envelope intersects the requested bbox are consulted
  (the catch-all shard holds no geometric subjects, so it is never
  consulted here).  Per-shard GeoJSON features are concatenated and
  re-sorted by hotspot URI, so the merged collection is byte-identical
  to the single-store answer.
* ``POST /v1/stsparql`` — fans out to **all** shards (tiles plus
  catch-all) and merges under federated-union semantics: SELECT
  bindings are the multiset union, ASK is the logical OR.  Requests
  whose top level uses solution modifiers that do not distribute over
  a union (GROUP BY / HAVING / ORDER BY / LIMIT / OFFSET / aggregates)
  are refused with **422** — clients run those against a single server
  or post-process.  Subject-based partitioning keeps each subject's
  star co-located, so subject-local queries (the serving workload)
  merge exactly.

A shard that fails mid-fan-out does not fail the request: the response
is served from the surviving shards with ``provenance.degraded: true``
and the dead shards listed in ``provenance.missing_shards`` (the fault
site ``router.fanout`` lets tests kill a specific shard
deterministically).  A shard that *answers* with a 4xx — a query
timeout, a malformed request — propagates that status verbatim
instead: the error is deterministic, so the unified client contract
(408 → ``QueryTimeoutError`` etc.) holds through the router.  Every response carries the **composite**
consistency token — one ``(sequence, generation)`` part per shard, in
:attr:`ShardManager.shard_ids` order — so a client can assert the
whole tier never travels backwards in time.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple

from repro.faults import trip
from repro.obs import get_metrics, get_tracer
from repro.serve.hotspots import parse_bbox
from repro.serve.http import (
    HotspotServer,
    ServerHandle,
    _HttpError,
    _json_response,
)
from repro.serve.shard import ShardManager
from repro.stsparql import ast
from repro.stsparql.parser import parse

_tracer = get_tracer()
_metrics = get_metrics()

__all__ = ["RouterService", "ShardRouter", "serve_router_in_thread"]


def _contains_aggregate(node) -> bool:
    import dataclasses

    if isinstance(node, ast.Aggregate):
        return True
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        return any(
            _contains_aggregate(value)
            for value in vars(node).values()
        )
    if isinstance(node, (list, tuple)):
        return any(_contains_aggregate(item) for item in node)
    return False


def _undistributable(parsed) -> Optional[str]:
    """Why a parsed request cannot be answered by a federated union
    (None when it can)."""
    if isinstance(parsed, ast.AskQuery):
        return None
    if not isinstance(parsed, ast.SelectQuery):
        return (
            "only SELECT and ASK distribute over the shard union — "
            "run CONSTRUCT and updates against a single server"
        )
    if parsed.group_by or parsed.having:
        return "GROUP BY / HAVING does not distribute over shards"
    if parsed.order_by:
        return "ORDER BY does not distribute over shards"
    if parsed.limit is not None or parsed.offset:
        return "LIMIT / OFFSET does not distribute over shards"
    if any(
        _contains_aggregate(projection.expression)
        for projection in parsed.projections
    ):
        return "aggregates do not distribute over shards"
    return None


class RouterService:
    """The duck-typed ``service`` behind a :class:`ShardRouter`.

    Health is the aggregate of the main service's own health (when it
    has one) and every shard's, under the router's composite token.
    """

    def __init__(self, manager: ShardManager) -> None:
        self.manager = manager
        self.base = manager.service

    @property
    def publisher(self):
        return self.base.publisher

    @property
    def slo(self):
        return getattr(self.base, "slo", None)

    @property
    def subscriptions(self):
        """The main service's subscription engine — subscriptions are
        a write-path construct (evaluated on the main commit), so the
        router serves the same registry and stream as the main server
        rather than fanning out to shards."""
        return getattr(self.base, "subscriptions", None)

    def health(self) -> dict:
        tier = self.manager.health()
        shard_docs = tier["shards"]
        degraded = any(
            doc["status"] != "ok" for doc in shard_docs
        )
        doc = {
            "status": "degraded" if degraded else "ok",
            "role": "router",
            "token": tier["token"],
            "layout": tier["layout"],
            "shards": shard_docs,
        }
        base_health = getattr(self.base, "health", None)
        if callable(base_health):
            doc["service"] = base_health()
        return doc


class ShardRouter(HotspotServer):
    """The scatter-gather HTTP front end (see the module docstring)."""

    def __init__(
        self,
        manager: ShardManager,
        host: str = "127.0.0.1",
        port: int = 0,
        read_workers: int = 8,
    ) -> None:
        super().__init__(
            RouterService(manager),
            host=host,
            port=port,
            read_workers=read_workers,
        )
        self.manager = manager

    # -- provenance --------------------------------------------------------

    def _provenance(self, published=None, ctx=None) -> Dict[str, Any]:
        """Router provenance: composite token over *all* shards (the
        single-server sequence/generation pair has no meaning here)."""
        return self._router_provenance(ctx, None, [])

    def _router_provenance(
        self,
        ctx,
        consulted: Optional[List[dict]],
        missing: List[int],
    ) -> Dict[str, Any]:
        latest = self.manager.service.publisher.latest()
        return {
            "api": "v1",
            "role": "router",
            "token": self.manager.token().encode(),
            "sequence": None,
            "generation": None,
            "timestamp": None,
            "trace_id": None if latest is None else latest.trace_id,
            "request_trace_id": None if ctx is None else ctx.trace_id,
            "shards": consulted,
            "degraded": bool(missing),
            "missing_shards": sorted(missing),
        }

    # -- fan-out machinery -------------------------------------------------

    def _fetch_shard(
        self,
        shard_id: int,
        method: str,
        path: str,
        body: Optional[str] = None,
    ) -> dict:
        """One shard leg of a fan-out (runs on the read executor).

        A shard that *answers* with a client error (4xx — a timeout, a
        malformed query) raises :class:`_HttpError`, which the scatter
        propagates verbatim: the error is deterministic, every shard
        would say the same.  Anything else (connection refused, 5xx)
        counts as shard death and degrades the response instead.
        ``router.fanout`` is a fault site keyed by shard id, so the
        partial-failure tests can kill exactly one shard's leg.
        """
        trip("router.fanout", index=shard_id)
        address = self.manager.shards[shard_id].address
        if address is None:
            raise RuntimeError(f"shard {shard_id} has no HTTP server")
        host, port = address
        import http.client

        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status == 200:
            return json.loads(data)
        try:
            message = json.loads(data).get("error", "")
        except (json.JSONDecodeError, AttributeError):
            message = data.decode("utf-8", errors="replace")[:200]
        raise _HttpError(response.status, message)

    async def _scatter(
        self,
        shard_ids: List[int],
        method: str,
        path: str,
        body: Optional[str],
        ctx,
    ) -> Tuple[List[Tuple[int, dict]], List[int]]:
        """Fan one request out to ``shard_ids``; returns
        ``([(shard_id, payload), ...], [failed_shard_id, ...])``."""
        with _tracer.span(
            "router.fanout", shards=len(shard_ids), path=path
        ):
            tasks = [
                self._in_thread(
                    self._fetch_shard,
                    sid,
                    method,
                    path,
                    body,
                    context=ctx,
                )
                for sid in shard_ids
            ]
            outcomes = await asyncio.gather(
                *tasks, return_exceptions=True
            )
        answered: List[Tuple[int, dict]] = []
        missing: List[int] = []
        for sid, outcome in zip(shard_ids, outcomes):
            if (
                isinstance(outcome, _HttpError)
                and outcome.status < 500
            ):
                # Deterministic client error (bad query, timeout):
                # every shard would answer the same — propagate it.
                raise outcome
            if isinstance(outcome, BaseException):
                missing.append(sid)
                if _metrics.enabled:
                    _metrics.counter(
                        "router_shard_errors_total",
                        "Failed shard legs of router fan-outs",
                    ).inc(shard=str(sid))
            else:
                answered.append((sid, outcome))
        if _metrics.enabled:
            _metrics.counter(
                "router_fanout_total",
                "Router fan-outs, by endpoint",
            ).inc(endpoint=path.split("?", 1)[0])
        if not answered:
            raise _HttpError(
                503, "no shard answered — the shard tier is down"
            )
        return answered, missing

    @staticmethod
    def _shard_blocks(
        answered: List[Tuple[int, dict]]
    ) -> List[dict]:
        blocks = []
        for sid, payload in answered:
            prov = payload.get("provenance") or {}
            blocks.append(
                {
                    "shard": sid,
                    "sequence": prov.get("sequence"),
                    "generation": prov.get("generation"),
                }
            )
        return blocks

    # -- endpoints ---------------------------------------------------------

    async def _hotspots(self, query: str, ctx=None) -> bytes:
        from urllib.parse import parse_qs

        params = parse_qs(query)
        bbox_values = params.get("bbox")
        try:
            bbox = (
                None
                if not bbox_values
                else parse_bbox(bbox_values[-1])
            )
        except ValueError as error:
            raise _HttpError(400, str(error))
        # Prune the fan-out: only tiles intersecting the bbox can hold
        # matching hotspots (geometric subjects never land in the
        # catch-all), and the raw query string is forwarded verbatim so
        # every shard applies the same filters.
        shard_ids = self.manager.shard_ids_for_bbox(bbox)
        path = "/v1/hotspots" + (f"?{query}" if query else "")
        answered, missing = await self._scatter(
            shard_ids, "GET", path, None, ctx
        )
        features: List[dict] = []
        for _sid, payload in answered:
            features.extend(payload.get("features", []))
        features.sort(key=lambda f: f["properties"]["hotspot"])
        collection = {
            "type": "FeatureCollection",
            "features": features,
            "provenance": self._router_provenance(
                ctx, self._shard_blocks(answered), missing
            ),
        }
        return _json_response(200, collection)

    async def _stsparql(self, body: bytes, ctx=None) -> bytes:
        fields = self._parse_query_body(body)
        parsed = (
            parse(fields["query"])
        )  # SparqlParseError → 400 upstream
        if isinstance(parsed, ast.UpdateRequest):
            raise _HttpError(
                403,
                "the serving tier is read-only: send updates to the "
                "monitoring service",
            )
        reason = _undistributable(parsed)
        if reason is not None:
            raise _HttpError(422, reason)
        forwarded = json.dumps(
            {
                "query": fields["query"],
                "params": fields["params"],
                "explain": fields["explain"],
                "timeout_s": fields["timeout_s"],
            }
        )
        answered, missing = await self._scatter(
            list(self.manager.shard_ids),
            "POST",
            "/v1/stsparql",
            forwarded,
            ctx,
        )
        if fields["explain"]:
            payload: Dict[str, Any] = {
                "engine": "router",
                "operation": "explain",
                "rows": sum(
                    doc.get("rows", 0) for _sid, doc in answered
                ),
                "shards": {
                    str(sid): {
                        key: doc.get(key)
                        for key in (
                            "operation",
                            "rows",
                            "plan",
                        )
                    }
                    for sid, doc in answered
                },
            }
        elif isinstance(parsed, ast.AskQuery):
            payload = {
                "head": {},
                "boolean": any(
                    doc.get("boolean", False)
                    for _sid, doc in answered
                ),
            }
        else:
            # Multiset union of the per-shard SELECT bindings; the
            # variable header is the ordered union of shard headers.
            variables: List[str] = []
            bindings: List[dict] = []
            for _sid, doc in answered:
                for name in doc.get("head", {}).get("vars", []):
                    if name not in variables:
                        variables.append(name)
                bindings.extend(
                    doc.get("results", {}).get("bindings", [])
                )
            payload = {
                "head": {"vars": variables},
                "results": {"bindings": bindings},
            }
        payload["provenance"] = self._router_provenance(
            ctx, self._shard_blocks(answered), missing
        )
        return _json_response(200, payload)


def serve_router_in_thread(
    manager: ShardManager,
    host: str = "127.0.0.1",
    port: int = 0,
    read_workers: int = 8,
) -> ServerHandle:
    """Start a :class:`ShardRouter` on a daemon thread (the shard
    servers must already be up — see
    :meth:`ShardManager.start_http`)."""
    from repro.serve.http import spawn_server

    router = ShardRouter(
        manager, host=host, port=port, read_workers=read_workers
    )
    return spawn_server(router, "shard-router")
