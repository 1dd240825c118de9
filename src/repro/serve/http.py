"""``HotspotServer`` — the stdlib-only HTTP face of the serving layer.

A minimal asyncio HTTP/1.1 server (no third-party framework; the
container images this repo targets carry only the standard library)
exposing its endpoints under ``/v1/`` (any other path answers
**404**):

* ``GET /v1/hotspots`` — surviving hotspots of the **latest published
  snapshot** as GeoJSON, filtered from the publication's hotspot
  table; query parameters ``bbox=minx,miny,maxx,maxy``,
  ``since=`` / ``until=`` (xsd:dateTime), ``min_confidence=``,
  ``confirmed=true|false`` and ``static=true|false`` (static heat
  sources — refineries — flagged by the federation) filter the
  features.
* ``POST /v1/stsparql`` — a read-only stSPARQL endpoint over the same
  snapshot (body: the query text, or JSON ``{"query": ..., "params":
  ..., "explain": ..., "timeout_s": ...}`` — the same keyword contract
  as :meth:`Strabon.query`).  Updates are refused
  with **403** — writes go through the monitoring service, never
  through the serving layer; a request overrunning its deadline —
  ``timeout_s``, never more than :data:`READ_DEADLINE_S` — answers
  **408**.
* ``GET /v1/metrics`` — the Prometheus exposition of the process
  registry.
* ``GET /v1/health`` — the monitoring service's degradation status
  (acquisition outcome counts, circuit-breaker state, dead letters,
  deadline misses, SLO burn rates, latest snapshot identity).
* ``GET /v1/debug/tracez`` — recent complete distributed traces from
  the process tracer (``limit=``, ``trace_id=``, ``format=text``), for
  correlating a served ``trace_id`` back to the acquisition that
  produced the data.

Every data-bearing response carries a normalised ``provenance`` block:
the opaque consistency ``token`` (see
:class:`~repro.serve.state.ConsistencyToken`) plus its sequence /
generation parts, the publishing acquisition's ``trace_id``, the
request's own ``request_trace_id``, and the scatter-gather fields
(``shards`` / ``degraded`` / ``missing_shards``) the sharded router
fills in.  The pre-v1 ``snapshot`` block is retained for
compatibility.

Every request runs under a ``serve.request`` span that joins the trace
named by incoming ``x-trace-id`` / ``x-parent-span`` headers (or roots
a fresh one); responses carrying a snapshot embed both the publishing
acquisition's ``trace_id`` and the request's own ``request_trace_id``.

Where a request runs follows what it costs.  Reads are answered on the
event loop: ``/v1/hotspots`` is a filter over the publication's
already-encoded hotspot table, and ``/v1/stsparql`` evaluates on the
publication's frozen view under a deadline that every engine operator
and the result encoding check (:data:`READ_DEADLINE_S` at most), so no
read holds the loop much past it.  A SELECT the publication already
answered (same text, same ``params``) is answered from the encoded
document it keeps (``PublishedSnapshot.answers``), with no engine call,
whatever its deadline.  A thread hand-off would cost more
than it spares: the cross-thread wake-up about doubled an overlay
SELECT's latency.  What blocks instead of
computing runs on a thread pool (``read_workers`` wide): the
subscription writes (register, remove and ack append to the registry
log with an fsync), ``/v1/health`` (the report waits on the
subscription engine's cursor lock, which an ack holds across its
fsync) and, on the router, the fan-out legs (each waits on a shard's
HTTP answer).  Every request is answered from one
atomically-published :class:`~repro.serve.state.PublishedSnapshot`, so
a response can never observe half-refined acquisition state.

:func:`serve_in_thread` runs the whole server (loop included) on a
daemon thread — the shape tests, examples and the load benchmark use.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import SnapshotWriteError
from repro.obs import (
    TraceContext,
    context_of,
    get_flight_recorder,
    get_metrics,
    get_tracer,
    prometheus_text,
    recent_traces,
)
from repro.obs.slo import SERVE_LATENCY_SLO_S
from repro.serve.hotspots import (
    _stamp,
    collection_bytes,
    parse_bbox,
    parse_instant,
    query_hotspots,
)
from repro.serve.sse import (
    SseHub,
    format_batch,
    format_comment,
    frame_sequence,
)
from repro.serve.state import ANSWER_MEMO_LARGEST, ConsistencyToken
from repro.serve.subscribe import SubscriptionError
from repro.stsparql.errors import QueryTimeoutError, SparqlError
from repro.stsparql.eval import SolutionSet

_tracer = get_tracer()
_metrics = get_metrics()

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Content Too Large",
    422: "Unprocessable Entity",
    503: "Service Unavailable",
}

#: Seconds of stream silence before a keep-alive comment is emitted.
STREAM_KEEPALIVE_S = 15.0

#: Request bodies beyond this are refused (a read endpoint has no
#: business accepting megabytes).
MAX_BODY_BYTES = 1 << 20

#: Longest an ``/v1/stsparql`` read may run, in seconds: it holds the
#: event loop, and every connection and stream with it, for that long.
#: 4x the serving latency objective and ~100x the slowest Figure-6
#: overlay; a request's ``timeout_s`` can only lower it.
READ_DEADLINE_S = 1.0


class _HttpError(Exception):
    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Dict[str, str]] = None,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if extra_headers:
        head += "".join(
            f"{name}: {value}\r\n"
            for name, value in extra_headers.items()
        )
    return head.encode("ascii") + b"\r\n" + body


def _json_response(status: int, payload: Any) -> bytes:
    return _response(
        status, json.dumps(payload).encode("utf-8"), "application/json"
    )


class HotspotServer:
    """Serve the latest published snapshot over HTTP.

    ``service`` is duck-typed: it must expose a ``publisher`` (a
    :class:`~repro.serve.state.SnapshotPublisher`) and a ``health()``
    returning a JSON-serialisable dict — a
    :class:`~repro.core.service.FireMonitoringService` in teleios mode,
    or any stand-in with the same two attributes.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        read_workers: int = 4,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.read_workers = read_workers
        self._executor = ThreadPoolExecutor(
            max_workers=read_workers, thread_name_prefix="serve-read"
        )
        self._server: Optional[asyncio.AbstractServer] = None
        #: (host, port) actually bound — resolved once started (port=0
        #: asks the kernel for a free one).
        self.address: Optional[Tuple[str, int]] = None
        #: SSE fan-out hub — attached to the service's subscription
        #: engine lazily, on the first ``/v1/stream`` connection.
        self.sse = SseHub()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._executor.shutdown(wait=False)

    @property
    def url(self) -> str:
        if self.address is None:
            raise RuntimeError("server is not started")
        return f"http://{self.address[0]}:{self.address[1]}"

    # -- connection handling -----------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _HttpError as error:
                    # Unparsable framing: the stream position is lost,
                    # so answer and close instead of reading on.
                    writer.write(
                        _response(
                            error.status,
                            json.dumps({"error": str(error)}).encode(
                                "utf-8"
                            ),
                            extra_headers={"Connection": "close"},
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, target, headers, body = request
                path = urlsplit(target).path.rstrip("/") or "/"
                if method == "GET" and path == "/v1/stream":
                    # SSE: the response never ends, so the stream
                    # handler owns the writer; the connection is
                    # dedicated (no keep-alive reuse after it).
                    await self._stream(writer, target, headers)
                    break
                payload = await self._dispatch(
                    method, target, headers, body
                )
                writer.write(payload)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        except asyncio.CancelledError:
            # Server shutdown cancels connections parked between
            # requests.  The task is the connection's own, so it ends
            # here: a cancelled one would make asyncio's stream
            # callback log the cancellation as an error.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader) -> bytes:
        try:
            return await reader.readline()
        except ValueError:  # the line overran the reader's limit
            raise _HttpError(400, "request line or header too long")

    async def _read_request(self, reader: asyncio.StreamReader):
        """One request as ``(method, target, headers, body)``; None at
        end of stream.  Framing the server cannot follow — an overlong
        line, a malformed ``Content-Length``, a body over
        ``MAX_BODY_BYTES`` — raises :class:`_HttpError` (400 / 413)."""
        line = await self._read_line(reader)
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, _version = (
                line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            return None
        headers: Dict[str, str] = {}
        while True:
            header = await self._read_line(reader)
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length_text = headers.get("content-length", "0") or "0"
        if not (length_text.isascii() and length_text.isdigit()):
            raise _HttpError(
                400, f"bad Content-Length: {length_text[:64]!r}"
            )
        length = int(length_text)
        if length > MAX_BODY_BYTES:
            raise _HttpError(
                413, f"request body over {MAX_BODY_BYTES} bytes"
            )
        body = await reader.readexactly(length) if length else b""
        return method.upper(), target, headers, body

    # -- routing -----------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> bytes:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        versioned = path == "/v1" or path.startswith("/v1/")
        route = (path[len("/v1"):] or "/") if versioned else path
        endpoint = route.lstrip("/") or "root"
        started = time.perf_counter()
        # A client sending x-trace-id / x-parent-span joins its trace;
        # otherwise the request span roots a fresh one.
        incoming = TraceContext.from_headers(headers)
        trace_id: Optional[str] = None
        try:
            with _tracer.use_context(incoming):
                with _tracer.span(
                    "serve.request", endpoint=endpoint, method=method
                ) as span:
                    trace_id = span.trace_id
                    if not versioned:
                        raise _HttpError(
                            404, f"no such endpoint: {path}"
                        )
                    status, payload = await self._route(
                        method,
                        route,
                        split.query,
                        body,
                        context_of(span),
                    )
                    span.set(status=status)
        except _HttpError as error:
            status = error.status
            payload = _json_response(status, {"error": str(error)})
        except SubscriptionError as error:
            status = 422
            payload = _json_response(status, {"error": str(error)})
        except SnapshotWriteError as error:
            status = 403
            payload = _json_response(status, {"error": str(error)})
        except QueryTimeoutError as error:
            status = 408
            payload = _json_response(
                status, {"error": f"{type(error).__name__}: {error}"}
            )
        except SparqlError as error:
            status = 400
            payload = _json_response(
                status, {"error": f"{type(error).__name__}: {error}"}
            )
        except Exception as error:  # noqa: BLE001 — 500, never a crash
            status = 500
            payload = _response(
                500,
                json.dumps(
                    {"error": f"{type(error).__name__}: {error}"}
                ).encode("utf-8"),
            )
            get_flight_recorder().record(
                "error",
                f"serve.{endpoint}",
                trace_id=trace_id,
                error=f"{type(error).__name__}: {error}",
            )
        elapsed = time.perf_counter() - started
        if _metrics.enabled:
            _metrics.counter(
                "serve_requests_total",
                "HTTP requests served, by endpoint and status",
            ).inc(endpoint=endpoint, status=str(status))
            _metrics.histogram(
                "serve_request_seconds",
                "Wall seconds per HTTP request, by endpoint",
            ).observe(elapsed, exemplar=trace_id, endpoint=endpoint)
        # Only reader-facing data requests consume the serving error
        # budget — health probes, metric scrapes and debug views are
        # not the objective (and /health reporting its own request
        # would make the report a moving target).
        if versioned and route in ("/hotspots", "/stsparql"):
            self._record_serving_slo(status, elapsed, trace_id)
        return payload

    def _record_serving_slo(
        self, status: int, elapsed: float, trace_id: Optional[str]
    ) -> None:
        slo = getattr(self.service, "slo", None)
        if slo is None:
            return
        try:
            slo.record(
                "serving-latency",
                status < 500 and elapsed < SERVE_LATENCY_SLO_S,
                trace_id=trace_id,
            )
        except KeyError:  # a stand-in service without that SLO
            pass

    async def _route(
        self, method: str, path: str, query: str, body: bytes, ctx
    ) -> Tuple[int, bytes]:
        if path == "/hotspots":
            if method != "GET":
                raise _HttpError(405, "use GET /hotspots")
            return 200, await self._hotspots(query, ctx)
        if path == "/stsparql":
            if method != "POST":
                raise _HttpError(405, "use POST /stsparql")
            return 200, await self._stsparql(body, ctx)
        if path == "/metrics":
            if method != "GET":
                raise _HttpError(405, "use GET /metrics")
            text = prometheus_text(_metrics)
            return 200, _response(
                200,
                text.encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        if path == "/health":
            if method != "GET":
                raise _HttpError(405, "use GET /health")
            health = await self._in_thread(self.service.health)
            latest = self.service.publisher.latest()
            health["provenance"] = (
                None
                if latest is None
                else self._provenance(latest, ctx)
            )
            return 200, _json_response(200, health)
        if path == "/debug/tracez":
            if method != "GET":
                raise _HttpError(405, "use GET /debug/tracez")
            return 200, self._tracez(query, ctx)
        if path == "/subscriptions" or path.startswith(
            "/subscriptions/"
        ):
            return await self._subscriptions(method, path, body, ctx)
        if path == "/stream":
            # GET /stream never reaches _route (the connection handler
            # takes it over); anything else here is a method error.
            raise _HttpError(405, "use GET /stream (SSE)")
        raise _HttpError(404, f"no such endpoint: {path}")

    # -- endpoint bodies ---------------------------------------------------

    def _in_thread(self, fn, *args, context=None):
        """Run ``fn`` on the thread pool, under the request's trace
        context (worker threads have no ambient request state).

        Only for work that blocks rather than computes — an fsync, a
        lock the writer holds, a shard's HTTP answer: reads compute,
        under a deadline, on the loop, which a hand-off would cost more
        than it spares."""
        if context is None:
            return asyncio.get_running_loop().run_in_executor(
                self._executor, fn, *args
            )

        def call():
            with _tracer.use_context(context):
                return fn(*args)

        return asyncio.get_running_loop().run_in_executor(
            self._executor, call
        )

    def _latest(self):
        published = self.service.publisher.latest()
        if published is None:
            raise _HttpError(
                503, "no snapshot published yet — ingest is warming up"
            )
        return published

    def _provenance(self, published, ctx=None) -> Dict[str, Any]:
        """The normalised v1 provenance block every data-bearing
        response carries: which frozen state answered (as an opaque
        consistency token plus its parts), which acquisition trace
        produced it, and — for routed responses — which shards were
        consulted and whether any were missing."""
        token = ConsistencyToken.single(
            published.sequence, published.generation
        )
        return {
            "api": "v1",
            "role": "server",
            "token": token.encode(),
            "sequence": published.sequence,
            "generation": published.generation,
            "timestamp": None
            if published.timestamp is None
            else _stamp(published.timestamp),
            "trace_id": published.trace_id,
            "request_trace_id": None if ctx is None else ctx.trace_id,
            "shards": None,
            "degraded": False,
            "missing_shards": [],
            # Per-source federation reports of the publishing
            # acquisition (empty without a federation): a reader can
            # see right in the provenance that e.g. the polar feed was
            # out when this state was produced.
            "sources": list(getattr(published, "sources", ()) or ()),
        }

    # -- subscriptions -----------------------------------------------------

    def _engine(self):
        engine = getattr(self.service, "subscriptions", None)
        if engine is None:
            raise _HttpError(
                404, "subscriptions are not enabled on this service"
            )
        return engine

    @staticmethod
    def _parse_json_body(body: bytes) -> Dict[str, Any]:
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HttpError(400, "body must be a JSON object")
        if not isinstance(doc, dict):
            raise _HttpError(400, "body must be a JSON object")
        return doc

    @staticmethod
    def _subscription_doc(engine, sub) -> Dict[str, Any]:
        doc = sub.to_dict()
        doc["cursor"] = engine.cursor(sub.id)
        return doc

    async def _subscriptions(
        self, method: str, path: str, body: bytes, ctx
    ) -> Tuple[int, bytes]:
        engine = self._engine()
        parts = [p for p in path.split("/") if p]
        if len(parts) == 1:
            if method == "GET":
                subs = engine.registry.list()
                return 200, _json_response(
                    200,
                    {
                        "count": len(subs),
                        "subscriptions": [
                            self._subscription_doc(engine, s)
                            for s in subs
                        ],
                    },
                )
            if method == "POST":
                doc = self._parse_json_body(body)
                # Registration primes against the latest snapshot (a
                # scan) — keep it off the event loop.
                sub = await self._in_thread(
                    engine.register, doc, context=ctx
                )
                return 201, _json_response(
                    201, self._subscription_doc(engine, sub)
                )
            raise _HttpError(405, "use GET or POST /subscriptions")
        sub_id = parts[1]
        if len(parts) == 2:
            if method == "GET":
                sub = engine.registry.get(sub_id)
                if sub is None:
                    raise _HttpError(
                        404, f"no such subscription: {sub_id}"
                    )
                return 200, _json_response(
                    200, self._subscription_doc(engine, sub)
                )
            if method == "DELETE":
                removed = await self._in_thread(
                    engine.remove, sub_id, context=ctx
                )
                if not removed:
                    raise _HttpError(
                        404, f"no such subscription: {sub_id}"
                    )
                return 200, _json_response(
                    200, {"removed": sub_id}
                )
            raise _HttpError(
                405, "use GET or DELETE /subscriptions/<id>"
            )
        if len(parts) == 3 and parts[2] == "ack":
            if method != "POST":
                raise _HttpError(
                    405, "use POST /subscriptions/<id>/ack"
                )
            if engine.registry.get(sub_id) is None:
                raise _HttpError(
                    404, f"no such subscription: {sub_id}"
                )
            sequence = self._parse_json_body(body).get("sequence")
            # bool is an int subclass: JSON true is not cursor 1.
            if (
                not isinstance(sequence, int)
                or isinstance(sequence, bool)
                or sequence < 0
            ):
                raise _HttpError(
                    400, 'ack body must be {"sequence": <int >= 0>}'
                )
            # The durable ack appends a registry-log record with an
            # fsync: off the event loop, like register and remove.
            cursor = await self._in_thread(
                engine.ack, sub_id, sequence, context=ctx
            )
            return 200, _json_response(
                200, {"subscription": sub_id, "cursor": cursor}
            )
        raise _HttpError(404, f"no such endpoint: {path}")

    async def _stream(self, writer, target: str, headers) -> None:
        """``GET /v1/stream?subscription=<id>[&cursor=N]`` — SSE.

        Resume order: explicit ``cursor=`` beats ``Last-Event-ID``
        beats the durable acknowledged cursor.  The channel registers
        on the hub *before* the log replay, and live frames whose
        sequence the replay already covered are dropped, so the
        hand-off from replayed history to live delivery has no gap and
        no duplicate.
        """
        split = urlsplit(target)
        params = parse_qs(split.query)

        def single(name: str) -> Optional[str]:
            values = params.get(name)
            return values[-1] if values else None

        status = 200
        try:
            engine = self._engine()
            sub_id = single("subscription")
            if not sub_id:
                raise _HttpError(
                    400, "subscription= query parameter is required"
                )
            if engine.registry.get(sub_id) is None:
                raise _HttpError(
                    404, f"no such subscription: {sub_id}"
                )
            cursor_text = single("cursor")
            if cursor_text is None:
                cursor_text = headers.get("last-event-id")
            if cursor_text is not None:
                try:
                    cursor = int(cursor_text)
                except ValueError:
                    raise _HttpError(
                        400, f"bad cursor: {cursor_text!r}"
                    )
            else:
                cursor = engine.cursor(sub_id)
        except _HttpError as error:
            status = error.status
            writer.write(
                _json_response(status, {"error": str(error)})
            )
            await writer.drain()
            if _metrics.enabled:
                _metrics.counter(
                    "serve_requests_total",
                    "HTTP requests served, by endpoint and status",
                ).inc(endpoint="stream", status=str(status))
            return
        if _metrics.enabled:
            _metrics.counter(
                "serve_requests_total",
                "HTTP requests served, by endpoint and status",
            ).inc(endpoint="stream", status="200")
        self.sse.attach(engine)
        channel = self.sse.register(sub_id)
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            last = cursor
            for batch in engine.replay_after(cursor):
                for frame in format_batch(
                    batch, subscription_id=sub_id
                ):
                    writer.write(frame)
                last = max(last, batch.sequence)
            await writer.drain()
            while True:
                try:
                    frame = await asyncio.wait_for(
                        channel.queue.get(),
                        timeout=STREAM_KEEPALIVE_S,
                    )
                except asyncio.TimeoutError:
                    writer.write(format_comment())
                    await writer.drain()
                    continue
                sequence = frame_sequence(frame)
                if sequence is not None and sequence <= last:
                    continue  # the log replay already covered it
                writer.write(frame)
                await writer.drain()
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.CancelledError,
        ):
            pass
        finally:
            self.sse.unregister(channel)

    def _tracez(self, query: str, ctx=None) -> bytes:
        """Recent complete traces (``/debug/tracez``).

        Query parameters: ``limit=`` (default 20), ``trace_id=`` to
        filter to one trace, ``format=text`` for the human tree
        rendering instead of JSON.
        """
        params = parse_qs(query)

        def single(name: str) -> Optional[str]:
            values = params.get(name)
            return values[-1] if values else None

        try:
            limit = int(single("limit") or "20")
        except ValueError as error:
            raise _HttpError(400, f"bad limit: {error}")
        if limit < 1:
            raise _HttpError(400, "limit must be >= 1")
        traces = recent_traces(
            _tracer, limit=limit, trace_id=single("trace_id")
        )
        if single("format") == "text":
            blocks = [
                f"trace {t['trace_id']} ({t['span_count']} span(s), "
                f"{t['status']})\n{t['tree']}"
                for t in traces
            ]
            return _response(
                200,
                ("\n\n".join(blocks) + "\n").encode("utf-8"),
                "text/plain; charset=utf-8",
            )
        latest = self.service.publisher.latest()
        return _json_response(
            200,
            {
                "tracing_enabled": _tracer.enabled,
                "count": len(traces),
                "traces": traces,
                "provenance": None
                if latest is None
                else self._provenance(latest, ctx),
            },
        )

    async def _hotspots(self, query: str, ctx=None) -> bytes:
        params = parse_qs(query)

        def single(name: str) -> Optional[str]:
            values = params.get(name)
            return values[-1] if values else None

        try:
            bbox_text = single("bbox")
            bbox = None if bbox_text is None else parse_bbox(bbox_text)
            conf_text = single("min_confidence")
            min_confidence = (
                None if conf_text is None else float(conf_text)
            )
            if min_confidence is not None and not math.isfinite(
                min_confidence
            ):
                raise ValueError("min_confidence must be finite")
            since_text, until_text = single("since"), single("until")
            since = (
                None if since_text is None else parse_instant(since_text)
            )
            until = (
                None if until_text is None else parse_instant(until_text)
            )
        except ValueError as error:
            raise _HttpError(400, str(error))
        def flag(name: str) -> Optional[bool]:
            text = single(name)
            if text is None:
                return None
            lowered = text.lower()
            if lowered not in ("true", "false", "1", "0"):
                raise _HttpError(
                    400, f"{name} must be true/false, got {text!r}"
                )
            return lowered in ("true", "1")

        confirmed = flag("confirmed")
        static = flag("static")
        published = self._latest()
        # On the loop, inside the request's span: the filter over the
        # publication's encoded table costs less than a pool hop.
        # Called through this module's name, so a wrapper bound to
        # ``http.query_hotspots`` (the traced benchmark) sees reads.
        collection = query_hotspots(
            published,
            bbox=bbox,
            since=since,
            until=until,
            min_confidence=min_confidence,
            confirmed=confirmed,
            static=static,
        )
        if ctx is not None:
            # Provenance both ways: the publishing acquisition's trace
            # (set by query_hotspots) plus this request's own.
            collection["snapshot"]["request_trace_id"] = ctx.trace_id
        collection["provenance"] = self._provenance(published, ctx)
        return _response(200, collection_bytes(collection))

    @staticmethod
    def _parse_query_body(body: bytes) -> Dict[str, Any]:
        """Decode an ``/stsparql`` request body into the unified query
        contract: raw query text, or JSON ``{"query": ..., "params":
        ..., "explain": ..., "timeout_s": ...}`` — field-for-field the
        keywords of :meth:`Strabon.query`."""
        text = body.decode("utf-8", errors="replace").strip()
        fields: Dict[str, Any] = {
            "query": text,
            "params": None,
            "explain": False,
            "timeout_s": None,
        }
        if text.startswith("{"):
            try:
                doc = json.loads(text)
                fields["query"] = doc["query"]
                fields["params"] = doc.get("params")
                fields["explain"] = bool(doc.get("explain", False))
                fields["timeout_s"] = doc.get("timeout_s")
            except (json.JSONDecodeError, KeyError, TypeError):
                raise _HttpError(
                    400, 'JSON body must look like {"query": "..."}'
                )
        if not isinstance(fields["query"], str):
            raise _HttpError(400, "query must be a string")
        if not fields["query"]:
            raise _HttpError(400, "empty query")
        params = fields["params"]
        if params is not None and not isinstance(params, dict):
            raise _HttpError(400, "params must be a JSON object")
        timeout_s = fields["timeout_s"]
        if timeout_s is not None:
            try:
                seconds = float(timeout_s)
            except (TypeError, ValueError):
                seconds = math.nan
            # NaN would never expire, inf never fires, true is not 1 s.
            if (
                isinstance(timeout_s, bool)
                or not math.isfinite(seconds)
                or seconds <= 0
            ):
                raise _HttpError(
                    400, "timeout_s must be a finite number > 0"
                )
            fields["timeout_s"] = seconds
        return fields

    async def _stsparql(self, body: bytes, ctx=None) -> bytes:
        fields = self._parse_query_body(body)
        explain = fields["explain"]
        published = self._latest()
        snapshot = {
            "sequence": published.sequence,
            "generation": published.generation,
            "trace_id": published.trace_id,
        }
        if ctx is not None:
            snapshot["request_trace_id"] = ctx.trace_id
        members = {
            "snapshot": snapshot,
            "provenance": self._provenance(published, ctx),
        }
        # A SELECT this publication already answered is answered from
        # its memo: no parse, plan, evaluation or encoding.  The key
        # leaves out timeout_s, which bounds the work, not the answer.
        key = (fields["query"], _params_key(fields["params"]))
        if not explain:
            document = published.answers.get(key)
            if _metrics.enabled:
                _metrics.counter(
                    "stsparql_answer_memo_hits_total"
                    if document is not None
                    else "stsparql_answer_memo_misses_total",
                    "/v1/stsparql reads answered from (or missing) "
                    "the publication's answer memo",
                ).inc()
            if document is not None:
                return _select_response(document, members)
        timeout_s = fields["timeout_s"]
        budget = (
            READ_DEADLINE_S
            if timeout_s is None
            else min(timeout_s, READ_DEADLINE_S)
        )
        deadline = time.perf_counter() + budget
        # On the loop, inside the request's span: the engine and the
        # encoding below check the deadline, so the stall is bounded.
        result = published.view.query(
            fields["query"],
            params=fields["params"],
            explain=explain,
            timeout=budget,
        )
        if isinstance(result, SolutionSet) and not explain:
            # The solutions are encoded under the deadline; the
            # provenance members are appended to the encoded document.
            document = result.sparql_json_bytes(deadline)
            if len(document) <= ANSWER_MEMO_LARGEST:
                published.answers.put(key, document)
            return _select_response(document, members)
        if explain:
            # The executed plan (engine, join order, estimates), not
            # the solutions.
            payload: Dict[str, Any] = dict(result)
        elif isinstance(result, bool):
            payload = {"head": {}, "boolean": result}
        else:  # CONSTRUCT — triple count only over HTTP
            payload = {"triples": len(result)}
        payload.update(members)
        return _json_response(200, payload)


def _params_key(params: Optional[Dict[str, Any]]) -> str:
    """``params`` in one canonical text (``""`` without them)."""
    return "" if params is None else json.dumps(params, sort_keys=True)


def _select_response(document: bytes, members: Dict[str, Any]) -> bytes:
    """A SELECT's encoded SPARQL-JSON document with this request's
    ``snapshot`` and ``provenance`` members appended."""
    tail = json.dumps(members).encode("utf-8")
    return _response(200, document[:-1] + b", " + tail[1:])


class ServerHandle:
    """A running :class:`HotspotServer` on a background thread."""

    def __init__(self, server: HotspotServer, thread: threading.Thread,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def address(self) -> Tuple[str, int]:
        assert self.server.address is not None
        return self.server.address

    def stop(self) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            ).result(timeout=10)
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=10)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve_in_thread(
    service,
    host: str = "127.0.0.1",
    port: int = 0,
    read_workers: int = 4,
) -> ServerHandle:
    """Start a :class:`HotspotServer` (and its event loop) on a daemon
    thread; returns once the socket is bound."""
    server = HotspotServer(
        service, host=host, port=port, read_workers=read_workers
    )
    return spawn_server(server, "hotspot-server")


def spawn_server(
    server: HotspotServer, thread_name: str
) -> ServerHandle:
    """Run an already-built server (or subclass — the router) with its
    own event loop on a daemon thread; returns once bound."""
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def runner() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        try:
            loop.run_forever()
        finally:
            # Open keep-alive connections are still parked in
            # readline(); cancel them and let the cancellations land
            # before the loop closes.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()

    thread = threading.Thread(
        target=runner, name=thread_name, daemon=True
    )
    thread.start()
    if not started.wait(timeout=10):
        raise RuntimeError(f"{thread_name} failed to start in 10s")
    return ServerHandle(server, thread, loop)
