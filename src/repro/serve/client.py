"""``ServeClient`` — the HTTP face of the unified query contract.

One keyword surface serves every tier: ``query(text, params=,
explain=, timeout=)`` means the same thing on a live
:class:`~repro.stsparql.Strabon`, on a frozen
:class:`~repro.stsparql.SnapshotView`, and — through this client — on
a remote ``HotspotServer`` or sharded ``ShardRouter``.  The client
speaks the v1 endpoints, and error statuses map back onto the same
exception types the in-process engines raise (403 →
:class:`~repro.errors.SnapshotWriteError`, 408 →
:class:`~repro.stsparql.errors.QueryTimeoutError`, other 4xx →
:class:`~repro.stsparql.errors.SparqlError`), so calling code does not
branch on which tier answered.

Results come back as the raw JSON payloads (SPARQL results JSON for
SELECT/ASK, GeoJSON for hotspots), each carrying the normalised
``provenance`` block with its consistency token.
"""

from __future__ import annotations

import http.client
import json
from typing import Any, Dict, Optional

from repro.errors import SnapshotWriteError
from repro.stsparql.errors import QueryTimeoutError, SparqlError

__all__ = ["ServeClient", "ServeError", "SseStream"]


class ServeError(RuntimeError):
    """A non-2xx answer the client could not map to an engine error."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """A small stdlib HTTP client for the v1 serving surface."""

    def __init__(
        self, host: str, port: int, timeout: float = 30.0
    ) -> None:
        self.host = host
        self.port = port
        self._http_timeout = timeout

    @classmethod
    def for_handle(cls, handle) -> "ServeClient":
        """A client for a running
        :class:`~repro.serve.http.ServerHandle`."""
        host, port = handle.address
        return cls(host, port)

    # -- transport ---------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[str] = None,
    ) -> dict:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self._http_timeout
        )
        try:
            conn.request(method, path, body=body)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status in (200, 201):
            return json.loads(data)
        try:
            message = json.loads(data).get("error", "")
        except (json.JSONDecodeError, AttributeError):
            message = data.decode("utf-8", errors="replace")[:200]
        if response.status == 403:
            raise SnapshotWriteError(message)
        if response.status == 408:
            raise QueryTimeoutError(message)
        if response.status == 422 and path.startswith(
            "/v1/subscriptions"
        ):
            from repro.serve.subscribe import SubscriptionError

            raise SubscriptionError(message)
        if response.status in (400, 422):
            raise SparqlError(message)
        raise ServeError(response.status, message)

    # -- the unified query contract ----------------------------------------

    def query(
        self,
        text: str,
        params: Optional[Dict[str, object]] = None,
        explain: bool = False,
        timeout: Optional[float] = None,
    ) -> dict:
        """POST an stSPARQL read to ``/v1/stsparql``.

        Same keywords as :meth:`Strabon.query` /
        :meth:`SnapshotView.query`; the result is the SPARQL results
        JSON (or the explain document) with the ``provenance`` block
        attached.
        """
        body = json.dumps(
            {
                "query": text,
                "params": params,
                "explain": explain,
                "timeout_s": timeout,
            }
        )
        return self._request("POST", "/v1/stsparql", body)

    def hotspots(
        self,
        bbox=None,
        since: Optional[str] = None,
        until: Optional[str] = None,
        min_confidence: Optional[float] = None,
        confirmed: Optional[bool] = None,
        static: Optional[bool] = None,
    ) -> dict:
        """GET ``/v1/hotspots`` with the standard filters; ``bbox`` is
        an :class:`~repro.geometry.Envelope` or a
        ``"minx,miny,maxx,maxy"`` string."""
        query: Dict[str, Any] = {}
        if bbox is not None:
            if hasattr(bbox, "minx"):
                bbox = (
                    f"{bbox.minx},{bbox.miny},{bbox.maxx},{bbox.maxy}"
                )
            query["bbox"] = bbox
        if since is not None:
            query["since"] = since
        if until is not None:
            query["until"] = until
        if min_confidence is not None:
            query["min_confidence"] = str(min_confidence)
        if confirmed is not None:
            query["confirmed"] = "true" if confirmed else "false"
        if static is not None:
            query["static"] = "true" if static else "false"
        path = "/v1/hotspots"
        if query:
            from urllib.parse import urlencode

            path += "?" + urlencode(query)
        return self._request("GET", path)

    # -- subscriptions -----------------------------------------------------

    def subscribe(self, doc: Dict[str, Any]) -> dict:
        """Register a subscription (``POST /v1/subscriptions``);
        returns the stored document, id and cursor included."""
        return self._request(
            "POST", "/v1/subscriptions", json.dumps(doc)
        )

    def subscriptions(self) -> dict:
        return self._request("GET", "/v1/subscriptions")

    def subscription(self, sub_id: str) -> dict:
        """One subscription's stored document, cursor included."""
        return self._request("GET", f"/v1/subscriptions/{sub_id}")

    def unsubscribe(self, sub_id: str) -> dict:
        return self._request(
            "DELETE", f"/v1/subscriptions/{sub_id}"
        )

    def ack(self, sub_id: str, sequence: int) -> dict:
        """Acknowledge everything up to a publication sequence — the
        durable cursor a reconnect resumes from."""
        return self._request(
            "POST",
            f"/v1/subscriptions/{sub_id}/ack",
            json.dumps({"sequence": sequence}),
        )

    def stream(
        self,
        subscription: str,
        cursor: Optional[int] = None,
        timeout: float = 30.0,
    ) -> "SseStream":
        """Open ``GET /v1/stream`` for one subscription.  Without an
        explicit ``cursor`` the server resumes from the durably
        acknowledged one."""
        return SseStream(
            self.host,
            self.port,
            subscription,
            cursor=cursor,
            timeout=timeout,
        )

    def health(self) -> dict:
        return self._request("GET", "/v1/health")

    def tracez(self, limit: int = 20) -> dict:
        return self._request(
            "GET", f"/v1/debug/tracez?limit={limit}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ServeClient {self.host}:{self.port}>"


class SseStream:
    """One open ``/v1/stream`` SSE connection.

    Iterate :meth:`events` for parsed ``{"id", "event", "data"}``
    dicts (``data`` is the decoded JSON document; keep-alive comments
    are swallowed).  The socket timeout bounds how long an idle read
    blocks — keep it above the server's keep-alive interval or a quiet
    stream will raise ``TimeoutError``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        subscription: str,
        cursor: Optional[int] = None,
        timeout: float = 30.0,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._conn = http.client.HTTPConnection(
            host, port, timeout=timeout
        )
        path = f"/v1/stream?subscription={subscription}"
        if cursor is not None:
            path += f"&cursor={int(cursor)}"
        self._conn.request("GET", path, headers=headers or {})
        self._response = self._conn.getresponse()
        if self._response.status != 200:
            data = self._response.read()
            try:
                message = json.loads(data).get("error", "")
            except (json.JSONDecodeError, AttributeError):
                message = data.decode("utf-8", errors="replace")[:200]
            self._conn.close()
            raise ServeError(self._response.status, message)

    def events(self):
        """Yield events until the connection closes."""
        event: Dict[str, Any] = {}
        data_lines: list = []
        while True:
            raw = self._response.readline()
            if not raw:
                return
            line = raw.decode("utf-8").rstrip("\r\n")
            if not line:
                if data_lines:
                    yield {
                        "id": event.get("id"),
                        "event": event.get("event", "message"),
                        "data": json.loads("\n".join(data_lines)),
                    }
                event, data_lines = {}, []
                continue
            if line.startswith(":"):
                continue
            name, _, value = line.partition(":")
            if value.startswith(" "):
                value = value[1:]
            if name == "data":
                data_lines.append(value)
            elif name == "id":
                try:
                    event["id"] = int(value)
                except ValueError:
                    pass
            elif name == "event":
                event["event"] = value

    def close(self) -> None:
        try:
            self._conn.close()
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass

    def __enter__(self) -> "SseStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
