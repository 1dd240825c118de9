"""End-to-end tracing: one trace id from acquisition to HTTP reader.

With tracing enabled, a run publishes snapshots whose provenance names
the acquisition's ``trace_id``; ``/v1/hotspots`` polled *during* the
run serves that id; and ``/debug/tracez`` shows the whole trace — the
``acquisition`` root, its ``chain.process`` and ``stage.refine`` spans,
and the ``service.publish`` span that re-joins the trace after the
root has closed — under the one trace id.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from datetime import timedelta

from tests.conftest import CRISIS_START
from repro import obs
from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.serve import http as http_module
from repro.serve import serve_in_thread


def _request(handle, method, path, body=None, headers=None):
    host, port = handle.address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body, headers=headers or {})
        response = conn.getresponse()
        data = response.read()
    finally:
        conn.close()
    if response.getheader("Content-Type", "").startswith(
        "application/json"
    ):
        return response.status, json.loads(data)
    return response.status, data.decode("utf-8", errors="replace")


def test_one_trace_spans_service_publish_and_http(
    greece, season, tmp_path, monkeypatch
):
    # What a traced deployment does: wrap the hotspot filter, by the
    # name the server calls it through, in a span of its own.
    real_query = http_module.query_hotspots

    def traced_query(*args, **kwargs):
        with obs.span("hotspots.query"):
            return real_query(*args, **kwargs)

    monkeypatch.setattr(http_module, "query_hotspots", traced_query)
    obs.disable()
    obs.reset()
    obs.enable()
    service = FireMonitoringService(
        greece=greece,
        config=ServiceConfig(mode="teleios", workdir=str(tmp_path)),
    )
    whens = [
        CRISIS_START + timedelta(hours=13, minutes=15 * k)
        for k in range(3)
    ]
    options = RunOptions(season=season, on_error="raise")
    request_trace = "feedface00000042"
    trace_headers = {"x-trace-id": request_trace, "x-parent-span": "7"}
    errors, served_trace_ids = [], []
    try:
        with serve_in_thread(service) as handle:

            def ingest():
                try:
                    service.run(whens, options)
                except Exception as error:  # pragma: no cover
                    errors.append(repr(error))

            writer = threading.Thread(target=ingest, daemon=True)
            writer.start()
            while writer.is_alive():
                status, collection = _request(
                    handle, "GET", "/v1/hotspots", headers=trace_headers
                )
                if status == 503:  # nothing published yet
                    time.sleep(0.01)
                    continue
                assert status == 200
                snapshot = collection["snapshot"]
                # The request's own trace is echoed back...
                assert snapshot["request_trace_id"] == request_trace
                # ...next to the publishing acquisition's trace.
                if snapshot.get("trace_id"):
                    served_trace_ids.append(snapshot["trace_id"])
                time.sleep(0.01)
            writer.join()
            assert not errors

            status, collection = _request(
                handle, "GET", "/v1/hotspots", headers=trace_headers
            )
            assert status == 200
            served_trace_ids.append(collection["snapshot"]["trace_id"])
            assert served_trace_ids[-1], "final snapshot has no trace id"
            wanted = served_trace_ids[-1]

            # The served trace id resolves to one complete trace in
            # /debug/tracez.
            status, tracez = _request(
                handle, "GET", f"/v1/debug/tracez?trace_id={wanted}"
            )
            assert status == 200
            assert tracez["tracing_enabled"] is True
            assert tracez["count"] == 1
            trace = tracez["traces"][0]
            assert trace["trace_id"] == wanted
            assert trace["root"] == "acquisition"
            assert trace["status"] == "ok"
            names = {s["name"] for s in trace["spans"]}
            assert {
                "acquisition",
                "chain.process",
                "stage.refine",
                "service.publish",
            } <= names

            # Every span hangs off the acquisition root's trace; the
            # tree rendering shows the whole hierarchy.
            assert all(s["trace_id"] == wanted for s in trace["spans"])
            assert "service.publish" in trace["tree"]

            # The HTTP requests themselves joined the client's trace,
            # parented under the advertised span id.
            status, req_trace = _request(
                handle, "GET", f"/v1/debug/tracez?trace_id={request_trace}"
            )
            assert status == 200 and req_trace["count"] == 1
            req_spans = req_trace["traces"][0]["spans"]
            serve_spans = [
                s for s in req_spans if s["name"] == "serve.request"
            ]
            assert serve_spans
            assert all(s["parent_id"] == 7 for s in serve_spans)
            # The hotspot filter runs on the event loop, inside the
            # request's span: its spans join the client's trace, each
            # parented under a serve.request span.
            query_spans = [
                s for s in req_spans if s["name"] == "hotspots.query"
            ]
            assert query_spans
            serve_ids = {s["span_id"] for s in serve_spans}
            assert all(s["parent_id"] in serve_ids for s in query_spans)

            # The text rendering works too.
            status, text = _request(
                handle,
                "GET",
                f"/v1/debug/tracez?format=text&trace_id={wanted}",
            )
            assert status == 200
            assert f"trace {wanted}" in text
            assert "acquisition" in text

            # Malformed limits are refused.
            status, _ = _request(
                handle, "GET", "/v1/debug/tracez?limit=banana"
            )
            assert status == 400
            status, _ = _request(handle, "GET", "/v1/debug/tracez?limit=0")
            assert status == 400
    finally:
        service.close()
        obs.disable()
        obs.reset()
