"""The system under test, in its own process.

Builds a ``FireMonitoringService`` for one workload, serves it over
real sockets and takes commands — one JSON object per line on stdin,
one JSON reply per line on stdout — from the load generator
(``run.py``), which is the only thing that measures.  Everything this
process ingests was generated by the parent: HRIT segments dropped into
``incoming/`` or scene arrays saved under ``scenes/``.

With ``"traced": true`` the ``build`` command installs the wrappers of
``trace.py`` before anything is constructed, and ``stats`` returns the
per-operation span summary.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time
from datetime import datetime

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import trace as layer_trace  # noqa: E402
import workloads  # noqa: E402


class Sut:
    def __init__(self) -> None:
        self.recorder = None
        self.service = None
        self.monitor = None
        self.handle = None
        self.manager = None
        self.single = None

    # -- commands ---------------------------------------------------------

    def build(self, cmd):
        from repro.core import FireMonitoringService

        self.workload = workloads.WORKLOADS[cmd["workload"]]
        self.root = cmd["root"]
        self.state_dir = os.path.join(self.root, "state")
        tempfile.tempdir = os.path.join(self.root, "tmp")
        os.makedirs(tempfile.tempdir, exist_ok=True)
        if cmd["traced"]:
            self.recorder = layer_trace.SpanRecorder()
            self.recorder.current_op = "setup"
            layer_trace.install(self.recorder)
        self.greece, self.season = workloads.build_dataset(self.workload)
        self.service = FireMonitoringService(
            greece=self.greece,
            config=workloads.service_config(
                self.workload, state_dir=self.state_dir
            ),
        )
        if self.workload.transport == "hrit":
            from repro.seviri.monitor import SeviriMonitor

            self.monitor = SeviriMonitor(
                os.path.join(self.root, "incoming"),
                os.path.join(self.root, "disk_array"),
            )
        return self._serve()

    def _serve(self):
        from repro.serve import serve_in_thread

        if self.workload.shards:
            self.manager, self.handle = self.service.serve_sharded(
                shards=self.workload.shards
            )
        else:
            self.handle = serve_in_thread(self.service)
        return {"address": list(self.handle.address)}

    def register(self, cmd):
        subs = self.service.subscriptions.register_many(cmd["docs"])
        return {"count": len(subs)}

    def ingest(self, cmd):
        from repro.core import RunOptions

        if self.recorder is not None:
            self.recorder.current_op = f"acq:{cmd['index']}"
        started = time.perf_counter_ns()
        if self.monitor is not None:
            self.monitor.scan()
            requests = self.monitor.dispatch_ready()
        else:
            from repro.seviri.scene import SceneImage

            with np.load(cmd["scene"]) as data:
                requests = [
                    SceneImage(
                        timestamp=datetime.fromisoformat(cmd["when"]),
                        t039=data["t039"],
                        t108=data["t108"],
                        sensor_name=workloads.SENSOR,
                    )
                ]
        outcomes = self.service.run(
            requests, RunOptions(season=self.season)
        )
        ended = time.perf_counter_ns()
        traced = {}
        if self.recorder is not None:
            traced = {
                "fsyncs": self.recorder.fsyncs,
                "publish_end_ns": self._publish_end(),
            }
            self.recorder.current_op = "idle"
        return {
            **traced,
            "statuses": [o.status for o in outcomes],
            "errors": [e for o in outcomes for e in o.errors],
            "sequence": self.service.publisher.sequence,
            "hotspots": sum(
                len(o.raw_product)
                for o in outcomes
                if o.raw_product is not None
            ),
            "run_start_ns": started,
            "run_end_ns": ended,
        }

    def _publish_end(self):
        """When the main publisher's ``publish`` of the current
        acquisition returned (shard republications nest inside it)."""
        op = self.recorder.current_op
        for span in reversed(self.recorder.spans):
            if (
                span[layer_trace.OP] == op
                and span[layer_trace.NAME] == "publish.publish"
                and span[layer_trace.PARENT] is not None
                and span[layer_trace.PARENT][layer_trace.NAME]
                == "service.run"
            ):
                return span[layer_trace.END]
        return None

    def stats(self, cmd):
        """Counters the oracle and the per-layer metrics need; the
        notification keys the durable log holds for ``subscriptions``
        (what the SSE streams must have delivered exactly once)."""
        from repro import perf

        wanted = set(cmd.get("subscriptions", ()))
        logged = []
        engine = self.service.subscriptions
        for batch in engine.log.batches:
            for doc in batch.notifications:
                if doc.get("subscription") in wanted:
                    logged.append(
                        [
                            doc["subscription"],
                            batch.sequence,
                            doc.get("subject"),
                        ]
                    )
        reply = {
            "logged": logged,
            "log_batches": len(engine.log),
            "subscriptions": len(engine.registry),
            "triples": len(self.service.strabon.graph),
            "peak_rss_kb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss,
            "durable": self.service.durable.stats(),
            "degraded": sum(
                1 for o in self.service.outcomes if o.status != "ok"
            ),
            "plan_cache": self.service.strabon.plan_cache.stats().as_dict(),
            "caches": perf.cache_stats(),
        }
        if self.service.recovery is not None:
            reply["recovery"] = self.service.recovery.to_dict()
        if self.recorder is not None:
            reply["fsyncs"] = self.recorder.fsyncs
            reply["spans"] = len(self.recorder.spans)
            reply["span_cost_ns"] = self.recorder.span_cost_ns()
            reply["summary"] = layer_trace.summarize(
                self.recorder.spans
            )
        return reply

    def single_server(self, cmd):
        """A plain server beside the shard tier, for the
        sharded == single-server check."""
        from repro.serve import serve_in_thread

        self.single = serve_in_thread(self.service)
        return {"address": list(self.single.address)}

    def close(self, cmd):
        for handle in (self.single, self.handle):
            if handle is not None:
                handle.stop()
        if self.manager is not None:
            self.manager.stop_http()
        if self.monitor is not None:
            self.monitor.close()
        self.single = self.handle = self.manager = self.monitor = None
        if self.service is not None:
            self.service.close()
            self.service = None
        return {}

    def reopen(self, cmd):
        from repro.core import FireMonitoringService

        if self.recorder is not None:
            self.recorder.current_op = "recovery"
        self.service = FireMonitoringService.open(
            self.state_dir, greece=self.greece
        )
        return self._serve()

    def exit(self, cmd):
        self.close(cmd)
        written = 0
        if self.recorder is not None and cmd.get("spans_path"):
            written = layer_trace.write_jsonl(
                self.recorder.spans, cmd["spans_path"]
            )
        return {"spans_written": written}


def main() -> int:
    # stdout carries the protocol; anything the library prints goes to
    # stderr instead.
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)
    sut = Sut()
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["op"]
        try:
            reply = getattr(sut, op)(cmd)
            reply["ok"] = True
        except Exception as error:  # noqa: BLE001 — reported, not hidden
            import traceback

            traceback.print_exc()
            reply = {
                "ok": False,
                "error": f"{type(error).__name__}: {error}",
            }
        reply["done_ns"] = time.perf_counter_ns()
        channel.write(json.dumps(reply) + "\n")
        channel.flush()
        if op == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
