"""End-to-end benchmark: segment arrival -> alert, request -> GeoJSON.

    python3 benchmarks/e2e/run.py --workload NAME|all [--seed N]
        [--seconds S] [--trace 0|1 | --traced] [--quick] [--out FILE]

This process is the load generator.  The system under test runs in a
child process (``sut.py``) behind real sockets; this process makes the
inputs from ``--seed``, drives the workload with at most two active
clients, measures, checks every output against an oracle, prints every
metric by name with its unit and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` (default) reports the end-to-end metrics with no
wrappers installed and ``repro.obs`` off; ``--trace 1`` reports the
per-layer metrics from a traced pass.  Exit status is non-zero when a
correctness check or an operation failed.  README.md has the glossary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO, "src")
WORK = os.path.join(REPO, ".bench_e2e")
sys.path.insert(0, HERE)

import check  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

_now = time.perf_counter_ns


def declared():
    """(end-to-end, per-layer) metric declarations of BENCHMARK.json,
    each a ``{name: unit}`` dict."""
    with open(os.path.join(REPO, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        spec,
    )


# -- one workload ---------------------------------------------------------


class Run:
    """One run of one workload: the inputs, then ``plan.rounds`` rounds
    of set-up and timed ingest, the timed reads, verification."""

    def __init__(self, plan, traced, recovery_repeats, spans_path):
        self.plan = plan
        self.workload = plan.workload
        self.traced = traced
        self.spans_path = spans_path
        self.recovery_repeats = recovery_repeats
        self.ledger = check.Ledger()
        os.makedirs(WORK, exist_ok=True)
        self.root = tempfile.mkdtemp(
            prefix=f"{self.workload.name}_", dir=WORK
        )
        for sub in ("tmp", "staging", "scenes"):
            os.makedirs(os.path.join(self.root, sub))
        tempfile.tempdir = os.path.join(self.root, "tmp")
        self.sut = None
        self.streams = []
        #: Per finished round: set-up seconds and, per timed
        #: acquisition, alert latency and wall time.
        self.rounds = []
        #: Every timed read of the run.
        self.reads = []

    # -- inputs -----------------------------------------------------------

    def make_inputs(self):
        """Untimed, once per run: synthesise the acquisitions every
        round ingests, the read mix and the subscriptions."""
        from repro.seviri.hrit import write_hrit_segments
        from repro.seviri.scene import SceneGenerator

        plan = self.plan
        greece, self.season = workloads.build_dataset(self.workload)
        generator = SceneGenerator(greece, seed=plan.seed)
        for index in range(plan.acquisitions):
            when = workloads.acquisition_time(index)
            scene = generator.generate(
                when, self.season, sensor_name=workloads.SENSOR
            )
            if self.workload.transport == "hrit":
                staging = os.path.join(
                    self.root, "staging", f"{index:03d}"
                )
                for band, grid in zip(
                    workloads.BANDS, (scene.t039, scene.t108)
                ):
                    write_hrit_segments(
                        staging, workloads.SENSOR, band, when, grid
                    )
            else:
                np.savez(
                    check.scene_path(self.root, index),
                    t039=scene.t039,
                    t108=scene.t108,
                )
        self.mix = workloads.read_mix(plan.seed, plan.acquisitions)
        self.bulk = workloads.bulk_subscriptions(self.workload, plan.seed)

    # -- set-up -----------------------------------------------------------

    def setup(self, number):
        """Round ``number``: a fresh SUT process on an empty state
        directory, subscriptions, SSE connections, warm-up."""
        from repro.serve import ServeClient

        started = _now()
        self.dir = os.path.join(self.root, f"round{number}")
        for sub in ("tmp", "incoming"):
            os.makedirs(os.path.join(self.dir, sub))
        if self.workload.transport == "hrit":
            shutil.copytree(
                os.path.join(self.root, "staging"),
                os.path.join(self.dir, "staging"),
            )
        self.sut = loadgen.SutProcess(self.dir, SRC)
        self.address = self.sut.call(
            "build",
            workload=self.workload.name,
            root=self.dir,
            traced=self.traced,
        )["address"]
        t0 = time.perf_counter()
        registered = 0
        if self.bulk:
            registered = self.sut.call("register", docs=self.bulk)["count"]
        client = ServeClient(*self.address)
        self.stream_ids = [
            client.subscribe(doc)["id"]
            for doc in workloads.stream_filters(self.workload)
        ]
        registered += len(self.stream_ids)
        self.register_per_s = registered / (time.perf_counter() - t0)
        self.streams = [
            loadgen.SseReader(self.address, sub_id, timeout=120)
            for sub_id in self.stream_ids
        ]
        self.acquisitions = []  # the timed ones
        self.readers = []
        for index in range(self.workload.warmup):
            self.ingest(index)
        self.setup_s = (_now() - started) / 1e9

    # -- ingest -----------------------------------------------------------

    def ingest(self, index):
        """One acquisition, closed loop: deliver it, signal the SUT,
        read the SSE streams up to that publication's batch marker."""
        began = _now()
        when = workloads.acquisition_time(index)
        if self.workload.transport == "hrit":
            staging = os.path.join(self.dir, "staging", f"{index:03d}")
            names = workloads.segment_order(
                self.plan.seed, index, os.listdir(staging)
            )
            for name in names:
                os.rename(
                    os.path.join(staging, name),
                    os.path.join(self.dir, "incoming", name),
                )
            segments = len(names)
            submitted = _now()  # the last segment has landed
            self.sut.send("ingest", index=index)
        else:
            segments = 0
            submitted = _now()
            self.sut.send(
                "ingest",
                index=index,
                when=when.isoformat(),
                scene=check.scene_path(self.root, index),
            )
        sequences = []
        arrived = submitted
        for stream in self.streams:
            sequence, at = stream.wait_marker()
            sequences.append(sequence)
            arrived = max(arrived, at)
        reply = self.sut.recv()
        ok = reply["statuses"] == ["ok"]
        self.ledger.op(
            ok, "acquisition", f"{when}: {reply['statuses']} "
            f"{reply['errors']}"
        )
        self.ledger.check(
            "marker_matches_publication",
            all(s == reply["sequence"] for s in sequences),
            f"markers {sequences} vs publication {reply['sequence']}",
        )
        return {
            "index": index,
            "arrived_ns": arrived,
            "latency_ms": (arrived - submitted) / 1e6,
            "wall_s": (_now() - began) / 1e9,
            "segments": segments,
            "reply": reply,
        }

    def measure(self):
        """The timed part of a round: the fixed sequence of
        acquisitions with the open-loop reads beside it, or the
        closed-loop reads on the frozen store after it."""
        open_loop = None
        if self.workload.reads == "during":
            open_loop = loadgen.OpenLoop(
                self.address, self.mix, workloads.OPEN_LOOP_RPS
            )
            open_loop.start()
        for index in range(self.workload.warmup, self.plan.acquisitions):
            self.acquisitions.append(self.ingest(index))
        if open_loop is not None:
            open_loop.stop()
            self.readers = [open_loop.reader]
            self.read_wall_s = open_loop.wall
        else:
            self.readers, self.read_wall_s = loadgen.closed_loop(
                self.address, self.mix, self.plan.read_seconds
            )

    def end_round(self, last):
        """Account the round's reads and notifications, keep its
        numbers; every round but the last then goes away."""
        ledger = self.ledger
        for reader in self.readers:
            for sample in reader.samples:
                ledger.op(sample.status == 200, "read", sample.kind)
                if sample.late_ms > 1000.0:
                    ledger.op(False, "late_send", f"{sample.late_ms}")
            ledger.check(
                "tokens_monotonic",
                reader.tokens.regressions == 0
                and reader.tokens.last is not None,
                f"{reader.tokens.regressions} regression(s), last "
                f"token {reader.tokens.last}",
            )
            self.reads.extend(reader.samples)
        # Before the oracle's probes: the traced summary then holds
        # the timed reads only.
        self.stats = self.sut.call(
            "stats", subscriptions=self.stream_ids
        )
        received = [k for s in self.streams for k in s.keys]
        self.sse = check.check_notifications(
            ledger,
            received,
            self.stats["logged"],
            self.streams[0].markers,
        )
        self.rounds.append(
            {
                "setup_s": self.setup_s,
                "latency_ms": [
                    a["latency_ms"] for a in self.acquisitions
                ],
                "wall_s": [a["wall_s"] for a in self.acquisitions],
                "read_wall_s": self.read_wall_s,
                "hotspots": [
                    a["reply"]["hotspots"] for a in self.acquisitions
                ],
            }
        )
        if not last:
            for stream in self.streams:
                stream.close()
            self.sut.call("exit", spans_path=None)
            self.sut.stop()
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- verification -----------------------------------------------------

    def probe_requests(self):
        """One request of each kind of the mix, plus the unfiltered
        collection first."""
        seen = {}
        for request in self.mix:
            seen.setdefault(request.kind, request)
        return [seen.pop("all")] + list(seen.values())

    def served_answers(self, address):

        reader = loadgen.HttpReader(address)
        answers = []
        try:
            for request in self.probe_requests():
                status, body = reader.fetch(request)
                self.ledger.op(
                    status == 200, "probe", f"{request.path} {status}"
                )
                answers.append(
                    check.served_answer(request, body)
                    if status == 200
                    else None
                )
        finally:
            reader.close()
        return answers

    def check_serving(self):
        """Fetch the answers the oracle will judge."""
        self.served = self.served_answers(self.address)
        if self.workload.shards:
            single = self.sut.call("single_server")["address"]
            self.ledger.check(
                "sharded_equals_single",
                self.served_answers(single) == self.served,
                "router and single-server answers differ",
            )
        for stream in self.streams:
            stream.close()

    def recover(self):
        """Close the service, measure the state it left, then time
        ``open(state_dir)`` -> serving -> first ``/v1/hotspots`` 200."""
        ledger = self.ledger
        self.sut.call("close")
        state_dir = os.path.join(self.dir, "state")
        self.state_bytes = sum(
            check.tree_bytes(os.path.join(state_dir, sub))
            for sub in ("durable", "subs")
        )
        recoveries = []
        unfiltered = self.probe_requests()[0]
        for _ in range(self.recovery_repeats):
            t0 = _now()
            address = self.sut.call("reopen")["address"]
            reader = loadgen.HttpReader(address)
            status, body = reader.fetch(unfiltered)
            recoveries.append((_now() - t0) / 1e9)
            reader.close()
            ledger.op(status == 200, "recovery_read", str(status))
            ledger.check(
                "recovered_equals_pre_close",
                status == 200
                and check.served_answer(unfiltered, body)
                == self.served[0],
                "digest after reopen differs",
            )
            self.recovered = self.sut.call(
                "stats", subscriptions=[]
            )
            self.sut.call("close")
        self.recovery_s = statistics.median(recoveries)
        self.sut.call("exit", spans_path=self.spans_path)
        self.sut.stop()

    def check_against_reference(self):
        """The oracle: an independent in-process run of the same
        input must answer what the SUT served."""
        from repro.serve import query_hotspots

        reference = check.reference_service(
            self.plan, self.root, self.dir, self.season
        )
        try:
            expected = [
                check.reference_answer(reference, request)
                for request in self.probe_requests()
            ]
            self.store_hotspots = len(
                query_hotspots(reference.publisher.require_latest())[
                    "features"
                ]
            )
        finally:
            reference.close()
        for request, want, got in zip(
            self.probe_requests(), expected, self.served
        ):
            self.ledger.check(
                f"oracle_{request.kind}",
                want == got,
                f"{request.path}: served answer differs from the "
                "reference run",
            )

    # -- metrics ----------------------------------------------------------

    def end_to_end(self):
        """Every number is a median over repetitions of the same work:
        an acquisition's latency and wall time over the rounds (it
        meets the same store in each), a kind of request's latency
        over the timed reads, the set-up over the rounds."""
        rounds = self.rounds
        timed = range(self.plan.timed)
        latency = [
            statistics.median(r["latency_ms"][i] for r in rounds)
            for i in timed
        ]
        wall = [
            statistics.median(r["wall_s"][i] for r in rounds)
            for i in timed
        ]
        by_family = {}
        for sample in self.reads:
            if sample.status == 200:
                by_family.setdefault(sample.family, []).append(sample.ms)
        shares = {f: workloads.MIX_SHARES[f] for f in by_family}
        return {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "alert_latency_mean_ms": statistics.fmean(latency),
            "acq_per_min": 60.0 * len(wall) / sum(wall),
            "read_latency_mean_ms": sum(
                share * statistics.median(by_family[family])
                for family, share in shares.items()
            )
            / sum(shares.values()),
            "state_bytes_per_triple": self.state_bytes
            / max(1, self.stats["triples"]),
            "peak_rss_mb": self.stats["peak_rss_kb"] / 1024.0,
        }

    def sample_counts(self):
        return {
            "rounds_run": len(self.rounds),
            "timed_acquisitions": sum(
                len(r["latency_ms"]) for r in self.rounds
            ),
            "reads": len(self.reads),
            "read_wall_s": sum(r["read_wall_s"] for r in self.rounds),
            "recovery_repeats": self.recovery_repeats,
        }

    def cleanup(self):
        for stream in self.streams:
            stream.close()
        if self.sut is not None:
            self.sut.stop()
        shutil.rmtree(self.root, ignore_errors=True)


def run_workload(name, seed, seconds, traced, quick, spans_path=None):
    plan = workloads.plan(workloads.WORKLOADS[name], seed, seconds, quick)
    if traced:
        # The layer table describes one pass over the sequence.
        plan = dataclasses.replace(plan, rounds=1)
    run = Run(plan, traced, 1 if quick else 3, spans_path)
    try:
        run.make_inputs()
        for number in range(plan.rounds):
            run.setup(number)
            run.measure()
            run.end_round(last=number == plan.rounds - 1)
        run.check_serving()
        run.recover()
        run.check_against_reference()
        result = {
            "workload": name,
            "why": plan.workload.why,
            "conditions": dict(
                workloads.summary(plan), **run.sample_counts()
            ),
            "attempted": run.ledger.attempted,
            "failed": run.ledger.failed,
            "failures": dict(run.ledger.failures),
            "checks": run.ledger.checks,
            "details": run.ledger.details,
            "correct": run.ledger.correct,
            "traced": traced,
            "series": {
                "rounds": run.rounds,
                "reads": [[s.family, s.ms] for s in run.reads],
            },
        }
        if traced:
            result["metrics"] = layers.metrics(run)
            result["layer_table"] = layers.tables(run)
        else:
            result["metrics"] = run.end_to_end()
        return result
    finally:
        run.cleanup()


# -- command line ---------------------------------------------------------


def run_record(args):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "git_commit": commit or "unknown",
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "quick": args.quick,
        "obs_enabled": False,
    }


def _alarm(signum, frame):
    raise TimeoutError("benchmark exceeded its time limit")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument(
        "--spans",
        default=None,
        help="traced pass: write the spans here as JSONL "
        "(FILE.<workload> with --workload all)",
    )
    args = parser.parse_args(argv)
    if args.traced:
        args.trace = 1
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(
            f"error: {SRC}/repro not found — the benchmark drives the "
            "repository's own source tree",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    end_to_end, per_layer, spec = declared()
    if args.seconds is None:
        args.seconds = 2.0 if args.quick else float(spec["run_seconds"])

    names = (
        list(workloads.WORKLOADS)
        if args.workload == "all"
        else [args.workload]
    )
    for name in names:
        if name not in workloads.WORKLOADS:
            parser.error(f"unknown workload {name!r}")
    units = per_layer if args.trace else end_to_end
    signal.signal(signal.SIGALRM, _alarm)
    results = []
    for name in names:
        signal.alarm(170)
        result = run_workload(
            name,
            args.seed,
            args.seconds,
            bool(args.trace),
            args.quick,
            spans_path=spans_file(args.spans, name, len(names)),
        )
        signal.alarm(0)
        results.append(result)
        report(result, units)
    record = run_record(args)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(
                {"record": record, "units": units, "results": results},
                fh,
                indent=1,
            )
    correct = all(r["correct"] for r in results)
    last = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    if len(results) == 1:
        last["metrics"] = wire_metrics(results[0], units)
    else:
        last["workloads"] = {
            r["workload"]: wire_metrics(r, units) for r in results
        }
    print(json.dumps(last))
    return 0 if correct else 1


def spans_file(path, workload, workloads_run):
    if path is None:
        return None
    path = os.path.abspath(path)
    return path if workloads_run == 1 else f"{path}.{workload}"


def wire_metrics(result, units):
    return {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in units.items()
    }


def report(result, units):
    print(f"== {result['workload']} — {result['why']}")
    for key, value in result["conditions"].items():
        print(f"   {key}: {value}")
    for name, unit in units.items():
        print(f"   {name:<36}{result['metrics'][name]:>16.4f} {unit}")
    undeclared = sorted(set(result["metrics"]) - set(units))
    if undeclared:
        print(f"   UNDECLARED metrics: {undeclared}")
        result["correct"] = False
    print(
        f"   ops_attempted {result['attempted']}  ops_failed "
        f"{result['failed']} {result['failures'] or ''}"
    )
    for name, ok in sorted(result["checks"].items()):
        print(f"   check {name}: {'ok' if ok else 'FAILED'}")
    for line in result["details"]:
        print(f"   ! {line}")
    if result.get("layer_table"):
        print(result["layer_table"])
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
