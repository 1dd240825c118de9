"""The load generator's clients: the SUT pipe, keep-alive HTTP readers
(closed and open loop) and the SSE stream reader.

All clocks are ``time.perf_counter_ns`` (CLOCK_MONOTONIC — comparable
with the timestamps the SUT process reports).  At most two of these
clients are ever active at once (``nproc`` on the reference box).
"""

from __future__ import annotations

import http.client
import json
import os
import re
import subprocess
import sys
import threading
import time
from typing import List, Optional, Sequence, Tuple

import check
import workloads

_now = time.perf_counter_ns
_TOKEN = re.compile(rb'"token": "(v1:[0-9.\-]+)"')


class SutError(RuntimeError):
    pass


class SutProcess:
    """The SUT child process and its line-oriented JSON pipe."""

    def __init__(self, root: str, src_dir: str) -> None:
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"]
            if env.get("PYTHONPATH")
            else ""
        )
        env["TMPDIR"] = os.path.join(root, "tmp")
        self.stderr_path = os.path.join(root, "sut.stderr")
        self._stderr = open(self.stderr_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(here, "sut.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=env,
            cwd=root,
        )

    def send(self, op: str, **fields) -> None:
        fields["op"] = op
        self.proc.stdin.write((json.dumps(fields) + "\n").encode())
        self.proc.stdin.flush()

    def recv(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise SutError(f"SUT died: {self.stderr_tail()}")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise SutError(
                f"SUT command failed: {reply.get('error')}\n"
                f"{self.stderr_tail()}"
            )
        return reply

    def call(self, op: str, **fields) -> dict:
        self.send(op, **fields)
        return self.recv()

    def stderr_tail(self) -> str:
        self._stderr.flush()
        with open(self.stderr_path, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def stop(self) -> None:
        """Terminate and reap the child (idempotent)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()
        self._stderr.close()


class SseReader:
    """One ``/v1/stream`` connection, read on the calling thread."""

    def __init__(
        self, address: Sequence, subscription: str, timeout: float
    ) -> None:
        self._conn = http.client.HTTPConnection(
            address[0], address[1], timeout=timeout
        )
        self._conn.request(
            "GET", f"/v1/stream?subscription={subscription}&cursor=0"
        )
        self._response = self._conn.getresponse()
        if self._response.status != 200:
            raise SutError(
                f"/v1/stream answered {self._response.status}"
            )
        #: (subscription, sequence, subject) per notification frame.
        self.keys: List[Tuple[str, int, str]] = []
        self.markers: List[int] = []
        self.frames = 0
        self.bytes = 0

    def wait_marker(self) -> Tuple[int, int]:
        """Read frames up to and including the next ``batch`` marker;
        returns (its sequence, the time it was read)."""
        event = None
        data = None
        while True:
            raw = self._response.readline()
            if not raw:
                raise SutError("SSE stream closed")
            self.bytes += len(raw)
            line = raw.rstrip(b"\r\n")
            if line.startswith(b"event: "):
                event = line[7:]
            elif line.startswith(b"data: "):
                data = line[6:]
            elif not line and data is not None:
                arrived = _now()
                self.frames += 1
                doc = json.loads(data)
                if event == b"batch":
                    self.markers.append(int(doc["sequence"]))
                    return self.markers[-1], arrived
                self.keys.append(
                    (
                        doc["subscription"],
                        int(doc["sequence"]),
                        doc.get("subject"),
                    )
                )
                event = data = None

    def close(self) -> None:
        self._conn.close()


class ReadSample:
    __slots__ = ("kind", "family", "ms", "status", "size", "late_ms")

    def __init__(self, request, ms, status, size, late_ms=0.0):
        self.kind = request.kind
        self.family = request.family
        self.ms = ms
        self.status = status
        self.size = size
        self.late_ms = late_ms


class HttpReader:
    """One keep-alive connection issuing the read mix."""

    def __init__(self, address: Sequence) -> None:
        self._address = address
        self._conn = http.client.HTTPConnection(
            address[0], address[1], timeout=60
        )
        self.samples: List[ReadSample] = []
        self.tokens = check.TokenWatch()
        self.degraded = 0

    def fetch(self, request: workloads.ReadRequest):
        """One untimed request; returns (status, body)."""
        self._conn.request(
            request.method, request.path, body=request.body or None
        )
        response = self._conn.getresponse()
        return response.status, response.read()

    def issue(
        self, request: workloads.ReadRequest, due_ns: Optional[int]
    ) -> None:
        """One timed request: from send (or from ``due_ns``, open
        loop) to the last response byte.  The body is read, not
        parsed, inside the timed section."""
        sent = _now()
        try:
            self._conn.request(
                request.method, request.path, body=request.body or None
            )
            response = self._conn.getresponse()
            body = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self._conn.close()
            self._conn = http.client.HTTPConnection(
                self._address[0], self._address[1], timeout=60
            )
            body, status = b"", 0
        done = _now()
        origin = sent if due_ns is None else due_ns
        self.samples.append(
            ReadSample(
                request,
                (done - origin) / 1e6,
                status,
                len(body),
                0.0 if due_ns is None else (sent - due_ns) / 1e6,
            )
        )
        match = _TOKEN.search(body, max(0, len(body) - 2048))
        if match:
            self.tokens.see(match.group(1).decode("ascii"))
        if b'"degraded": true' in body[-2048:]:
            self.degraded += 1

    def close(self) -> None:
        self._conn.close()


def closed_loop(
    address: Sequence,
    mix: List[workloads.ReadRequest],
    seconds: float,
    connections: int = 2,
) -> Tuple[List[HttpReader], float]:
    """``connections`` keep-alive clients, each sending its next
    request when the previous one completed, for ``seconds``.
    Returns the readers and the measured wall seconds."""
    readers = [HttpReader(address) for _ in range(connections)]
    begin = _now()
    stop_ns = begin + int(seconds * 1e9)

    def drive(reader: HttpReader, offset: int) -> None:
        position = offset
        while _now() < stop_ns:
            reader.issue(mix[position % len(mix)], None)
            position += connections

    threads = [
        threading.Thread(target=drive, args=(reader, index))
        for index, reader in enumerate(readers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = (_now() - begin) / 1e9
    for reader in readers:
        reader.close()
    return readers, wall


class OpenLoop:
    """One connection sending the mix on a fixed schedule, whatever
    the SUT does; each request is timed from its due time."""

    def __init__(
        self,
        address: Sequence,
        mix: List[workloads.ReadRequest],
        rate: float,
    ) -> None:
        self.reader = HttpReader(address)
        self._mix = mix
        self._interval_ns = int(1e9 / rate)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._drive)
        self.wall = 0.0

    def start(self) -> None:
        self._begin = _now()
        self._thread.start()

    def _drive(self) -> None:
        index = 0
        while not self._stop.is_set():
            due = self._begin + index * self._interval_ns
            wait = (due - _now()) / 1e9
            if wait > 0 and self._stop.wait(wait):
                break
            self.reader.issue(self._mix[index % len(self._mix)], due)
            index += 1

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()
        self.wall = (_now() - self._begin) / 1e9
        self.reader.close()
