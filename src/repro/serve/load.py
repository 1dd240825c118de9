"""A small closed-loop HTTP load generator (stdlib ``http.client``).

Drives a running :class:`~repro.serve.http.HotspotServer` with N
concurrent clients, each looping over a fixed request mix on a
keep-alive connection, and reports throughput and latency quantiles.

Closed-loop means each client issues its next request only after the
previous response arrives: offered load adapts to server speed, so the
measured throughput is the server's capacity at that concurrency, not a
drop rate.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

#: A request: ``("GET", "/hotspots?min_confidence=0.5")`` or
#: ``("POST", "/stsparql", "SELECT ...")``.
Request = Union[Tuple[str, str], Tuple[str, str, str]]


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))
    )
    return sorted_values[index]


@dataclass
class LoadReport:
    """What one load run measured."""

    clients: int
    requests: int
    errors: int
    seconds: float
    latencies: List[float] = field(default_factory=list, repr=False)
    status_counts: Dict[int, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0

    def quantiles(self) -> Dict[str, float]:
        ordered = sorted(self.latencies)
        return {
            "p50_ms": _percentile(ordered, 0.50) * 1e3,
            "p95_ms": _percentile(ordered, 0.95) * 1e3,
            "p99_ms": _percentile(ordered, 0.99) * 1e3,
            "max_ms": (ordered[-1] * 1e3) if ordered else 0.0,
        }

    def summary(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "clients": float(self.clients),
            "requests": float(self.requests),
            "errors": float(self.errors),
            "seconds": self.seconds,
            "throughput_rps": self.throughput_rps,
        }
        out.update(self.quantiles())
        return out


class LoadGenerator:
    """Closed-loop load against one host:port."""

    def __init__(
        self,
        host: str,
        port: int,
        requests: Sequence[Request],
        clients: int = 4,
    ) -> None:
        if not requests:
            raise ValueError("need at least one request in the mix")
        self.host = host
        self.port = port
        self.requests = list(requests)
        self.clients = clients

    def _client_loop(
        self,
        stop: threading.Event,
        budget: Optional[int],
        latencies: List[float],
        statuses: List[int],
        offset: int,
    ) -> None:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=30
        )
        sent = 0
        index = offset
        try:
            while not stop.is_set() and (
                budget is None or sent < budget
            ):
                request = self.requests[index % len(self.requests)]
                index += 1
                method, path = request[0], request[1]
                body = request[2] if len(request) > 2 else None
                t0 = time.perf_counter()
                try:
                    conn.request(method, path, body=body)
                    response = conn.getresponse()
                    response.read()
                    status = response.status
                except (
                    http.client.HTTPException,
                    ConnectionError,
                    OSError,
                ):
                    conn.close()
                    conn = http.client.HTTPConnection(
                        self.host, self.port, timeout=30
                    )
                    status = -1
                latencies.append(time.perf_counter() - t0)
                statuses.append(status)
                sent += 1
        finally:
            conn.close()

    def run(
        self,
        duration_s: Optional[float] = None,
        total_requests: Optional[int] = None,
    ) -> LoadReport:
        """Run until ``duration_s`` elapses or every client has issued
        its share of ``total_requests`` (whichever is given)."""
        if (duration_s is None) == (total_requests is None):
            raise ValueError(
                "give exactly one of duration_s / total_requests"
            )
        budget = (
            None
            if total_requests is None
            else max(1, total_requests // self.clients)
        )
        stop = threading.Event()
        per_client: List[Tuple[List[float], List[int]]] = [
            ([], []) for _ in range(self.clients)
        ]
        threads = [
            threading.Thread(
                target=self._client_loop,
                args=(stop, budget, lats, stats, i),
                name=f"load-client-{i}",
                daemon=True,
            )
            for i, (lats, stats) in enumerate(per_client)
        ]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        if duration_s is not None:
            time.sleep(duration_s)
            stop.set()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - t0
        latencies = [v for lats, _ in per_client for v in lats]
        statuses = [s for _, stats in per_client for s in stats]
        status_counts: Dict[int, int] = {}
        for s in statuses:
            status_counts[s] = status_counts.get(s, 0) + 1
        errors = sum(
            n for s, n in status_counts.items() if s < 200 or s >= 400
        )
        return LoadReport(
            clients=self.clients,
            requests=len(latencies),
            errors=errors,
            seconds=elapsed,
            latencies=latencies,
            status_counts=status_counts,
        )


def fetch_json(
    host: str,
    port: int,
    path: str,
    method: str = "GET",
    body: Optional[str] = None,
) -> dict:
    """One-shot request helper (tests and examples)."""
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request(method, path, body=body)
        response = conn.getresponse()
        data = response.read()
        if response.status != 200:
            raise RuntimeError(
                f"{method} {path} -> {response.status}: {data[:200]!r}"
            )
        return json.loads(data)
    finally:
        conn.close()
