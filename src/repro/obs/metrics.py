"""Metrics: counters, gauges and histograms behind one registry.

Instruments are created (get-or-create) through a
:class:`MetricsRegistry` and are labelled: every update may carry
keyword labels, and each distinct label set is tracked separately —
``registry.histogram("chain_stage_seconds").observe(0.2, chain="sciql",
stage="classify")``.

Histograms keep raw observations in a bounded ring buffer per label
set (newest ``max_observations`` win) and report exact percentile
summaries (p50/p95/p99) over the retained window — what the
5-minute-budget analysis of §4.2.1 needs, without letting long-running
services grow memory one float per observation forever.

Updates on a disabled registry are no-ops, so instrumented code does not
need its own guards.  All structures are lock-protected.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared plumbing: name, help text, per-label-set storage."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str = "", registry: Optional[
            "MetricsRegistry"
        ] = None
    ) -> None:
        self.name = name
        self.help = help
        self._registry = registry
        self._lock = threading.Lock()

    @property
    def _enabled(self) -> bool:
        return self._registry is None or self._registry.enabled

    def reset(self) -> None:
        raise NotImplementedError


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help="", registry=None) -> None:
        super().__init__(name, help, registry)
        self._values: Dict[LabelKey, float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        with self._lock:
            return sum(self._values.values())

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            return [(dict(k), v) for k, v in sorted(self._values.items())]

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name, help="", registry=None) -> None:
        super().__init__(name, help, registry)
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        if not self._enabled:
            return
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if not self._enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> List[Tuple[Dict[str, str], float]]:
        with self._lock:
            return [(dict(k), v) for k, v in sorted(self._values.items())]

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Histogram(_Instrument):
    """A distribution with exact percentile summaries.

    Each label set keeps its observations in a fixed-capacity ring
    buffer: once ``max_observations`` have arrived, every new sample
    silently displaces the oldest one.  Percentiles are exact over the
    retained window — for the stationary per-stage latencies recorded
    here, a trailing window of this size is statistically
    indistinguishable from the full stream, and memory stays bounded
    no matter how long a service runs.
    """

    kind = "histogram"

    #: Ring-buffer capacity per label set (newest win); a backstop for
    #: unbounded service runs, far above benchmark scale.  Read when a
    #: label set records its first observation.
    max_observations = 100_000

    #: Exemplars retained per label set (newest win) — enough to link a
    #: scraped percentile back to a handful of recent traces.
    max_exemplars = 8

    def __init__(self, name, help="", registry=None) -> None:
        super().__init__(name, help, registry)
        self._observations: Dict[LabelKey, Deque[float]] = {}
        self._total_counts: Dict[LabelKey, int] = {}
        self._exemplars: Dict[LabelKey, Deque[Dict[str, Any]]] = {}

    def observe(
        self,
        value: float,
        *,
        exemplar: Optional[str] = None,
        **labels: Any,
    ) -> None:
        """Record one observation.

        ``exemplar`` (keyword-only so it can never collide with a label
        name) is a trace id linking this observation back to the trace
        that produced it; the newest :attr:`max_exemplars` per label set
        are kept and exported alongside the summary.
        """
        if not self._enabled:
            return
        key = _label_key(labels)
        with self._lock:
            bucket = self._observations.get(key)
            if bucket is None:
                bucket = deque(maxlen=self.max_observations)
                self._observations[key] = bucket
            bucket.append(float(value))
            self._total_counts[key] = self._total_counts.get(key, 0) + 1
            if exemplar:
                ring = self._exemplars.get(key)
                if ring is None:
                    ring = deque(maxlen=self.max_exemplars)
                    self._exemplars[key] = ring
                ring.append(
                    {"trace_id": str(exemplar), "value": float(value)}
                )

    def exemplars(
        self, **labels: Any
    ) -> List[Dict[str, Any]]:
        """Retained exemplars for one label set, oldest first."""
        with self._lock:
            return list(self._exemplars.get(_label_key(labels), ()))

    def exemplar_samples(
        self,
    ) -> List[Tuple[Dict[str, str], List[Dict[str, Any]]]]:
        """(labels, exemplars) for every label set that has any."""
        with self._lock:
            return [
                (dict(k), list(v))
                for k, v in sorted(self._exemplars.items())
                if v
            ]

    def count(self, **labels: Any) -> int:
        """Observations currently retained for one label set."""
        with self._lock:
            return len(self._observations.get(_label_key(labels), ()))

    def total_count(self, **labels: Any) -> int:
        """Lifetime observations, including ones the ring displaced."""
        with self._lock:
            return self._total_counts.get(_label_key(labels), 0)

    def percentile(self, p: float, **labels: Any) -> float:
        """Exact percentile (linear interpolation); 0.0 when empty."""
        with self._lock:
            values = sorted(
                self._observations.get(_label_key(labels), ())
            )
        return _percentile(values, p)

    def summary(self, **labels: Any) -> Dict[str, float]:
        """count / sum / min / max / p50 / p95 / p99 for one label set."""
        with self._lock:
            values = sorted(
                self._observations.get(_label_key(labels), ())
            )
        return _summarise(values)

    def samples(
        self,
    ) -> List[Tuple[Dict[str, str], Dict[str, float]]]:
        """(labels, summary) for every label set."""
        with self._lock:
            items = [
                (dict(k), sorted(v))
                for k, v in sorted(self._observations.items())
            ]
        return [(labels, _summarise(vals)) for labels, vals in items]

    def reset(self) -> None:
        with self._lock:
            self._observations.clear()
            self._total_counts.clear()
            self._exemplars.clear()


def _percentile(sorted_values: List[float], p: float) -> float:
    if not sorted_values:
        return 0.0
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    n = len(sorted_values)
    if n == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (n - 1)
    lo = int(rank)
    hi = min(lo + 1, n - 1)
    frac = rank - lo
    return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac


def _summarise(sorted_values: List[float]) -> Dict[str, float]:
    if not sorted_values:
        return {
            "count": 0,
            "sum": 0.0,
            "min": 0.0,
            "max": 0.0,
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }
    return {
        "count": len(sorted_values),
        "sum": sum(sorted_values),
        "min": sorted_values[0],
        "max": sorted_values[-1],
        "p50": _percentile(sorted_values, 50.0),
        "p95": _percentile(sorted_values, 95.0),
        "p99": _percentile(sorted_values, 99.0),
    }


class MetricsRegistry:
    """Creates, deduplicates and snapshots instruments."""

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Instrument] = {}

    # -- creation ---------------------------------------------------------

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create("counter", name, help)  # type: ignore

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create("gauge", name, help)  # type: ignore

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get_or_create("histogram", name, help)  # type: ignore

    def _get_or_create(
        self, kind: str, name: str, help: str
    ) -> _Instrument:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {kind}"
                    )
                if help and not existing.help:
                    existing.help = help
                return existing
            metric = self._KINDS[kind](name, help, registry=self)
            self._metrics[name] = metric
            return metric

    # -- introspection ----------------------------------------------------

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._metrics.get(name)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._metrics)

    def collect(self) -> List[Dict[str, Any]]:
        """Snapshot of every instrument: name, kind, help, samples."""
        with self._lock:
            metrics = list(self._metrics.values())
        collected = []
        for m in sorted(metrics, key=lambda m: m.name):
            entry: Dict[str, Any] = {
                "name": m.name,
                "kind": m.kind,
                "help": m.help,
                "samples": m.samples(),  # type: ignore[attr-defined]
            }
            if isinstance(m, Histogram):
                exemplars = m.exemplar_samples()
                if exemplars:
                    entry["exemplars"] = exemplars
            collected.append(entry)
        return collected

    # -- state ------------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Clear recorded values (instrument definitions survive)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for m in metrics:
            m.reset()
