"""Service-level objectives and error-budget burn rates.

An :class:`SLO` states "fraction ``objective`` of events must be good"
(e.g. 0.99 of acquisitions finish inside the 300 s SEVIRI budget).  The
:class:`SloEngine` keeps running ``(bad, total)`` counts of the
(timestamp, good) events inside each SLO's short and long windows and
computes the **burn rate** of each:

    burn_rate(window) = bad_fraction(window) / (1 - objective)

Events expire from the counts as they age out — on every record and
on every read — so a burn rate costs O(1) amortised however many
events the window holds, and equals a recount over the retained
events.

A burn rate of 1.0 consumes the error budget exactly as fast as the
objective allows; sustained rates above the per-SLO threshold on *both*
windows (the classic multi-window rule — the short window makes alerts
fast, the long window makes them sticky against blips) flip the SLO to
``burning`` and fire a structured alert event to every registered
``on_alert`` callback; dropping below on both windows fires a
``recovered`` event.

The engine exports ``slo_burn_rate{slo,window}`` gauges and
``slo_events_total`` / ``slo_alerts_total`` counters into the global
registry, and its :meth:`status` dict is embedded in ``health()``.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

__all__ = [
    "SLO",
    "SloEngine",
    "ACQUISITION_SLO",
    "NOTIFICATION_SLO",
    "NOTIFY_LATENCY_SLO_S",
    "SERVING_SLO",
    "SERVE_LATENCY_SLO_S",
    "default_service_slos",
]

#: Serving-latency objective threshold: a read must answer inside this
#: many seconds to count as good (generous for the stdlib HTTP tier;
#: the point is the budget math, not the absolute number).
SERVE_LATENCY_SLO_S = 0.25


@dataclass(frozen=True)
class SLO:
    """One objective: ``objective`` fraction of events must be good."""

    name: str
    objective: float
    description: str = ""
    #: Fast window — catches active burns quickly.
    short_window_s: float = 300.0
    #: Slow window — keeps one blip from flapping the alert.
    long_window_s: float = 3600.0
    #: Both windows must burn faster than this to alert.
    burn_rate_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective}"
            )


ACQUISITION_SLO = SLO(
    name="acquisition-budget",
    objective=0.99,
    description=(
        "Acquisitions complete (non-error) inside the 300 s SEVIRI "
        "cycle budget"
    ),
)

SERVING_SLO = SLO(
    name="serving-latency",
    objective=0.95,
    description=(
        f"HTTP reads answer non-5xx within {SERVE_LATENCY_SLO_S:g} s"
    ),
)

#: Notification-delivery objective threshold: commit-to-fanout wall
#: time per publication batch.  Generous against the 300 s acquisition
#: budget — the point is catching a systematically slow subscription
#: path, not shaving milliseconds.
NOTIFY_LATENCY_SLO_S = 1.0

NOTIFICATION_SLO = SLO(
    name="notification-delivery",
    objective=0.99,
    description=(
        "Subscription notification batches evaluated and fanned out "
        f"within {NOTIFY_LATENCY_SLO_S:g} s of the WAL commit"
    ),
)


def default_service_slos() -> List[SLO]:
    return [ACQUISITION_SLO, SERVING_SLO]


class _Window:
    """Running ``(bad, total)`` counts over one trailing window.

    ``events`` holds the ``(timestamp, good)`` events still inside the
    window, oldest first; an event leaves from the left when it ages
    past the window or when the engine's ``max_events`` cap evicts it,
    and the counts follow it out — so reading them never rescans.
    """

    __slots__ = ("span_s", "events", "bad")

    def __init__(self, span_s: float) -> None:
        self.span_s = span_s
        self.events: Deque[Tuple[float, bool]] = deque()
        self.bad = 0

    def add(self, now: float, good: bool, cap: int) -> None:
        while len(self.events) >= cap:
            self._drop()
        self.events.append((now, good))
        if not good:
            self.bad += 1

    def expire(self, now: float) -> None:
        # Events inside [now - span_s, now] count (the cutoff itself is
        # inside the window).
        cutoff = now - self.span_s
        events = self.events
        while events and events[0][0] < cutoff:
            self._drop()

    def _drop(self) -> None:
        _, good = self.events.popleft()
        if not good:
            self.bad -= 1

    def burn_rate(self, objective: float) -> float:
        total = len(self.events)
        if total == 0:
            return 0.0
        return (self.bad / total) / (1.0 - objective)

    def budget_remaining(self, objective: float) -> float:
        total = len(self.events)
        if total == 0:
            return 1.0
        budget = (1.0 - objective) * total
        return max(0.0, 1.0 - self.bad / budget) if budget > 0 else 0.0


class SloEngine:
    """Tracks events per SLO and computes rolling burn rates.

    Each SLO keeps running counts over its short and long windows:
    ``record`` adds the event to both and expires what aged out, reads
    expire against the clock first, and nothing ever rescans — a burn
    rate costs the same at 50 000 retained events as at none, and
    equals the recount over the newest ``max_events`` events.
    """

    #: Events retained per SLO (newest win) — a backstop far above
    #: what the long window needs at realistic event rates.
    max_events = 50_000

    def __init__(
        self,
        slos: Optional[List[SLO]] = None,
        clock: Callable[[], float] = time.monotonic,
        metrics=None,
    ) -> None:
        self._clock = clock
        self._metrics = metrics
        self._lock = threading.Lock()
        self._slos: Dict[str, SLO] = {}
        #: Per SLO: its (short, long) window counts.
        self._windows: Dict[str, Tuple[_Window, _Window]] = {}
        self._burning: Dict[str, bool] = {}
        #: Alert callbacks, each called with one structured event dict.
        self.on_alert: List[Callable[[Dict[str, Any]], None]] = []
        #: Structured alert events, in firing order (bounded).
        self.alerts: Deque[Dict[str, Any]] = deque(maxlen=256)
        for slo in slos if slos is not None else default_service_slos():
            self.register(slo)

    def _metrics_on(self) -> bool:
        """Export only when the registry exists *and* is enabled —
        touching a disabled registry would still create empty metric
        families, which the off-by-default contract forbids."""
        return self._metrics is not None and getattr(
            self._metrics, "enabled", True
        )

    def register(self, slo: SLO) -> None:
        """Add ``slo``; re-registering an equal SLO keeps its counts,
        a changed one restarts them."""
        with self._lock:
            if self._slos.get(slo.name) != slo:
                self._windows[slo.name] = (
                    _Window(slo.short_window_s),
                    _Window(slo.long_window_s),
                )
            self._slos[slo.name] = slo
            self._burning.setdefault(slo.name, False)

    def slos(self) -> List[SLO]:
        with self._lock:
            return list(self._slos.values())

    # -- event intake ------------------------------------------------------

    def record(
        self, name: str, good: bool, trace_id: Optional[str] = None
    ) -> Optional[Dict[str, Any]]:
        """Record one event; returns the alert fired, if any."""
        good = bool(good)
        with self._lock:
            slo = self._slos.get(name)
            if slo is None:
                raise KeyError(f"unknown SLO {name!r}")
            # The clock is read under the lock, so events enter every
            # window in timestamp order and expire from its left end.
            now = self._clock()
            short, long = self._windows[name]
            for window in (short, long):
                window.add(now, good, self.max_events)
                window.expire(now)
            short_rate = short.burn_rate(slo.objective)
            long_rate = long.burn_rate(slo.objective)
            threshold = slo.burn_rate_threshold
            burning = short_rate >= threshold and long_rate >= threshold
            flipped = burning != self._burning[name]
            self._burning[name] = burning
        if self._metrics_on():
            self._metrics.counter(
                "slo_events_total", "Events recorded per SLO"
            ).inc(slo=name, good=str(good).lower())
            gauge = self._metrics.gauge(
                "slo_burn_rate", "Error-budget burn rate per SLO window"
            )
            gauge.set(short_rate, slo=name, window="short")
            gauge.set(long_rate, slo=name, window="long")
        if not flipped:
            return None
        return self._alert(slo, burning, short_rate, long_rate, trace_id)

    # -- burn-rate math ----------------------------------------------------

    def _current(self, name: str) -> Tuple[SLO, _Window, _Window]:
        """The SLO and its windows, expired to now (lock held)."""
        slo = self._slos.get(name)
        if slo is None:
            raise KeyError(f"unknown SLO {name!r}")
        now = self._clock()
        short, long = self._windows[name]
        short.expire(now)
        long.expire(now)
        return slo, short, long

    def burn_rate(self, name: str, window_s: float) -> float:
        """bad_fraction / error_budget over the SLO's trailing window
        of ``window_s`` seconds — its short or its long window; any
        other span is a ValueError.

        0.0 when the window holds no events (no evidence of burning).
        """
        with self._lock:
            slo, short, long = self._current(name)
            if window_s == slo.short_window_s:
                window = short
            elif window_s == slo.long_window_s:
                window = long
            else:
                raise ValueError(
                    f"SLO {name!r} keeps windows of "
                    f"{slo.short_window_s:g} s and {slo.long_window_s:g} s,"
                    f" not {window_s:g} s"
                )
            return window.burn_rate(slo.objective)

    def budget_remaining(self, name: str) -> float:
        """Fraction of the long-window error budget still unspent."""
        with self._lock:
            slo, _, long = self._current(name)
            return long.budget_remaining(slo.objective)

    # -- alerting ----------------------------------------------------------

    def _alert(
        self,
        slo: SLO,
        burning: bool,
        short: float,
        long: float,
        trace_id: Optional[str],
    ) -> Dict[str, Any]:
        alert = {
            "kind": "slo_alert",
            "slo": slo.name,
            "state": "burning" if burning else "recovered",
            "short_burn_rate": round(short, 4),
            "long_burn_rate": round(long, 4),
            "threshold": slo.burn_rate_threshold,
            "trace_id": trace_id,
        }
        self.alerts.append(alert)
        if self._metrics_on():
            self._metrics.counter(
                "slo_alerts_total", "SLO alert transitions"
            ).inc(slo=slo.name, state=alert["state"])
        for callback in list(self.on_alert):
            try:
                callback(alert)
            except Exception:  # noqa: BLE001 - alerting must not raise
                pass
        return alert

    def is_burning(self, name: str) -> bool:
        with self._lock:
            return self._burning.get(name, False)

    # -- reporting ---------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Per-SLO burn rates and budget — the ``health()`` block."""
        out: Dict[str, Any] = {}
        with self._lock:
            for name in self._slos:
                slo, short, long = self._current(name)
                out[name] = {
                    "objective": slo.objective,
                    "events": len(long.events),
                    "bad_events": long.bad,
                    "short_burn_rate": round(
                        short.burn_rate(slo.objective), 4
                    ),
                    "long_burn_rate": round(
                        long.burn_rate(slo.objective), 4
                    ),
                    "budget_remaining": round(
                        long.budget_remaining(slo.objective), 4
                    ),
                    "burning": self._burning[name],
                }
        return out
