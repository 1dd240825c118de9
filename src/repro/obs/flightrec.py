"""Always-on crash flight recorder.

A bounded ring of the most recent spans, events, errors and degradation
steps in this process.  Unlike the tracer it is **always on** — the ring
is small and appending to a deque is cheap — so a crash always leaves a
usable record even when full tracing is disabled.

On crash (armed :mod:`repro.durable.crashpoints` sites, unhandled-error
paths) the ring is dumped atomically — write to a temp file, fsync,
rename — as JSON under ``state_dir/flightrec/``.  The next
``FireMonitoringService.open()`` loads the latest dump, records a
recovery span, and surfaces the crash site in ``health()``.

Dump schema (``repro.obs/flightrec/v1``)::

    {"schema": "...", "pid": ..., "reason": "crashpoint:commit.pre-publish",
     "dumped_at": <unix time>, "events": [{"t": ..., "kind": ...,
     "name": ..., "trace_id": ..., "detail": {...}}, ...]}

The last event of a crashpoint dump is always the ``crash`` event
naming the site — the crash-matrix tests assert exactly that.
"""

from __future__ import annotations

import collections
import json
import os
import threading
import time
from typing import Any, Deque, Dict, List, Optional

__all__ = [
    "FlightRecorder",
    "get_flight_recorder",
    "record",
    "load_dump",
    "list_dumps",
    "latest_dump",
    "DUMP_SCHEMA",
]

DUMP_SCHEMA = "repro.obs/flightrec/v1"

#: Default ring capacity — enough to cover several acquisitions of
#: spans plus the fault/degradation chatter that preceded a crash.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded in-memory event ring with atomic crash dumps."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._events: Deque[Dict[str, Any]] = collections.deque(
            maxlen=capacity
        )
        #: Directory dumps land in (``configure``); ``None`` until the
        #: service opens durable state — ``dump`` then needs an explicit
        #: path.
        self.dump_dir: Optional[str] = None

    # -- recording --------------------------------------------------------

    def record(
        self,
        kind: str,
        name: str,
        trace_id: Optional[str] = None,
        **detail: Any,
    ) -> Dict[str, Any]:
        """Append one event to the ring; never raises."""
        event = {
            "t": time.time(),
            "kind": kind,
            "name": name,
            "trace_id": trace_id,
        }
        if detail:
            event["detail"] = detail
        with self._lock:
            self._events.append(event)
        return event

    def record_span(self, span: Any) -> None:
        """Summarise a finished span into the ring (no attributes)."""
        self.record(
            "span",
            span.name,
            trace_id=getattr(span, "trace_id", None),
            duration_s=round(span.duration, 6),
            status=span.status,
            **({"error": span.error} if span.error else {}),
        )

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def clear(self) -> None:
        with self._lock:
            self._events.clear()

    # -- lifecycle --------------------------------------------------------

    def configure(self, dump_dir: str) -> None:
        """Set (and create) the directory crash dumps are written to."""
        os.makedirs(dump_dir, exist_ok=True)
        self.dump_dir = dump_dir

    def reset_after_fork(self) -> None:
        """Fresh lock and empty ring for a forked child.

        The inherited events belong to the parent's story; the child
        starts its own.  ``dump_dir`` is kept so a crashing worker still
        dumps next to the service's state.
        """
        self._lock = threading.Lock()
        self._events = collections.deque(maxlen=self.capacity)

    # -- dumping ----------------------------------------------------------

    def dump(
        self, reason: str, path: Optional[str] = None
    ) -> Optional[str]:
        """Atomically write the ring as JSON; returns the path.

        Best-effort by design: returns ``None`` (never raises) when no
        destination is known or the write fails — a crash handler must
        not die in its own handler.
        """
        try:
            if path is None:
                if self.dump_dir is None:
                    return None
                path = os.path.join(
                    self.dump_dir,
                    f"flightrec-{int(time.time() * 1000)}-{os.getpid()}.json",
                )
            payload = {
                "schema": DUMP_SCHEMA,
                "pid": os.getpid(),
                "reason": reason,
                "dumped_at": time.time(),
                "events": self.events(),
            }
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "w") as f:
                json.dump(payload, f, sort_keys=True)
                f.flush()
                os.fsync(f.fileno())
            os.replace(tmp, path)
            return path
        except OSError:
            return None


# -- process-global recorder ----------------------------------------------

_RECORDER = FlightRecorder()


def get_flight_recorder() -> FlightRecorder:
    """The process-global flight recorder (always on)."""
    return _RECORDER


def record(
    kind: str, name: str, trace_id: Optional[str] = None, **detail: Any
) -> Dict[str, Any]:
    """Append an event to the global recorder."""
    return _RECORDER.record(kind, name, trace_id=trace_id, **detail)


# -- reading dumps back ----------------------------------------------------


def load_dump(path: str) -> Dict[str, Any]:
    """Parse one dump file; raises ``ValueError`` on schema mismatch."""
    with open(path) as f:
        payload = json.load(f)
    if payload.get("schema") != DUMP_SCHEMA:
        raise ValueError(
            f"not a flight-recorder dump (schema={payload.get('schema')!r})"
        )
    return payload


def list_dumps(dump_dir: str) -> List[str]:
    """Dump paths under ``dump_dir``, oldest first; [] when absent."""
    try:
        names = os.listdir(dump_dir)
    except OSError:
        return []
    return sorted(
        os.path.join(dump_dir, n)
        for n in names
        if n.startswith("flightrec-") and n.endswith(".json")
    )


def latest_dump(dump_dir: str) -> Optional[Dict[str, Any]]:
    """The newest readable dump in ``dump_dir`` (with its ``path``)."""
    for path in reversed(list_dumps(dump_dir)):
        try:
            payload = load_dump(path)
        except (OSError, ValueError):
            continue
        payload["path"] = path
        return payload
    return None
