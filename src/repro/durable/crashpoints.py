"""Deterministic crash injection for the durability commit path.

The WAL, checkpoint writer and service commit sequence call
:func:`crash` (or :func:`fire` where the crash needs a deliberately
torn write first) at *named* points.  A test arms exactly one point
with :func:`arm` — optionally "crash only on the Nth pass" — forks the
process, and the child aborts with ``os._exit(CRASH_EXIT)`` the moment
execution reaches the armed point.  The parent then recovers from the
on-disk state and compares against a never-crashed oracle.

``os._exit`` is the point: no ``atexit`` handlers, no buffered-stream
flushing, no interpreter teardown — the closest a test can get to
``kill -9`` while still choosing the exact instruction boundary.
Unarmed, every point is a cheap no-op (one global ``is None`` check),
so production code paths pay nothing.

The registry doubles as the crash-matrix test's parameter list: every
name registered here is exercised by
``tests/durable/test_crash_matrix.py``.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

__all__ = [
    "CRASH_EXIT",
    "REGISTRY",
    "arm",
    "disarm",
    "armed",
    "fire",
    "crash",
    "die",
]

#: Exit status of an injected crash — distinguishable from real crashes
#: (segfaults, unhandled exceptions) in the forking test harness.
CRASH_EXIT = 86

#: Every named crashpoint in the commit path, in commit order.
REGISTRY: Dict[str, str] = {
    "wal.append.torn": (
        "mid-WAL-append: the record frame is half-written (torn tail)"
    ),
    "wal.append.pre-sync": (
        "WAL record fully written but not yet fsynced"
    ),
    "commit.post-wal": (
        "after the WAL commit point, before the service checkpoint"
    ),
    "service-checkpoint.torn": (
        "mid-service-checkpoint: temp file half-written"
    ),
    "service-checkpoint.pre-rename": (
        "service checkpoint temp complete, before the atomic rename"
    ),
    "commit.pre-publish": (
        "service checkpoint durable, before the snapshot publish"
    ),
    "commit.post-publish": (
        "snapshot published, before periodic graph compaction"
    ),
    "graph-checkpoint.torn": (
        "mid-graph-checkpoint: temp file half-written"
    ),
    "graph-checkpoint.pre-rename": (
        "graph checkpoint temp complete, before the atomic rename"
    ),
    "graph-checkpoint.post-rename": (
        "graph checkpoint renamed in, before the WAL reset"
    ),
}

_armed: Optional[Tuple[str, int]] = None
_passes: int = 0


def arm(name: str, hits: int = 1) -> None:
    """Arm ``name``: the ``hits``-th pass through it aborts the process.

    ``hits`` lets a test skip passes that happen during service
    construction (the baseline checkpoint, the initial service state
    write) and crash on a specific acquisition's commit instead.
    """
    global _armed, _passes
    if name not in REGISTRY:
        raise ValueError(f"unknown crashpoint {name!r}")
    if hits < 1:
        raise ValueError("hits must be >= 1")
    _armed = (name, hits)
    _passes = 0


def disarm() -> None:
    """Disarm whatever is armed (no-op when nothing is)."""
    global _armed, _passes
    _armed = None
    _passes = 0


def armed() -> Optional[str]:
    """Name of the armed crashpoint, or None."""
    return None if _armed is None else _armed[0]


def fire(name: str) -> bool:
    """Count one pass through ``name``; True when the caller must now
    crash.  Used directly by sites that tear a write before dying;
    everything else uses :func:`crash`."""
    global _passes
    if _armed is None or _armed[0] != name:
        return False
    if name not in REGISTRY:  # pragma: no cover - arm() already checks
        raise ValueError(f"unknown crashpoint {name!r}")
    _passes += 1
    return _passes >= _armed[1]


def crash(name: str) -> None:
    """Abort the process here when ``name`` is armed and due."""
    if fire(name):
        die(site=name)


def die(site: Optional[str] = None) -> None:
    """The abort itself — skips all interpreter teardown.

    Before exiting, the flight recorder gets one final ``crash`` event
    naming the site and dumps its ring to ``state_dir/flightrec/`` —
    best-effort (a failed dump never blocks the abort), but the atomic
    tmp-write + rename means any dump that exists is complete, with the
    crash event as its last entry.
    """
    try:
        from repro.obs.flightrec import get_flight_recorder

        recorder = get_flight_recorder()
        recorder.record(
            "crash",
            site if site is not None else "<unnamed>",
            pid=os.getpid(),
        )
        recorder.dump(
            f"crashpoint:{site}" if site is not None else "crash"
        )
    except Exception:  # noqa: BLE001 - dying is the contract
        pass
    os._exit(CRASH_EXIT)
