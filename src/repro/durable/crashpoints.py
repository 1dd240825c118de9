"""Deterministic crash injection for the durability commit path.

The WAL, the checkpoint writer, the service commit sequence and the
atomic JSON writer (``service.json``, once per open, before the store)
call :func:`crash` (or :func:`fire` where the crash needs a
deliberately torn write first) at *named* points.  A test arms exactly one point
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
name in :data:`REGISTRY` is exercised by
``tests/durable/test_crash_matrix.py``.  The two registry-log fold
points sit off the commit path and are exercised by
``tests/durable/test_cursors.py``.
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

#: Every named crashpoint: the per-acquisition commit path in commit
#: order, then the one ``service.json`` write of an open (on a first
#: open, before the baseline checkpoint).
REGISTRY: Dict[str, str] = {
    "wal.append.torn": (
        "mid-WAL-append: the record frame is half-written (torn tail)"
    ),
    "wal.append.pre-sync": (
        "WAL record fully written but not yet fsynced"
    ),
    "commit.pre-publish": (
        "after the WAL commit point, before the snapshot publish"
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
    "service-checkpoint.torn": (
        "mid-service.json write of an open: temp file half-written"
    ),
    "service-checkpoint.pre-rename": (
        "service.json temp complete, before the atomic rename"
    ),
}

#: Crashpoints off the acquisition commit path, either side of the
#: subscription registry log's fold.  The crash matrix walks
#: :data:`REGISTRY` with a service that takes no acks, so the registry
#: log's own tests crash at these instead.
_FOLD_POINTS: Dict[str, str] = {
    "registry-fold.pre-rewrite": (
        "registry-log fold due, before the atomic rewrite"
    ),
    "registry-fold.post-rewrite": (
        "registry log rewritten as one record, before the change "
        "that triggered the fold returns"
    ),
}

_armed: Optional[Tuple[str, int]] = None
_passes: int = 0


def arm(name: str, hits: int = 1) -> None:
    """Arm ``name``: the ``hits``-th pass through it aborts the process.

    ``hits`` lets a test skip passes that happen during service
    construction (the baseline graph checkpoint) and crash on a
    specific acquisition's commit instead.
    """
    global _armed, _passes
    if name not in REGISTRY and name not in _FOLD_POINTS:
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
