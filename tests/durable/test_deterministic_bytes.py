"""Durable bytes are a function of the input.

Two fresh processes, each with its own string-hash seed and memory
layout, run the same durable acquisition stream — the benchmark's
crisis-shaped geography and federated sources — and must leave
byte-identical ``graph.ckpt`` and ``wal.log`` files.  Term ids follow
add order, so any insert order that depended on set iteration (the
R-tree candidates of the Municipalities refinement, say) would show up
here as different ids, and so different bytes.  The same holds for the
subscriber logs: two processes running one subscriber stream
(:mod:`tests.durable.subscriber_stream`, subscription ids fixed) must
leave byte-identical ``notifications.log`` and ``registry.log``.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

_CHILD = """
import sys
from datetime import datetime, timedelta, timezone

from repro.core.config import RunOptions, ServiceConfig
from repro.core.service import FireMonitoringService
from repro.datasets import SyntheticGreece
from repro.seviri.fires import FireSeason

start = datetime(2007, 8, 24, 10, 0, tzinfo=timezone.utc)
greece = SyntheticGreece(
    seed=42, detail=2, municipality_count=150, land_cover_count=200
)
season = FireSeason(greece, start.replace(hour=0), days=3, seed=7)
service = FireMonitoringService(
    greece=greece,
    config=ServiceConfig(
        state_dir=sys.argv[1],
        wal_fsync="never",
        checkpoint_interval=3,
        sources={"seed": 7, "polar_revisit_minutes": 15},
    ),
)
outcomes = service.run(
    [start + timedelta(minutes=15 * k) for k in range(4)],
    RunOptions(season=season, on_error="raise"),
)
assert [o.status for o in outcomes] == ["ok"] * 4, outcomes
service.close()
"""


_SUBSCRIBER_CHILD = """
import sys

from tests.durable.subscriber_stream import write_state

write_state(sys.argv[1])
"""


_SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
#: The repository root, for the child's ``tests`` imports.
_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


def _run_twice(tmp_path, script, names):
    """Run ``script`` in two processes with different hash seeds; the
    bytes of ``names`` (paths under each one's state dir) they left."""
    path = os.pathsep.join([_SRC, _ROOT])
    children = []
    for hash_seed in ("1", "2"):
        state_dir = str(tmp_path / f"state-{hash_seed}")
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        children.append(
            (
                state_dir,
                subprocess.Popen(
                    [sys.executable, "-c", script, state_dir],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.STDOUT,
                ),
            )
        )
    files = []
    for state_dir, child in children:
        output, _ = child.communicate(timeout=120)
        assert child.returncode == 0, output.decode(errors="replace")
        files.append(
            {
                name: open(os.path.join(state_dir, name), "rb").read()
                for name in names
            }
        )
    return files


def test_two_processes_write_identical_durable_bytes(tmp_path):
    checkpoint, wal = "durable/graph.ckpt", "durable/wal.log"
    first, second = _run_twice(tmp_path, _CHILD, [checkpoint, wal])
    # The stream leaves one record past the last checkpoint.
    assert len(first[wal]) > 100
    assert first[checkpoint] == second[checkpoint]
    assert first[wal] == second[wal]


def test_two_processes_write_identical_subscriber_bytes(tmp_path):
    first, second = _run_twice(
        tmp_path, _SUBSCRIBER_CHILD, ["notifications.log", "registry.log"]
    )
    assert len(first["notifications.log"]) > 1000
    assert len(first["registry.log"]) > 1000
    assert first == second
