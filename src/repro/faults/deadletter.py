"""The dead-letter box: quarantine for undecodable input files.

Operational EO pipelines never delete suspicious downlink data — a
corrupt segment is moved aside with a machine-readable *reason record*
so an operator (or a later reprocessing run) can triage it, while the
acquisition it belonged to continues in degraded mode.

Each quarantined file ``F`` lands in the dead-letter directory next to
a sidecar ``F.reason.json`` holding the reason, the fault site, the
error text and a UTC timestamp.  Quarantining is atomic per file
(a rename when source and target share a filesystem); colliding names
are disambiguated, and records are re-readable from disk by any
process.
"""

from __future__ import annotations

import json
import logging
import os
import shutil
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from typing import List, Optional

from repro.obs import get_flight_recorder, get_metrics

_log = logging.getLogger(__name__)
_metrics = get_metrics()

__all__ = ["DeadLetterRecord", "DeadLetterBox"]

_SIDECAR_SUFFIX = ".reason.json"


@dataclass(frozen=True)
class DeadLetterRecord:
    """Why one file was quarantined."""

    original_path: str
    quarantined_path: str
    reason: str
    site: str
    error: str
    quarantined_at: str  # ISO-8601 UTC

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


class DeadLetterBox:
    """A directory of quarantined files plus their reason records."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def quarantine(
        self,
        path: str,
        reason: str,
        site: str = "",
        error: Optional[BaseException] = None,
    ) -> DeadLetterRecord:
        """Move ``path`` into the box and write its reason sidecar."""
        target = os.path.join(self.directory, os.path.basename(path))
        stem, ext = os.path.splitext(target)
        serial = 0
        while os.path.exists(target):
            serial += 1
            target = f"{stem}.{serial}{ext}"
        shutil.move(path, target)
        record = DeadLetterRecord(
            original_path=path,
            quarantined_path=target,
            reason=reason,
            site=site,
            error="" if error is None else f"{type(error).__name__}: {error}",
            quarantined_at=datetime.now(timezone.utc).isoformat(),
        )
        with open(target + _SIDECAR_SUFFIX, "w") as f:
            f.write(record.to_json())
        if _metrics.enabled:
            _metrics.counter(
                "dead_letter_total",
                "Input files quarantined with a reason record",
            ).inc(reason=reason)
        get_flight_recorder().record(
            "deadletter",
            reason,
            path=path,
            site=site,
            error=record.error,
        )
        _log.warning(
            "dead-lettered %s (%s): %s", path, reason, record.error
        )
        return record

    def records(self) -> List[DeadLetterRecord]:
        """Every reason record in the box (re-read from disk, so records
        written by forked workers are visible to the parent)."""
        out: List[DeadLetterRecord] = []
        for name in sorted(os.listdir(self.directory)):
            if not name.endswith(_SIDECAR_SUFFIX):
                continue
            with open(os.path.join(self.directory, name)) as f:
                out.append(DeadLetterRecord(**json.load(f)))
        return out

    def __len__(self) -> int:
        return sum(
            1
            for name in os.listdir(self.directory)
            if name.endswith(_SIDECAR_SUFFIX)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DeadLetterBox({self.directory!r}, {len(self)} record(s))"
