"""The SEVIRI Monitor: the pre-TELEIOS real-time data-stream manager (§2).

The paper describes a Python application that managed the raw MSG data
stream in the pre-TELEIOS architecture:

1. extract raw-file metadata into an **SQLite** catalog ("such a step is
   required as one image comprises multiple raw files, which might arrive
   out-of-order"),
2. filter files irrelevant to fire monitoring and dispatch the rest to a
   disk array for permanent storage,
3. trigger the processing chain once all segments of both IR bands of an
   acquisition have arrived.

This module reproduces that component over the HSIM segment format: an
:class:`SeviriMonitor` watches an incoming directory, catalogues segment
headers in SQLite (header-only reads — no payload decompression), archives
relevant files, discards non-applicable bands, and yields ready-to-process
acquisitions.
"""

from __future__ import annotations

import glob
import logging
import os
import shutil
import sqlite3
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

from repro.arraydb.errors import VaultError
from repro.faults import DeadLetterBox
from repro.obs import get_metrics, get_tracer
from repro.perf.parallel import map_outcomes
from repro.seviri.hrit import DECODE_WORKERS, image_metadata

#: The spectral bands the fire-monitoring chain consumes.
FIRE_BANDS = ("IR_039", "IR_108")

_log = logging.getLogger(__name__)
_tracer = get_tracer()
_metrics = get_metrics()

_SCHEMA = """
CREATE TABLE IF NOT EXISTS raw_files (
    path            TEXT PRIMARY KEY,
    sensor          TEXT NOT NULL,
    band            TEXT NOT NULL,
    acquired_at     TEXT NOT NULL,
    segment_index   INTEGER NOT NULL,
    segment_count   INTEGER NOT NULL,
    rows            INTEGER NOT NULL,
    cols            INTEGER NOT NULL,
    registered_at   TEXT NOT NULL,
    dispatched      INTEGER NOT NULL DEFAULT 0
);
CREATE INDEX IF NOT EXISTS idx_raw_files_image
    ON raw_files (sensor, band, acquired_at);
"""


@dataclass(frozen=True)
class ReadyAcquisition:
    """An acquisition ready for the processing chain.

    Normally both IR bands are present; an acquisition dispatched by
    :meth:`SeviriMonitor.dispatch_stale` lists the band(s) that never
    arrived in ``missing_bands`` — the service runtime then processes it
    in documented single-band degraded mode.
    """

    sensor: str
    timestamp: datetime
    band_paths: Dict[str, Tuple[str, ...]]
    missing_bands: Tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return not self.missing_bands

    @property
    def chain_input(self) -> Tuple[Sequence[str], Sequence[str]]:
        """(IR 3.9 paths, IR 10.8 paths) as the chains expect them."""
        return (
            list(self.band_paths.get("IR_039", ())),
            list(self.band_paths.get("IR_108", ())),
        )


class SeviriMonitor:
    """Watches an incoming directory and manages the raw data stream."""

    def __init__(
        self,
        incoming_dir: str,
        archive_dir: str,
        db_path: str = ":memory:",
        relevant_bands: Sequence[str] = FIRE_BANDS,
        dead_letter_dir: Optional[str] = None,
    ) -> None:
        self.incoming_dir = incoming_dir
        self.archive_dir = archive_dir
        self.relevant_bands = tuple(relevant_bands)
        os.makedirs(archive_dir, exist_ok=True)
        #: Quarantine for undecodable segment files.  They used to be
        #: left in the incoming directory (and re-parsed on every scan);
        #: now each is moved here once, with a reason record.
        self.dead_letters = DeadLetterBox(
            dead_letter_dir
            if dead_letter_dir is not None
            else os.path.join(archive_dir, "dead_letter")
        )
        self._db = sqlite3.connect(db_path)
        self._db.executescript(_SCHEMA)
        #: Files ignored because their band is irrelevant to the scenario.
        self.filtered_count = 0
        #: Files whose header could not be parsed.
        self.rejected_count = 0

    # -- step 1: metadata extraction --------------------------------------

    def scan(self) -> int:
        """Catalogue new segment files; returns how many were registered.

        Only the fixed-size header of each file is read — the compressed
        payload stays untouched (the paper's metadata-extraction step).
        """
        with _tracer.measure("monitor.scan") as span:
            registered = self._scan_incoming()
            span.set(registered=registered)
        if _metrics.enabled:
            _metrics.histogram(
                "monitor_scan_seconds",
                "Wall seconds per incoming-directory scan "
                "(header-only metadata decode)",
            ).observe(span.duration)
        return registered

    def _scan_incoming(self) -> int:
        registered = 0
        new_paths = [
            path
            for path in sorted(
                glob.glob(os.path.join(self.incoming_dir, "*.hsim"))
            )
            if not self._known(path)
        ]
        # Header parsing (open + read + unpack, all GIL-releasing I/O)
        # fans out across threads; everything stateful — the SQLite
        # catalog, the counters, file deletion — stays on this thread,
        # in sorted path order, exactly as the serial scan behaved.
        headers = map_outcomes(
            lambda p: image_metadata([p])[0],
            new_paths,
            max_workers=DECODE_WORKERS,
            name="hsim-scan",
        )
        for path, header in zip(new_paths, headers):
            if isinstance(header, (VaultError, OSError)):
                self.rejected_count += 1
                if _metrics.enabled:
                    _metrics.counter(
                        "monitor_segments_dropped_total",
                        "Segment files dropped by the monitor",
                    ).inc(reason="unparseable")
                if os.path.exists(path):
                    self.dead_letters.quarantine(
                        path,
                        reason="unparseable-header",
                        site="monitor.scan",
                        error=header,
                    )
                continue
            if isinstance(header, Exception):
                raise header
            if header.band not in self.relevant_bands:
                # Step 2a: disregard non-applicable data.
                self.filtered_count += 1
                if _metrics.enabled:
                    _metrics.counter(
                        "monitor_segments_dropped_total",
                        "Segment files dropped by the monitor",
                    ).inc(reason="irrelevant_band")
                _log.debug(
                    "monitor filtered %s segment %s",
                    header.band,
                    os.path.basename(path),
                )
                os.remove(path)
                continue
            self._db.execute(
                "INSERT INTO raw_files (path, sensor, band, acquired_at,"
                " segment_index, segment_count, rows, cols, registered_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    path,
                    header.sensor,
                    header.band,
                    header.timestamp.isoformat(),
                    header.segment_index,
                    header.segment_count,
                    header.rows,
                    header.cols,
                    datetime.now(timezone.utc).isoformat(),
                ),
            )
            registered += 1
        self._db.commit()
        if registered and _metrics.enabled:
            _metrics.counter(
                "monitor_segments_received_total",
                "Segment files catalogued by the monitor",
            ).inc(registered)
        return registered

    def _known(self, path: str) -> bool:
        row = self._db.execute(
            "SELECT 1 FROM raw_files WHERE path = ?", (path,)
        ).fetchone()
        return row is not None

    # -- step 2: completeness + dispatch ------------------------------------

    def complete_images(self) -> List[Tuple[str, str, str]]:
        """(sensor, band, acquired_at) keys whose segments all arrived."""
        rows = self._db.execute(
            "SELECT sensor, band, acquired_at, COUNT(*), MAX(segment_count)"
            " FROM raw_files WHERE dispatched = 0"
            " GROUP BY sensor, band, acquired_at"
        ).fetchall()
        return [
            (sensor, band, acquired)
            for sensor, band, acquired, have, want in rows
            if have == want
        ]

    def dispatch_ready(self) -> List[ReadyAcquisition]:
        """Archive and hand over acquisitions whose *both* IR bands are
        complete (the chain needs 3.9 and 10.8 together)."""
        with _tracer.span("monitor.dispatch") as span:
            ready = self._dispatch_ready()
            span.set(acquisitions=len(ready))
        if ready:
            if _metrics.enabled:
                _metrics.counter(
                    "monitor_acquisitions_assembled_total",
                    "Complete two-band acquisitions handed to the chain",
                ).inc(len(ready))
            for acquisition in ready:
                _log.info(
                    "monitor dispatched acquisition %s %s (%d segments)",
                    acquisition.sensor,
                    acquisition.timestamp,
                    sum(len(p) for p in acquisition.band_paths.values()),
                )
        return ready

    def _dispatch_ready(self) -> List[ReadyAcquisition]:
        complete = self.complete_images()
        by_acquisition: Dict[Tuple[str, str], Dict[str, bool]] = {}
        for sensor, band, acquired in complete:
            by_acquisition.setdefault((sensor, acquired), {})[band] = True
        ready: List[ReadyAcquisition] = []
        for (sensor, acquired), bands in sorted(by_acquisition.items()):
            if not all(b in bands for b in self.relevant_bands):
                continue
            band_paths: Dict[str, Tuple[str, ...]] = {}
            for band in self.relevant_bands:
                paths = [
                    row[0]
                    for row in self._db.execute(
                        "SELECT path FROM raw_files WHERE sensor = ? AND"
                        " band = ? AND acquired_at = ? AND dispatched = 0"
                        " ORDER BY segment_index",
                        (sensor, band, acquired),
                    )
                ]
                archived = tuple(self._archive(p) for p in paths)
                band_paths[band] = archived
                for old, new in zip(paths, archived):
                    self._db.execute(
                        "UPDATE raw_files SET path = ?, dispatched = 1"
                        " WHERE path = ?",
                        (new, old),
                    )
            self._db.commit()
            ready.append(
                ReadyAcquisition(
                    sensor=sensor,
                    timestamp=datetime.fromisoformat(acquired),
                    band_paths=band_paths,
                )
            )
        return ready

    def dispatch_stale(
        self, older_than: datetime
    ) -> List[ReadyAcquisition]:
        """Give up waiting for acquisitions older than ``older_than``.

        An acquisition whose 3.9 *or* 10.8 µm band completed but whose
        other band never (fully) arrived would block in the catalog
        forever.  This dispatches every such acquisition acquired before
        ``older_than`` in **single-band degraded mode**: the complete
        band is archived and handed over, the stragglers of the missing
        band are marked dispatched so they are never assembled, and
        ``missing_bands`` tells the service runtime what is gone.
        """
        if older_than.tzinfo is None:
            older_than = older_than.replace(tzinfo=timezone.utc)
        by_acquisition: Dict[Tuple[str, str], List[str]] = {}
        for sensor, band, acquired in self.complete_images():
            by_acquisition.setdefault((sensor, acquired), []).append(band)
        ready: List[ReadyAcquisition] = []
        for (sensor, acquired), bands in sorted(by_acquisition.items()):
            missing = tuple(
                b for b in self.relevant_bands if b not in bands
            )
            if not missing:
                continue  # fully complete: dispatch_ready's job
            if datetime.fromisoformat(acquired) >= older_than:
                continue  # still within its grace period
            band_paths: Dict[str, Tuple[str, ...]] = {}
            for band in bands:
                paths = [
                    row[0]
                    for row in self._db.execute(
                        "SELECT path FROM raw_files WHERE sensor = ? AND"
                        " band = ? AND acquired_at = ? AND dispatched = 0"
                        " ORDER BY segment_index",
                        (sensor, band, acquired),
                    )
                ]
                archived = tuple(self._archive(p) for p in paths)
                band_paths[band] = archived
                for old, new in zip(paths, archived):
                    self._db.execute(
                        "UPDATE raw_files SET path = ?, dispatched = 1"
                        " WHERE path = ?",
                        (new, old),
                    )
            # Stragglers of the missing band(s) must not resurrect the
            # acquisition if they trickle in after we gave up on it.
            self._db.execute(
                "UPDATE raw_files SET dispatched = 1"
                " WHERE sensor = ? AND acquired_at = ?",
                (sensor, acquired),
            )
            self._db.commit()
            if _metrics.enabled:
                _metrics.counter(
                    "monitor_acquisitions_stale_total",
                    "Acquisitions dispatched single-band after their "
                    "grace period",
                ).inc()
            _log.warning(
                "monitor dispatched STALE acquisition %s %s without %s",
                sensor,
                acquired,
                "/".join(missing),
            )
            ready.append(
                ReadyAcquisition(
                    sensor=sensor,
                    timestamp=datetime.fromisoformat(acquired),
                    band_paths=band_paths,
                    missing_bands=missing,
                )
            )
        return ready

    def _archive(self, path: str) -> str:
        """Move a segment file to the permanent disk array."""
        target = os.path.join(self.archive_dir, os.path.basename(path))
        shutil.move(path, target)
        return target

    # -- introspection -----------------------------------------------------

    def pending_images(self) -> List[Tuple[str, str, str, int, int]]:
        """Images still waiting for segments: (sensor, band, acquired_at,
        have, want)."""
        rows = self._db.execute(
            "SELECT sensor, band, acquired_at, COUNT(*), MAX(segment_count)"
            " FROM raw_files WHERE dispatched = 0"
            " GROUP BY sensor, band, acquired_at"
        ).fetchall()
        return [r for r in rows if r[3] < r[4]]

    def catalog_size(self) -> int:
        (count,) = self._db.execute(
            "SELECT COUNT(*) FROM raw_files"
        ).fetchone()
        return int(count)

    def close(self) -> None:
        self._db.close()

    def __enter__(self) -> "SeviriMonitor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
