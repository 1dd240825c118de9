"""An HRIT-like segmented binary image format.

Real MSG data arrives as High Rate Information Transmission files: one
image is split across several wavelet-compressed segment files that may
arrive out of order.  We reproduce the structure with a compact binary
format ("HSIM"): fixed-size header + zlib-compressed uint16 payload
(brightness temperature × 100), one file per row-band segment.

The module also provides :class:`HRITDriver`, the Data-Vault format driver
that materialises an attached image (a directory of segments or a single
segment file) into a SciQL array.
"""

from __future__ import annotations

import glob
import os
import struct
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arraydb.array import Dimension, SciQLArray
from repro.arraydb.catalog import Catalog
from repro.arraydb.errors import VaultError
from repro.arraydb.types import DOUBLE

MAGIC = b"HSIM"
VERSION = 1
_HEADER_FMT = ">4sHH16s8sqiiHHd"
_HEADER_SIZE = struct.calcsize(_HEADER_FMT)

#: Temperatures are stored as uint16 centikelvin.
_SCALE = 100.0

#: Threads decoding segments (and, in the monitor, parsing headers).
DECODE_WORKERS = 4


@dataclass(frozen=True)
class SegmentHeader:
    """Decoded header of one segment file."""

    sensor: str
    band: str
    timestamp: datetime
    rows: int  # full image rows (x extent)
    cols: int  # full image cols (y extent)
    segment_index: int
    segment_count: int
    calibration_scale: float

    @property
    def rows_per_segment(self) -> int:
        return -(-self.rows // self.segment_count)


def write_hrit_segments(
    directory: str,
    sensor: str,
    band: str,
    timestamp: datetime,
    image: np.ndarray,
    segment_count: int = 4,
) -> List[str]:
    """Write ``image`` as ``segment_count`` HSIM segment files.

    Returns the file paths (one per segment).  File name pattern mirrors
    real HRIT naming: ``H-000-<sensor>-<band>-<stamp>-C_<seg>.hsim``.
    """
    if timestamp.tzinfo is None:
        timestamp = timestamp.replace(tzinfo=timezone.utc)
    os.makedirs(directory, exist_ok=True)
    rows, cols = image.shape
    rows_per_segment = -(-rows // segment_count)
    quantised = np.clip(image * _SCALE, 0, 65535).astype(">u2")
    paths: List[str] = []
    stamp = timestamp.strftime("%Y%m%d%H%M")
    for seg in range(segment_count):
        lo = seg * rows_per_segment
        hi = min(lo + rows_per_segment, rows)
        payload = zlib.compress(quantised[lo:hi].tobytes(), level=6)
        header = struct.pack(
            _HEADER_FMT,
            MAGIC,
            VERSION,
            0,
            sensor.encode()[:16].ljust(16, b"\0"),
            band.encode()[:8].ljust(8, b"\0"),
            int(timestamp.timestamp()),
            rows,
            cols,
            seg,
            segment_count,
            _SCALE,
        )
        path = os.path.join(
            directory, f"H-000-{sensor}-{band}-{stamp}-C_{seg:02d}.hsim"
        )
        with open(path, "wb") as f:
            f.write(header)
            f.write(payload)
        paths.append(path)
    return paths


def read_segment(path: str) -> Tuple[SegmentHeader, np.ndarray]:
    """Read one segment file; returns its header and row-band pixels."""
    with open(path, "rb") as f:
        raw_header = f.read(_HEADER_SIZE)
        payload = f.read()
    if len(raw_header) < _HEADER_SIZE:
        raise VaultError(f"truncated HSIM header in {path!r}")
    (
        magic,
        version,
        _flags,
        sensor,
        band,
        epoch,
        rows,
        cols,
        seg_index,
        seg_count,
        scale,
    ) = struct.unpack(_HEADER_FMT, raw_header)
    if magic != MAGIC:
        raise VaultError(f"{path!r} is not an HSIM file")
    if version != VERSION:
        raise VaultError(f"unsupported HSIM version {version}")
    header = SegmentHeader(
        sensor=sensor.rstrip(b"\0").decode(),
        band=band.rstrip(b"\0").decode(),
        timestamp=datetime.fromtimestamp(epoch, tz=timezone.utc),
        rows=rows,
        cols=cols,
        segment_index=seg_index,
        segment_count=seg_count,
        calibration_scale=scale,
    )
    try:
        data = np.frombuffer(zlib.decompress(payload), dtype=">u2")
    except zlib.error as error:
        raise VaultError(
            f"corrupt HSIM payload in {path!r}: {error}"
        ) from error
    rows_here = min(
        header.rows_per_segment,
        rows - seg_index * header.rows_per_segment,
    )
    try:
        grid = data.reshape(rows_here, cols).astype(np.float64) / scale
    except (ValueError, ZeroDivisionError) as error:
        raise VaultError(
            f"inconsistent HSIM geometry in {path!r}: {error}"
        ) from error
    return header, grid


def read_hrit_image(
    paths: Sequence[str],
) -> Tuple[SegmentHeader, np.ndarray]:
    """Assemble a full image from its segment files (any order).

    Segments decode concurrently on up to ``DECODE_WORKERS`` threads
    (zlib decompression and the NumPy reshape both release the GIL).
    Assembly is unchanged: results arrive keyed by each header's
    ``segment_index``, so file order — and decode completion order —
    never mattered in the first place.
    """
    if not paths:
        raise VaultError("no segment files given")
    from repro.perf.parallel import map_concurrent

    decoded = map_concurrent(
        read_segment,
        list(paths),
        max_workers=DECODE_WORKERS,
        name="hrit-decode",
    )
    segments: Dict[int, np.ndarray] = {}
    header: Optional[SegmentHeader] = None
    for seg_header, grid in decoded:
        if header is None:
            header = seg_header
        elif (
            seg_header.rows != header.rows
            or seg_header.cols != header.cols
            or seg_header.band != header.band
            or seg_header.timestamp != header.timestamp
        ):
            raise VaultError("segment files belong to different images")
        segments[seg_header.segment_index] = grid
    assert header is not None
    if len(segments) != header.segment_count:
        missing = set(range(header.segment_count)) - set(segments)
        raise VaultError(f"missing segments: {sorted(missing)}")
    image = np.vstack([segments[i] for i in range(header.segment_count)])
    return header, image


def segment_paths_for(directory: str, band: Optional[str] = None) -> List[str]:
    """All HSIM segment files under ``directory`` (optionally one band)."""
    pattern = f"*-{band}-*.hsim" if band else "*.hsim"
    return sorted(glob.glob(os.path.join(directory, pattern)))


class HRITDriver:
    """Data-Vault format driver for HSIM imagery.

    An attachment may be a single segment file, a directory holding all
    the segments of one band's image, or an explicit sequence of segment
    files (the SEVIRI Monitor hands over exactly the segments of one
    image, whose archive directory mixes many images); the driver
    materialises it as a 2-D SciQL array named after the attachment with
    attribute ``v``.
    """

    format_name = "HRIT"

    def can_handle(self, path) -> bool:
        if not isinstance(path, str):
            return bool(path) and self.can_handle(str(path[0]))
        if os.path.isdir(path):
            return bool(segment_paths_for(path))
        if not path.endswith(".hsim"):
            return False
        try:
            with open(path, "rb") as f:
                return f.read(4) == MAGIC
        except OSError:
            return False

    def load(self, path, catalog: Catalog, name: str) -> None:
        if not isinstance(path, str):
            paths = [str(p) for p in path]
        elif os.path.isdir(path):
            paths = segment_paths_for(path)
        else:
            paths = [path]
        header, image = read_hrit_image(paths)
        array = SciQLArray(
            name,
            [
                Dimension("x", 0, image.shape[0]),
                Dimension("y", 0, image.shape[1]),
            ],
            [("v", DOUBLE)],
        )
        array.set_attribute("v", image)
        catalog.create(array, replace=True)


def image_metadata(paths: Sequence[str]) -> List[SegmentHeader]:
    """Headers only — the cheap metadata extraction the SEVIRI Monitor
    stores in its SQLite catalog (no payload decompression)."""
    headers: List[SegmentHeader] = []
    for path in paths:
        with open(path, "rb") as f:
            raw = f.read(_HEADER_SIZE)
        if len(raw) < _HEADER_SIZE or raw[:4] != MAGIC:
            raise VaultError(f"{path!r} is not an HSIM file")
        (
            _magic,
            _version,
            _flags,
            sensor,
            band,
            epoch,
            rows,
            cols,
            seg_index,
            seg_count,
            scale,
        ) = struct.unpack(_HEADER_FMT, raw)
        try:
            sensor_name = sensor.rstrip(b"\0").decode()
            band_name = band.rstrip(b"\0").decode()
            acquired = datetime.fromtimestamp(epoch, tz=timezone.utc)
        except (UnicodeDecodeError, ValueError, OSError, OverflowError) as e:
            raise VaultError(
                f"corrupt HSIM header fields in {path!r}: {e}"
            ) from e
        headers.append(
            SegmentHeader(
                sensor=sensor_name,
                band=band_name,
                timestamp=acquired,
                rows=rows,
                cols=cols,
                segment_index=seg_index,
                segment_count=seg_count,
                calibration_scale=scale,
            )
        )
    return headers
