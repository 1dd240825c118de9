"""The ``/v1/hotspots`` read model: a per-publication hotspot table.

Every :class:`~repro.serve.state.PublishedSnapshot` carries a
:class:`HotspotTable` — one GeoJSON feature per served hotspot, sorted
by URI, beside the fields the request filters need (envelope,
acquisition instant, confidence, confirmation, static-source flag).
:func:`query_hotspots` is a filter over that table: a read never calls
the query engine, and its cost follows the number of served hotspots,
not the size of the store.

The writer builds the table at publish time, on the writer thread and
before the atomic swap, so a reader never sees a table that disagrees
with its snapshot.  The build is **incremental** — the previous
publication's table, with the star of every subject the commit changed
re-read and its feature added, replaced or dropped — whenever the
publisher is handed the commit's :class:`~repro.serve.subscribe
.DeltaBatch`.  It is **full** (every instance of ``noa:Hotspot``) when
there is no previous table or no delta (the first publication,
recovery, every shard republication) and when the delta is a ``clear``
or touches ``rdfs:subClassOf``.  The delta is enough because a served
feature is a pure function of the hotspot's own star plus the subclass
closure: every triple that can change a feature has that hotspot as its
subject.

A hotspot is served when it is typed ``noa:Hotspot`` under RDFS
inference and carries a non-empty geometry, an acquisition time and a
confidence; :func:`~repro.serve.subscribe.hotspot_record` is the one
star reader, shared with the alert families.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Tuple

from repro.geometry import Envelope
from repro.geometry.geojson import feature, feature_collection
from repro.serve.subscribe import (
    DeltaBatch,
    HotspotRecord,
    iter_hotspot_records,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.serve.state import PublishedSnapshot

#: xsd:dateTime lexical form (fraction and timezone optional).
_XSD_DATETIME = re.compile(
    r"(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2}):(\d{2})(?:\.(\d+))?"
    r"(Z|[+-]\d{2}:\d{2})?",
    re.ASCII,
)


def _stamp(value) -> str:
    if isinstance(value, datetime):
        return value.strftime("%Y-%m-%dT%H:%M:%S")
    return str(value)


def parse_instant(value) -> datetime:
    """An xsd:dateTime string (or a datetime) as the UTC-naive instant
    acquisition times are stored in: ``Z`` and ``±hh:mm`` offsets are
    normalised to UTC, a missing offset means UTC.  Anything else
    raises ValueError (the HTTP layer maps it to a 400)."""
    if isinstance(value, datetime):
        if value.tzinfo is None:
            return value
        return value.astimezone(timezone.utc).replace(tzinfo=None)
    match = (
        _XSD_DATETIME.fullmatch(value) if isinstance(value, str) else None
    )
    if match is None:
        raise ValueError(f"not an xsd:dateTime: {value!r}")
    year, month, day, hour, minute, second, fraction, zone = match.groups()
    try:
        instant = datetime(
            int(year),
            int(month),
            int(day),
            int(hour),
            int(minute),
            int(second),
            int((fraction or "0")[:6].ljust(6, "0")),
        )
        if zone and zone != "Z":
            sign = -1 if zone[0] == "-" else 1
            instant -= sign * timedelta(
                hours=int(zone[1:3]), minutes=int(zone[4:6])
            )
    except (ValueError, OverflowError):
        raise ValueError(f"not an xsd:dateTime: {value!r}") from None
    return instant


def _stored_instant(lexical: Optional[str]) -> Optional[datetime]:
    try:
        return parse_instant(lexical)
    except ValueError:
        return None


@dataclass(frozen=True)
class _Row:
    """One served hotspot: its feature plus the fields filters test."""

    feature: Dict[str, Any]
    envelope: Envelope
    acquired: Optional[datetime]
    confidence: Optional[float]
    confirmed: bool
    static: bool


def _row(star: HotspotRecord) -> _Row:
    return _Row(
        feature=feature(
            star.geometry,
            {
                "hotspot": star.subject,
                "acquired": star.acquired,
                "confidence": star.confidence,
                "confirmation": star.confirmation,
                # Multi-source provenance: SEVIRI made the hotspot;
                # these are the *additional* feeds that corroborated it
                # within the fusion window.
                "sources": list(star.sources),
                "static": star.static,
            },
        ),
        envelope=star.geometry.envelope,
        acquired=_stored_instant(star.acquired),
        confidence=star.confidence,
        confirmed=bool(star.confirmed),
        static=star.static,
    )


class HotspotTable:
    """The served hotspots of one publication, sorted by URI.

    Immutable once published; the feature dicts are shared by every
    response that serves them, so callers must not mutate them.
    """

    def __init__(self, rows: Dict[str, _Row]) -> None:
        self._by_subject = rows
        self.rows: Tuple[_Row, ...] = tuple(
            rows[subject] for subject in sorted(rows)
        )

    def __len__(self) -> int:
        return len(self.rows)

    @classmethod
    def full(cls, graph) -> "HotspotTable":
        """Every served hotspot star of ``graph``."""
        return cls(
            {
                star.subject: _row(star)
                for star in iter_hotspot_records(graph)
                if star.served
            }
        )

    def apply(
        self, stars: Mapping[str, Optional[HotspotRecord]]
    ) -> "HotspotTable":
        """This table with the given subjects' stars re-read: each is
        added, replaced, or dropped when no longer served."""
        if not stars:
            return self
        rows = dict(self._by_subject)
        for subject, star in stars.items():
            if star is not None and star.served:
                rows[subject] = _row(star)
            else:
                rows.pop(subject, None)
        return HotspotTable(rows)

    @classmethod
    def for_publication(
        cls,
        view,
        previous: Optional["PublishedSnapshot"],
        delta: Optional[DeltaBatch],
    ) -> "HotspotTable":
        """The table a publication of ``view`` carries, given the
        previous publication and the commit's delta since it."""
        if (
            previous is None
            or delta is None
            or delta.full_rescan
            or delta.schema_changed
        ):
            return cls.full(view.snapshot)
        return previous.hotspots.apply(delta.stars(view.snapshot))


def query_hotspots(
    published: "PublishedSnapshot",
    bbox: Optional[Envelope] = None,
    since: Optional[object] = None,
    until: Optional[object] = None,
    min_confidence: Optional[float] = None,
    confirmed: Optional[bool] = None,
    static: Optional[bool] = None,
) -> Dict[str, Any]:
    """Surviving hotspots of a published snapshot as GeoJSON.

    ``since`` / ``until`` take :class:`~datetime.datetime` objects or
    xsd:dateTime strings (see :func:`parse_instant`; a malformed one
    raises ValueError) and bound the acquisition instant inclusively.
    ``confirmed=True`` keeps only hotspots marked ``noa:confirmed``;
    ``False`` keeps the rest.  ``static=False`` drops hotspots flagged
    as static heat sources (refineries); ``True`` keeps only those.
    All filters compose.
    """
    since_at = None if since is None else parse_instant(since)
    until_at = None if until is None else parse_instant(until)
    features = []
    for row in published.hotspots.rows:
        if since_at is not None and (
            row.acquired is None or row.acquired < since_at
        ):
            continue
        if until_at is not None and (
            row.acquired is None or row.acquired > until_at
        ):
            continue
        if min_confidence is not None and (
            row.confidence is None or row.confidence < min_confidence
        ):
            continue
        if confirmed is not None and confirmed != row.confirmed:
            continue
        if static is not None and static != row.static:
            continue
        if bbox is not None and not bbox.intersects(row.envelope):
            continue
        features.append(row.feature)
    # Deterministic output: rows are in sorted-URI order, so equal
    # stores (organically built vs recovered from checkpoint + WAL
    # replay) serve byte-identical collections.
    collection = feature_collection(features)
    # Provenance: which frozen state answered this request.  A client
    # polling /hotspots can assert these never move backwards.  The
    # trace_id names the acquisition trace that published this state,
    # so any served feature links back to the distributed trace that
    # produced it (inspectable at /debug/tracez).
    collection["snapshot"] = {
        "sequence": published.sequence,
        "generation": published.generation,
        "timestamp": None
        if published.timestamp is None
        else _stamp(published.timestamp),
        "trace_id": published.trace_id,
        # Per-source federation reports of the publishing acquisition
        # (empty without a federation) — an outage gap is visible
        # right here, next to the data served despite it.
        "sources": list(published.sources),
    }
    return collection


def parse_bbox(text: str) -> Envelope:
    """``"minx,miny,maxx,maxy"`` → :class:`Envelope` (ValueError on
    malformed input — the HTTP layer maps it to a 400)."""
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError(
            f"bbox needs 4 comma-separated numbers, got {text!r}"
        )
    minx, miny, maxx, maxy = coords = [float(p) for p in parts]
    if not all(math.isfinite(c) for c in coords):
        raise ValueError(f"bbox coordinates must be finite: {text!r}")
    if minx > maxx or miny > maxy:
        raise ValueError(f"bbox is inverted: {text!r}")
    return Envelope(minx, miny, maxx, maxy)
