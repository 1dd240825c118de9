"""Reference oracle for ``/v1/hotspots``: one stSPARQL SELECT per read.

The served answer is filtered from a per-publication hotspot table
(``repro.serve.hotspots``).  This module keeps the direct definition it
must agree with, byte for byte: one SELECT over the published snapshot
that pulls every hotspot star (acquisition time, geometry, confidence,
confirmation, multi-source provenance), the OPTIONAL-multiplied rows
regrouped into one feature per hotspot URI, the request filters applied
in Python.  ``since`` / ``until`` compare lexically, which is
chronological for the UTC-naive form acquisition times are stored in.
"""

from __future__ import annotations

from datetime import datetime
from typing import Any, Dict, Optional

from repro.geometry import Envelope, Geometry
from repro.geometry.geojson import feature, feature_collection
from repro.rdf.term import Literal, URI

HOTSPOTS_QUERY = """
PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>
PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
SELECT ?h ?t ?hGeo ?conf ?confirmation ?src ?site
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?t ;
     strdf:hasGeometry ?hGeo ;
     noa:hasConfidence ?conf .
  OPTIONAL { ?h noa:hasConfirmation ?confirmation }
  OPTIONAL { ?h noa:crossConfirmedBy ?src }
  OPTIONAL { ?h noa:matchesStaticSource ?site }
}
"""


def _stamp(value) -> str:
    if isinstance(value, datetime):
        return value.strftime("%Y-%m-%dT%H:%M:%S")
    return str(value)


def _local(term) -> str:
    text = term.value if isinstance(term, URI) else str(term)
    return text.rsplit("#", 1)[-1].rsplit("/", 1)[-1]


def _source_label(term) -> Optional[str]:
    if term is None:
        return None
    tail = _local(term)
    _, _, name = tail.partition("Source_")
    return name or tail


def _maybe_float(term) -> Optional[float]:
    try:
        return float(term.lexical)
    except (AttributeError, TypeError, ValueError):
        return None


def reference_hotspots(
    published,
    bbox: Optional[Envelope] = None,
    since: Optional[object] = None,
    until: Optional[object] = None,
    min_confidence: Optional[float] = None,
    confirmed: Optional[bool] = None,
    static: Optional[bool] = None,
) -> Dict[str, Any]:
    """What ``query_hotspots`` must answer for ``published``."""
    rows = published.view.select(HOTSPOTS_QUERY)
    since_key = None if since is None else _stamp(since)
    until_key = None if until is None else _stamp(until)
    records: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        hotspot = row.get("h")
        key = hotspot.value if isinstance(hotspot, URI) else str(hotspot)
        record = records.setdefault(
            key, {"row": row, "sources": set(), "static": False}
        )
        source = _source_label(row.get("src"))
        if source:
            record["sources"].add(source)
        if row.get("site") is not None:
            record["static"] = True
    features = []
    for key in sorted(records):
        record = records[key]
        row = record["row"]
        geom_lit = row.get("hGeo")
        if not isinstance(geom_lit, Literal):
            continue
        geom = geom_lit.value
        if not isinstance(geom, Geometry) or geom.is_empty:
            continue
        acquired = getattr(row.get("t"), "lexical", None)
        if since_key is not None and (
            acquired is None or acquired < since_key
        ):
            continue
        if until_key is not None and (
            acquired is None or acquired > until_key
        ):
            continue
        conf = _maybe_float(row.get("conf"))
        if min_confidence is not None and (
            conf is None or conf < min_confidence
        ):
            continue
        term = row.get("confirmation")
        confirmation = None if term is None else _local(term)
        if confirmed is not None and confirmed != (
            confirmation == "confirmed"
        ):
            continue
        if static is not None and static != record["static"]:
            continue
        if bbox is not None and not bbox.intersects(geom.envelope):
            continue
        features.append(
            feature(
                geom,
                {
                    "hotspot": key,
                    "acquired": acquired,
                    "confidence": conf,
                    "confirmation": confirmation,
                    "sources": sorted(record["sources"]),
                    "static": record["static"],
                },
            )
        )
    collection = feature_collection(features)
    collection["snapshot"] = {
        "sequence": published.sequence,
        "generation": published.generation,
        "timestamp": None
        if published.timestamp is None
        else _stamp(published.timestamp),
        "trace_id": published.trace_id,
        "sources": list(published.sources),
    }
    return collection
