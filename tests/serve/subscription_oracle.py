"""The subscription validator's oracle, and registration under chosen
ids.

:func:`from_dict` checks one document alone, as subscriptions were
checked before the validator (``repro.serve.subscribe._parse_batch``)
checked whole batches column-wise; the differential tests hold the
validator to its verdicts and messages.  :func:`add_many` and
:func:`add_one` register subscriptions under their own ids without
priming, as an oracle engine sharing another engine's ids needs.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

from repro.durable.cursors import SubscriptionRows
from repro.geometry import Envelope
from repro.serve.subscribe import (
    DANGER_CLASSES,
    SUBSCRIPTION_KINDS,
    Subscription,
    SubscriptionError,
    SubscriptionRegistry,
    _finite,
    _parse_batch,
    validate_standing_query,
)


def from_dict(
    doc: Dict[str, Any], sub_id: str, created_sequence: int
) -> Subscription:
    """One subscription document, checked field by field."""
    if not isinstance(doc, dict):
        raise SubscriptionError("subscription must be a JSON object")
    kind = doc.get("kind", "filter")
    if kind not in SUBSCRIPTION_KINDS:
        raise SubscriptionError(
            f"kind must be one of {'/'.join(SUBSCRIPTION_KINDS)}, "
            f"got {kind!r}"
        )
    bbox = None
    if doc.get("bbox") is not None:
        raw = doc["bbox"]
        if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
            raise SubscriptionError("bbox must be [minx, miny, maxx, maxy]")
        minx, miny, maxx, maxy = (_finite(v, "bbox") for v in raw)
        if minx > maxx or miny > maxy:
            raise SubscriptionError(
                "bbox must have minx <= maxx and miny <= maxy, "
                f"got {list(raw)!r}"
            )
        bbox = Envelope(minx, miny, maxx, maxy)
    min_confidence = doc.get("min_confidence")
    if min_confidence is not None:
        min_confidence = _finite(min_confidence, "min_confidence")
    confirmed = doc.get("confirmed")
    if confirmed is not None and not isinstance(confirmed, bool):
        raise SubscriptionError("confirmed must be a boolean")
    municipality = doc.get("municipality")
    if municipality is not None:
        municipality = str(municipality)
    query = doc.get("query")
    min_class = 0
    if kind == "stsparql":
        if not query:
            raise SubscriptionError("stsparql subscriptions need a query")
        validate_standing_query(query)
    elif query is not None:
        raise SubscriptionError(f"{kind} subscriptions do not take a query")
    if kind == "fwi":
        name = doc.get("min_class", "high")
        if name not in DANGER_CLASSES:
            raise SubscriptionError(
                f"min_class must be one of {'/'.join(DANGER_CLASSES)}, "
                f"got {name!r}"
            )
        min_class = DANGER_CLASSES.index(name)
    return Subscription(
        id=sub_id,
        kind=kind,
        bbox=bbox,
        min_confidence=min_confidence,
        municipality=municipality,
        confirmed=confirmed,
        query=query,
        min_class=min_class,
        created_sequence=created_sequence,
    )


def municipality_matches(uri: Optional[str], wanted: str) -> bool:
    """Whether a subscription's municipality ``wanted`` names the
    municipality ``uri``: the URI itself or its local name."""
    if uri is None:
        return False
    return wanted in (uri, uri.rsplit("#", 1)[-1].rsplit("/", 1)[-1])


def rows_of(
    docs: List[Any], ids: List[str], sequence: int = 0
) -> SubscriptionRows:
    """Valid documents as the validator's rows, ``ids[k]`` naming
    ``docs[k]``."""
    return _parse_batch(docs, ids, sequence)[0]


def add_many(
    registry: SubscriptionRegistry, subs: Iterable[Subscription]
) -> None:
    """Register ``subs`` under their own ids, without priming, as one
    bulk registration (one pack)."""
    _add(registry, list(subs), pack=True)


def add_one(registry: SubscriptionRegistry, sub: Subscription) -> Subscription:
    """Register ``sub`` under its own id, without priming, as a single
    registration (its geofence inserted into the tree)."""
    _add(registry, [sub], pack=False)
    return sub


def _add(
    registry: SubscriptionRegistry, subs: List[Subscription], pack: bool
) -> None:
    rows, lifted = _parse_batch(
        [sub.to_dict() for sub in subs], [sub.id for sub in subs], 0
    )
    rows.created[:] = [sub.created_sequence for sub in subs]
    registry.add_rows(rows, lifted, pack=pack)


class CounterIds:
    """Subscription ids from a counter, 12 hex digits each.  Setting
    :attr:`next` back makes the next registration reuse ids, so two
    engines registering the same documents give them the same ids."""

    def __init__(self) -> None:
        self.next = 0

    def __call__(self, count: int) -> List[str]:
        start, self.next = self.next, self.next + count
        return [f"{k:012x}" for k in range(start, self.next)]
