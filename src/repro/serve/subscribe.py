"""``repro.serve.subscribe`` — continuous queries over the hotspot store.

The paper's service is a *push* pipeline: refined hotspots must reach
civil-protection users inside the acquisition budget, not wait for the
next poll of ``/hotspots``.  This module turns the serving tier around:
clients register **subscriptions** — standing queries that stay live
across acquisitions — and the service evaluates them *incrementally*
against each commit's :class:`DeltaBatch`, pushing matches out as
notifications (delivered over SSE by ``repro.serve.sse`` /
``repro.serve.http``).  The graph journals its own mutations; the
service drains that op list once per commit, frames it into the WAL
record and collapses it with :func:`delta_from_ops` into the delta this
engine and the publisher's hotspot table both consume, and crash
repair rebuilds the same delta from the decoded WAL record.

Three subscription families:

* ``filter`` — the ``/hotspots`` predicate vocabulary as a standing
  query: bounding-box geofence, confidence floor, municipality,
  confirmation status.  Geofences live in an R-tree, so matching one
  changed hotspot against 100k subscriptions is a point probe, not a
  scan.
* ``stsparql`` — a restricted stSPARQL SELECT over the hotspot star,
  using ``?h`` as the hotspot variable.  Incremental evaluation runs
  each standing query once per commit, seeded through the engine's
  ``params=`` with one ``?h`` row per changed subject it has not yet
  notified (``VALUES`` semantics), so the query text stays constant
  (plan-cache friendly), there is one engine call per query, and cost
  scales with the delta, not the graph.  Every operator of the
  accepted fragment acts row by row on the seed, so the batch answer
  is the union of the per-subject answers.
* ``fwi`` — per-municipality fire-danger classes in the spirit of the
  Fire Weather Index rules of Gao et al. (arXiv 1411.2186): the class
  is a pure function of the live fire evidence inside each
  municipality — hotspot confidences plus the weather-station
  ``noa:hasDangerContribution`` observations the multi-source
  federation feeds in — and a subscription fires on every class
  *transition* at or above its ``min_class``.

Hotspots the federation flagged as **static heat sources**
(``noa:matchesStaticSource`` — refineries, industrial flares) are
excluded from every alert family: they are real combustion, but not
fires, so they neither notify nor contribute fire-danger evidence.

A hotspot is what the served ``/v1/hotspots`` set calls one: a subject
typed ``noa:Hotspot`` under RDFS inference, read through the one star
reader :func:`hotspot_record` that the served hotspot table also uses.

**Why incremental equals full re-run.**  A hotspot's match status
against any subscription above depends only on its own star (type,
geometry, confidence, confirmation, municipality link) plus the
subclass closure (a commit that changes ``rdfs:subClassOf`` is
evaluated by full scan, like a ``clear``), and the
refinement pipeline only mutates the stars of the current
acquisition's hotspots (insertion, municipality tagging, sea/land
deletion, confirmation marking).  So the set of subjects whose match
status *can* have changed since the last publication is exactly the
set of subjects appearing in the committed triple batch — evaluating
only those, minus the already-notified set, yields the same
notifications as re-running every standing query over the full
snapshot.  The federation's per-hotspot marks (``crossConfirmedBy``,
``matchesStaticSource``) are part of that star and are written by the
same refinement commit, so the argument survives multi-source fusion
unchanged.  FWI classes aggregate per municipality, so the recompute
set is the municipalities referenced by the batch (a municipality
whose hotspots and weather observations did not change cannot change
class — weather stars link via the same ``isInMunicipality``
predicate the delta extractor watches).  The differential
suite (``tests/serve/test_subscribe_differential.py``) asserts this
equivalence run-for-run; the delivery contract across crashes lives in
``repro.durable.cursors``.
"""

from __future__ import annotations

import math
import threading
import time
import uuid
from dataclasses import dataclass, field, fields, is_dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.durable.cursors import (
    NotificationBatch,
    NotificationLog,
    RegistryLog,
)
from repro.errors import DurabilityError
from repro.geometry import Envelope, Geometry
from repro.geometry.rtree import RTree
from repro.obs import get_metrics, get_tracer
from repro.rdf.graph import OP_ADD, OP_CLEAR, OP_REMOVE, Op
from repro.rdf.inference import RDFSInference
from repro.rdf.namespace import NOA, RDFS, STRDF
from repro.rdf.term import Literal, URI

__all__ = [
    "DANGER_CLASSES",
    "DeltaBatch",
    "HotspotRecord",
    "Subscription",
    "SubscriptionEngine",
    "SubscriptionError",
    "SubscriptionRegistry",
    "danger_class",
    "hotspot_record",
    "municipality_score",
    "validate_standing_query",
]

_tracer = get_tracer()
_metrics = get_metrics()

#: Fire-danger classes, mildest first.  A municipality's class is a
#: pure function of the summed confidence of its live hotspots, so
#: incremental recomputation of the touched municipalities is exactly
#: equivalent to a full recompute.
DANGER_CLASSES = ("low", "moderate", "high", "very-high", "extreme")

#: Summed-confidence boundaries between consecutive danger classes.
FWI_THRESHOLDS = (0.5, 1.5, 3.0, 5.0)

SUBSCRIPTION_KINDS = ("filter", "stsparql", "fwi")

#: Tombstoned R-tree entries tolerated before a rebuild (the R-tree
#: has no delete; removals are filtered at probe time until then).
_TOMBSTONE_REBUILD = 64

_HOTSPOT = NOA.Hotspot
_SUBCLASS = RDFS.subClassOf
_GEOMETRY = STRDF.hasGeometry
_CONFIDENCE = NOA.hasConfidence
_CONFIRMATION = NOA.hasConfirmation
_MUNICIPALITY = NOA.isInMunicipality
_ACQUIRED = NOA.hasAcquisitionDateTime
_CROSS_CONFIRMED = NOA.crossConfirmedBy
_STATIC_MATCH = NOA.matchesStaticSource
_WEATHER = NOA.WeatherObservation
_DANGER_CONTRIBUTION = NOA.hasDangerContribution


class SubscriptionError(ValueError):
    """An invalid subscription document or standing query."""


def danger_class(score: float) -> int:
    """Danger-class index for a municipality's summed confidence."""
    index = 0
    for boundary in FWI_THRESHOLDS:
        if score >= boundary:
            index += 1
    return index


def _binds(pattern, name: str) -> bool:
    """Whether a group pattern binds ``?name`` in a mandatory triple
    pattern (a nested group counts, a UNION when both branches do)
    before any other element mentions it.

    Elements run left to right from the seed row, so an OPTIONAL,
    FILTER or MINUS that reads ``?name`` first would see it bound when
    seeded but unbound in the full re-run.
    """
    from repro.stsparql import ast
    from repro.stsparql.eval import _pattern_variables

    for element in pattern.elements:
        if isinstance(element, ast.BGP):
            if any(
                var.name == name
                for triple in element.triples
                for var in triple.variables()
            ):
                return True
        elif isinstance(element, ast.GroupGraphPattern) and _binds(
            element, name
        ):
            return True
        elif isinstance(element, ast.UnionPattern) and (
            _binds(element.left, name) and _binds(element.right, name)
        ):
            return True
        elif name in _pattern_variables(element):
            return False
    return False


def _contains(node, kind) -> bool:
    """Whether a parsed-AST node holds a ``kind`` node anywhere (the
    AST is frozen dataclasses and tuples of them)."""
    if isinstance(node, kind):
        return True
    if isinstance(node, tuple):
        return any(_contains(child, kind) for child in node)
    if is_dataclass(node):
        return any(
            _contains(getattr(node, f.name), kind) for f in fields(node)
        )
    return False


def validate_standing_query(text: str) -> None:
    """Refuse standing queries outside the incremental fragment.

    A standing query must be a plain SELECT over the hotspot star
    using ``?h`` as the hotspot variable:

    * a mandatory triple pattern binds ``?h`` before anything else
      reads it, and ``?h`` is projected (or the query is
      ``SELECT *``) — so seeding ``?h`` with a changed subject selects
      exactly that subject's rows of the full answer;
    * no solution modifiers and no aggregates, because those make a
      row's membership depend on *other* rows, which breaks the
      subject-local incremental argument;
    * no subselects, which are evaluated once from the evaluator's
      seed rather than per seed row, so a batch seeded with many
      changed subjects would not be the union of per-subject runs.
    """
    from repro.stsparql import ast
    from repro.stsparql.parser import parse

    try:
        parsed = parse(text)
    except Exception as error:
        raise SubscriptionError(
            f"standing query does not parse: {error}"
        ) from error
    if not isinstance(parsed, ast.SelectQuery):
        raise SubscriptionError(
            "standing queries must be SELECT queries"
        )
    if (
        parsed.group_by
        or parsed.having
        or parsed.order_by
        or parsed.limit is not None
        or parsed.offset
    ):
        raise SubscriptionError(
            "standing queries cannot use GROUP BY / HAVING / ORDER "
            "BY / LIMIT / OFFSET — row membership must be "
            "subject-local for incremental evaluation"
        )
    for projection in parsed.projections:
        if isinstance(projection.expression, ast.Aggregate):
            raise SubscriptionError(
                "standing queries cannot project aggregates"
            )
    if _contains(parsed.pattern, ast.SubSelect):
        raise SubscriptionError(
            "standing queries cannot contain subselects"
        )
    projected = parsed.select_star or any(
        p.variable.name == "h" and p.expression is None
        for p in parsed.projections
    )
    if not (projected and _binds(parsed.pattern, "h")):
        raise SubscriptionError(
            "standing queries must bind ?h, the hotspot variable, in "
            "a triple pattern of the WHERE clause before any other "
            "use, and project it"
        )


def _finite(value: Any, name: str) -> float:
    """A finite number from a subscription document.  A NaN bound
    lets a geofence match hotspots outside it (NaN breaks the R-tree's
    comparisons) and a NaN floor silently matches nothing, so both are
    refused, as are infinities and booleans."""
    if isinstance(value, bool):
        raise SubscriptionError(f"{name} must be numeric, not a boolean")
    try:
        number = float(value)
    except (TypeError, ValueError) as error:
        raise SubscriptionError(f"bad {name}: {error}") from error
    if not math.isfinite(number):
        raise SubscriptionError(f"{name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class Subscription:
    """One registered standing query."""

    id: str
    kind: str
    bbox: Optional[Envelope] = None
    min_confidence: Optional[float] = None
    municipality: Optional[str] = None
    confirmed: Optional[bool] = None
    query: Optional[str] = None
    min_class: int = 0
    #: Publication sequence at registration — the subscription only
    #: observes acquisitions committed after it (current matches are
    #: primed into the seen-set, not notified).
    created_sequence: int = 0

    @classmethod
    def from_dict(
        cls, doc: Dict[str, Any], sub_id: str, created_sequence: int
    ) -> "Subscription":
        if not isinstance(doc, dict):
            raise SubscriptionError(
                "subscription must be a JSON object"
            )
        kind = doc.get("kind", "filter")
        if kind not in SUBSCRIPTION_KINDS:
            raise SubscriptionError(
                f"kind must be one of {'/'.join(SUBSCRIPTION_KINDS)}, "
                f"got {kind!r}"
            )
        bbox = None
        if doc.get("bbox") is not None:
            raw = doc["bbox"]
            if not (
                isinstance(raw, (list, tuple)) and len(raw) == 4
            ):
                raise SubscriptionError(
                    "bbox must be [minx, miny, maxx, maxy]"
                )
            bbox = Envelope(*(_finite(v, "bbox") for v in raw))
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
                raise SubscriptionError(
                    "stsparql subscriptions need a query"
                )
            validate_standing_query(query)
        elif query is not None:
            raise SubscriptionError(
                f"{kind} subscriptions do not take a query"
            )
        if kind == "fwi":
            name = doc.get("min_class", "high")
            if name not in DANGER_CLASSES:
                raise SubscriptionError(
                    f"min_class must be one of "
                    f"{'/'.join(DANGER_CLASSES)}, got {name!r}"
                )
            min_class = DANGER_CLASSES.index(name)
        return cls(
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

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "created_sequence": self.created_sequence,
        }
        if self.bbox is not None:
            doc["bbox"] = list(self.bbox.as_tuple())
        if self.min_confidence is not None:
            doc["min_confidence"] = self.min_confidence
        if self.municipality is not None:
            doc["municipality"] = self.municipality
        if self.confirmed is not None:
            doc["confirmed"] = self.confirmed
        if self.query is not None:
            doc["query"] = self.query
        if self.kind == "fwi":
            doc["min_class"] = DANGER_CLASSES[self.min_class]
        return doc


@dataclass(frozen=True)
class HotspotRecord:
    """One hotspot star, flattened — what the alert families match and
    what the served hotspot table (``repro.serve.hotspots``) encodes."""

    subject: str
    lon: float
    lat: float
    confidence: Optional[float] = None
    #: Local name of the ``noa:hasConfirmation`` object
    #: (``"confirmed"`` / ``"unconfirmed"``), None when unmarked.
    confirmation: Optional[str] = None
    municipality: Optional[str] = None
    acquired: Optional[str] = None
    #: Federation sources that corroborated the hotspot (sorted).
    sources: Tuple[str, ...] = ()
    #: Matched a known static heat source (refinery) — excluded from
    #: every alert family and from fire-danger evidence.
    static: bool = False
    #: The (non-empty) geometry the served feature is encoded from.
    geometry: Optional[Geometry] = field(default=None, compare=False)
    #: The star carries an acquisition time and a confidence, the
    #: mandatory triples of a served hotspot (``/v1/hotspots`` serves
    #: only these; alerts do not require them).
    served: bool = False

    @property
    def confirmed(self) -> Optional[bool]:
        """None when unmarked, else whether marked ``noa:confirmed``."""
        if self.confirmation is None:
            return None
        return self.confirmation == "confirmed"


@dataclass(frozen=True)
class DeltaBatch:
    """The subjects and municipalities one commit may have changed."""

    subjects: Tuple[str, ...] = ()
    municipalities: Tuple[str, ...] = ()
    #: Subject-local reasoning is void, so consumers fall back to a
    #: full scan for this batch: a ``clear`` was journaled, or an
    #: ``rdfs:subClassOf`` triple changed (which subjects are hotspots
    #: may have changed beyond ``subjects``).
    full_rescan: bool = False
    _stars: Dict[str, Optional[HotspotRecord]] = field(
        default_factory=dict, compare=False, repr=False
    )

    def stars(self, graph) -> Dict[str, Optional[HotspotRecord]]:
        """Each changed subject's hotspot star (None when it is not, or
        no longer, a hotspot), in subject order.

        Read from ``graph`` on the first call and memoised: every
        consumer of one commit — the subscription engine on the live
        store, the publisher on the snapshot it is about to publish —
        sees the same committed state inside the publish window, so
        the star of a changed subject is read once per commit.
        """
        if self.subjects and not self._stars:
            inference = RDFSInference(graph)
            for subject in self.subjects:
                self._stars[subject] = hotspot_record(
                    graph, inference, subject
                )
        return self._stars


class _BatchBuilder:
    """One commit's notifications in the :class:`NotificationBatch`
    layout: each notified subject's payload built once, one reference
    per (subscription, subject) match."""

    def __init__(self) -> None:
        self.subjects: List[Tuple[str, Dict[str, Any]]] = []
        self.refs: List[Tuple[str, str, int]] = []
        self._hotspots: Dict[str, int] = {}

    def hotspot(self, sub: "Subscription", record: HotspotRecord) -> None:
        """``sub`` matched the hotspot ``record``."""
        index = self._hotspots.get(record.subject)
        if index is None:
            index = self._hotspots[record.subject] = len(self.subjects)
            self.subjects.append(
                (
                    record.subject,
                    {
                        "lon": record.lon,
                        "lat": record.lat,
                        "confidence": record.confidence,
                        "municipality": record.municipality,
                        "confirmed": record.confirmed,
                        "acquired": record.acquired,
                        "sources": list(record.sources),
                    },
                )
            )
        self.refs.append((sub.id, sub.kind, index))

    def transition(
        self,
        subs: List["Subscription"],
        municipality: str,
        payload: Dict[str, Any],
    ) -> None:
        """A municipality's danger class moved, notified to ``subs``."""
        if subs:
            index = len(self.subjects)
            self.subjects.append((municipality, payload))
            self.refs.extend((sub.id, sub.kind, index) for sub in subs)

    def batch(
        self, sequence: int, wal_seq: Optional[int] = None
    ) -> NotificationBatch:
        return NotificationBatch(
            sequence=sequence,
            wal_seq=wal_seq,
            subjects=tuple(self.subjects),
            refs=tuple(self.refs),
        )


# -- delta extraction ------------------------------------------------------


def delta_from_ops(ops: Sequence) -> DeltaBatch:
    """Collapse a journaled op batch into its touched subjects and
    municipalities (both sides of ``noa:isInMunicipality`` — an add
    raises the target's evidence, a star-delete lowers it)."""
    subjects: Set[str] = set()
    municipalities: Set[str] = set()
    full_rescan = False
    for opcode, triple in ops:
        if opcode == OP_CLEAR:
            full_rescan = True
            subjects.clear()
            municipalities.clear()
            continue
        if opcode not in (OP_ADD, OP_REMOVE) or triple is None:
            continue
        s, p, o = triple
        subjects.add(_text(s))
        if p == _MUNICIPALITY:
            municipalities.add(_text(o))
        elif p == _SUBCLASS:
            full_rescan = True
    return DeltaBatch(
        subjects=tuple(sorted(subjects)),
        municipalities=tuple(sorted(municipalities)),
        full_rescan=full_rescan,
    )


def _text(term: Any) -> str:
    value = getattr(term, "value", term)
    if isinstance(value, str):
        return value
    lexical = getattr(term, "lexical", None)
    return lexical if lexical is not None else str(value)


def _source_graph(source):
    """The triple store behind a Strabon engine, a SnapshotView, or a
    bare graph."""
    graph = getattr(source, "graph", None)
    if graph is not None:
        return graph
    snapshot = getattr(source, "snapshot", None)
    if snapshot is not None and not callable(snapshot):
        return snapshot
    return source


def hotspot_record(
    graph, inference: RDFSInference, subject
) -> Optional[HotspotRecord]:
    """The one hotspot star reader.

    The subject's star as a :class:`HotspotRecord`, or None when it is
    not (or no longer) a hotspot — typed ``noa:Hotspot`` under RDFS
    inference (``inference`` is an :class:`RDFSInference` over
    ``graph``) — with a non-empty geometry.  The alert families and
    the served hotspot table both read stars through here, so they
    agree on what a hotspot is.
    """
    uri = URI(subject) if isinstance(subject, str) else subject
    if not inference.has_type(uri, _HOTSPOT):
        return None
    geom_lit = graph.value(uri, _GEOMETRY)
    geom = geom_lit.value if isinstance(geom_lit, Literal) else None
    if not isinstance(geom, Geometry) or geom.is_empty:
        return None
    lon, lat = geom.envelope.center
    conf_term = graph.value(uri, _CONFIDENCE)
    confirmation = graph.value(uri, _CONFIRMATION)
    municipality = graph.value(uri, _MUNICIPALITY)
    acquired = graph.value(uri, _ACQUIRED)
    sources = {
        _source_short(o) for o in graph.objects(uri, _CROSS_CONFIRMED)
    }
    sources.discard("")
    return HotspotRecord(
        subject=_text(uri),
        lon=lon,
        lat=lat,
        confidence=_maybe_float(conf_term),
        confirmation=(
            None if confirmation is None else _local_name(confirmation)
        ),
        municipality=(
            None if municipality is None else _text(municipality)
        ),
        acquired=getattr(acquired, "lexical", None),
        sources=tuple(sorted(sources)),
        static=graph.value(uri, _STATIC_MATCH) is not None,
        geometry=geom,
        served=acquired is not None and conf_term is not None,
    )


def _maybe_float(term: Any) -> Optional[float]:
    try:
        return float(term.lexical)
    except (AttributeError, TypeError, ValueError):
        return None


def _local_name(term: Any) -> str:
    """``noa:confirmed`` → ``"confirmed"``."""
    return _text(term).rsplit("#", 1)[-1].rsplit("/", 1)[-1]


def _source_short(term: Any) -> str:
    """``noa:Source_polar`` → ``"polar"``."""
    tail = _local_name(term)
    _, _, name = tail.partition("Source_")
    return name or tail


def iter_hotspot_records(graph) -> Iterable[HotspotRecord]:
    """Every live hotspot star (the full-scan path: priming, the full
    re-run baseline, ``full_rescan`` batches and full hotspot-table
    builds)."""
    inference = RDFSInference(graph)
    for subject in inference.instances_of(_HOTSPOT):
        record = hotspot_record(graph, inference, subject)
        if record is not None:
            yield record


def municipality_score(
    graph, inference: RDFSInference, municipality: str
) -> float:
    """Summed fire-danger evidence inside a municipality.

    Live hotspot confidences (static heat sources excluded — a
    refinery flare is not fire danger) plus the federation's
    weather-station ``hasDangerContribution`` observations.
    """
    target = URI(municipality)
    score = 0.0
    for s, _, _ in graph.triples(None, _MUNICIPALITY, target):
        if inference.has_type(s, _HOTSPOT):
            if graph.value(s, _STATIC_MATCH) is not None:
                continue
            term = graph.value(s, _CONFIDENCE)
        elif inference.has_type(s, _WEATHER):
            term = graph.value(s, _DANGER_CONTRIBUTION)
        else:
            continue
        value = _maybe_float(term)
        if value is not None:
            score += value
    return score


def _municipalities(graph) -> Set[str]:
    """Every object of ``noa:isInMunicipality`` — a hotspot whose
    pixel straddles a boundary sits in each municipality it touches."""
    return {
        _text(o) for _, _, o in graph.triples(None, _MUNICIPALITY, None)
    }


def _municipality_matches(uri: Optional[str], wanted: str) -> bool:
    if uri is None:
        return False
    if uri == wanted:
        return True
    local = uri.rsplit("#", 1)[-1].rsplit("/", 1)[-1]
    return local == wanted


# -- the registry ----------------------------------------------------------


class SubscriptionRegistry:
    """Thread-safe subscription store with an R-tree geofence index.

    Geofenced ``filter`` subscriptions are indexed by their bounding
    box so matching a changed hotspot is a point probe —
    O(log subscriptions) — instead of a scan.  The R-tree has no
    delete, so removals are tombstoned and filtered at probe time; the
    index is rebuilt (STR bulk-load) once tombstones pile up.  Fresh
    registrations go to a side list probed linearly and folded into
    the tree on the next rebuild, keeping single registrations O(log n)
    amortised and bulk registration one packing pass.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._subs: Dict[str, Subscription] = {}
        self._rtree: Optional[RTree] = None
        self._pending: List[Subscription] = []
        self._tombstones: Set[str] = set()
        self._global_filters: Dict[str, Subscription] = {}
        self._queries: Dict[str, Subscription] = {}
        self._fwi: Dict[str, Subscription] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._subs)

    def add(
        self, sub: Subscription, defer_rebuild: bool = False
    ) -> Subscription:
        with self._lock:
            if sub.id in self._subs:
                raise SubscriptionError(
                    f"duplicate subscription id {sub.id!r}"
                )
            self._subs[sub.id] = sub
            if sub.kind == "filter":
                if sub.bbox is None:
                    self._global_filters[sub.id] = sub
                else:
                    self._pending.append(sub)
                    if (
                        not defer_rebuild
                        and len(self._pending) > _TOMBSTONE_REBUILD
                    ):
                        self._rebuild()
            elif sub.kind == "stsparql":
                self._queries[sub.id] = sub
            else:
                self._fwi[sub.id] = sub
            return sub

    def add_many(self, subs: Iterable[Subscription]) -> None:
        """Bulk registration: one STR bulk-load instead of n inserts
        (per-add threshold rebuilds are deferred to the single pack at
        the end — they would make bulk registration quadratic)."""
        with self._lock:
            for sub in subs:
                self.add(sub, defer_rebuild=True)
            self._rebuild()

    def remove(self, sub_id: str) -> bool:
        with self._lock:
            sub = self._subs.pop(sub_id, None)
            if sub is None:
                return False
            self._global_filters.pop(sub_id, None)
            self._queries.pop(sub_id, None)
            self._fwi.pop(sub_id, None)
            self._pending = [
                p for p in self._pending if p.id != sub_id
            ]
            if sub.kind == "filter" and sub.bbox is not None:
                self._tombstones.add(sub_id)
                if len(self._tombstones) > _TOMBSTONE_REBUILD:
                    self._rebuild()
            return True

    def get(self, sub_id: str) -> Optional[Subscription]:
        with self._lock:
            return self._subs.get(sub_id)

    def list(self) -> List[Subscription]:
        with self._lock:
            return sorted(
                self._subs.values(), key=lambda s: s.id
            )

    def standing_queries(self) -> List[Subscription]:
        with self._lock:
            return list(self._queries.values())

    def fwi_subscriptions(self) -> List[Subscription]:
        with self._lock:
            return list(self._fwi.values())

    def counts(self) -> Dict[str, int]:
        with self._lock:
            return {
                "filter": len(self._subs)
                - len(self._queries)
                - len(self._fwi),
                "stsparql": len(self._queries),
                "fwi": len(self._fwi),
            }

    def _rebuild(self) -> None:
        live = [
            s
            for s in self._subs.values()
            if s.kind == "filter" and s.bbox is not None
        ]
        self._rtree = RTree.bulk_load(
            (s.bbox, s) for s in live
        )
        self._pending = []
        self._tombstones = set()

    def geofence_candidates(
        self, lon: float, lat: float
    ) -> List[Subscription]:
        """Filter subscriptions whose predicates could match a hotspot
        at (lon, lat): a point probe of the geofence index plus the
        bbox-less filters (which see everything)."""
        with self._lock:
            if self._rtree is None and (
                self._pending or self._tombstones
            ):
                self._rebuild()
            out: List[Subscription] = []
            if self._rtree is not None:
                for sub in self._rtree.search_point(lon, lat):
                    if sub.id in self._tombstones:
                        continue
                    if sub.id not in self._subs:
                        continue
                    out.append(sub)
            for sub in self._pending:
                if sub.bbox.contains_point(lon, lat):
                    out.append(sub)
            out.extend(self._global_filters.values())
            return out

    @staticmethod
    def filter_matches(
        sub: Subscription, record: HotspotRecord
    ) -> bool:
        """The non-spatial predicates (bbox was the index probe)."""
        if sub.min_confidence is not None:
            if (
                record.confidence is None
                or record.confidence < sub.min_confidence
            ):
                return False
        if sub.confirmed is not None:
            if record.confirmed is None:
                return False
            if record.confirmed != sub.confirmed:
                return False
        if sub.municipality is not None:
            if not _municipality_matches(
                record.municipality, sub.municipality
            ):
                return False
        return True


# -- the engine ------------------------------------------------------------


class SubscriptionEngine:
    """Evaluates every registered subscription against each commit.

    Single-writer like the store itself: :meth:`process_commit` and
    :meth:`publish_batch` run on the service's writer thread inside
    the publish window; registration arrives from HTTP threads and
    synchronises on the engine lock, acknowledgement on the cursor
    lock alone.

    With a ``state_dir`` the engine is durable: the registry log (the
    registrations, removals and acknowledged cursors) and the
    notification log live under ``<state_dir>/`` and follow the
    store's commit order — the triple WAL fsync is the commit point,
    the notification batch is appended (fsynced) *before* the snapshot
    publish, and recovery regenerates the at-most-one tail batch a
    crash between the two can swallow (see :meth:`repair_tail`).
    """

    def __init__(
        self,
        state_dir: Optional[str] = None,
        fsync: str = "commit",
        slo=None,
    ) -> None:
        import os

        self.registry = SubscriptionRegistry()
        self._lock = threading.RLock()
        self._seen: Dict[str, Set[str]] = {}
        self._fwi_classes: Optional[Dict[str, int]] = None
        self._listeners: List[
            Callable[[NotificationBatch], None]
        ] = []
        self._slo = slo
        self._strabon = None
        self._publisher = None
        self._eval_started: Dict[int, float] = {}
        self.state_dir = state_dir
        self.log: Optional[NotificationLog] = None
        self._registry_log: Optional[RegistryLog] = None
        #: ``subscription id → acknowledged publication sequence``,
        #: guarded by ``_cursor_lock`` (the registry log's lock when
        #: durable) and never by the engine lock, so an ack does not
        #: wait on a commit's evaluation.  Whoever needs both takes the
        #: engine lock first.
        self._cursors: Dict[str, int] = {}
        self._cursor_lock = threading.RLock()
        if state_dir is not None:
            os.makedirs(state_dir, exist_ok=True)
            for name in ("registry.json", "cursors.json"):
                legacy = os.path.join(state_dir, name)
                if os.path.exists(legacy):
                    raise DurabilityError(
                        f"{legacy!r} is subscriber state in the old "
                        "layout (rewritten whole per change); this "
                        "version keeps it in registry.log"
                    )
            self.log = NotificationLog(
                os.path.join(state_dir, "notifications.log"),
                fsync=fsync,
            )
            self._registry_log = RegistryLog(
                os.path.join(state_dir, "registry.log"), fsync=fsync
            )
            self._cursor_lock = self._registry_log.lock
            self._cursors = self._registry_log.cursors
            self.registry.add_many(
                Subscription.from_dict(
                    doc,
                    sub_id=str(doc["id"]),
                    created_sequence=int(doc.get("created_sequence", 0)),
                )
                for doc in self._registry_log.documents
            )
            self._rebuild_seen()

    # -- durable state -----------------------------------------------------

    def _rebuild_seen(self) -> None:
        """Replaying the notification log restores exactly-once: every
        previously delivered (subscription, subject) pair re-enters
        the seen-set, so regenerated or repaired batches can never
        duplicate a notification that already reached the log."""
        assert self.log is not None
        for batch in self.log.batches:
            for subscription, kind, index in batch.refs:
                if kind != "fwi":
                    self._seen.setdefault(subscription, set()).add(
                        batch.subjects[index][0]
                    )

    # -- wiring ------------------------------------------------------------

    def bind(self, strabon, publisher=None) -> None:
        """Attach to the live store and the publisher (for priming new
        registrations against the latest published snapshot).  The
        owner of the commit loop hands each commit's delta to
        :meth:`process_commit`."""
        self._strabon = strabon
        self._publisher = publisher
        self._ensure_fwi_baseline(strabon.graph)

    def close(self) -> None:
        if self.log is not None:
            self.log.close()
        if self._registry_log is not None:
            self._registry_log.close()

    def add_listener(
        self, listener: Callable[[NotificationBatch], None]
    ) -> None:
        """``listener(batch)`` runs on the writer thread after every
        publication (the SSE hub registers here)."""
        with self._lock:
            self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        with self._lock:
            self._listeners = [
                cb for cb in self._listeners if cb is not listener
            ]

    # -- registration ------------------------------------------------------

    def register(self, doc: Dict[str, Any]) -> Subscription:
        """Validate, index, prime and persist one subscription.

        Priming evaluates the new subscription against the latest
        *published* snapshot and marks current matches as seen without
        notifying — a standing query starts "from now", it does not
        replay history.
        """
        sequence = (
            self._publisher.sequence
            if self._publisher is not None
            else 0
        )
        sub = Subscription.from_dict(
            doc, sub_id=uuid.uuid4().hex[:12], created_sequence=sequence
        )
        with self._lock:
            self.registry.add(sub)
            self._prime([sub])
            if self._registry_log is not None:
                self._registry_log.add([sub.to_dict()])
        self._export_gauges()
        return sub

    def register_many(
        self, docs: Iterable[Dict[str, Any]]
    ) -> List[Subscription]:
        """Bulk registration (one R-tree pack, one priming scan)."""
        sequence = (
            self._publisher.sequence
            if self._publisher is not None
            else 0
        )
        subs = [
            Subscription.from_dict(
                doc,
                sub_id=uuid.uuid4().hex[:12],
                created_sequence=sequence,
            )
            for doc in docs
        ]
        with self._lock:
            self.registry.add_many(subs)
            self._prime(subs)
            if self._registry_log is not None:
                self._registry_log.add(s.to_dict() for s in subs)
        self._export_gauges()
        return subs

    def remove(self, sub_id: str) -> bool:
        with self._lock:
            removed = self.registry.remove(sub_id)
            if removed:
                self._seen.pop(sub_id, None)
                with self._cursor_lock:
                    if self._registry_log is not None:
                        self._registry_log.remove(sub_id)
                    self._cursors.pop(sub_id, None)
        self._export_gauges()
        return removed

    # -- cursors -----------------------------------------------------------

    def ack(self, sub_id: str, sequence: int) -> int:
        """Advance a subscriber's acknowledged cursor (monotonic);
        returns the cursor now in effect.  Durable when the engine is:
        an ack that advances appends one registry-log record."""
        if sequence < 0:
            raise SubscriptionError("cursor sequence must be >= 0")
        with self._cursor_lock:
            current = self._cursors.get(sub_id, 0)
            if sequence <= current:
                return current
            if self._registry_log is not None:
                self._registry_log.ack(sub_id, sequence)
            self._cursors[sub_id] = sequence
            return sequence

    def cursor(self, sub_id: str) -> int:
        """The acknowledged cursor (0 = nothing acknowledged yet)."""
        with self._cursor_lock:
            return self._cursors.get(sub_id, 0)

    def replay_after(self, sequence: int) -> List[NotificationBatch]:
        """Logged batches past a cursor — the SSE resume set (empty
        when the engine runs without a durable log)."""
        if self.log is None:
            return []
        return self.log.after(sequence)

    def _prime(self, subs: List[Subscription]) -> None:
        source = self._priming_source()
        if source is None:
            return
        graph = _source_graph(source)
        filters = [s for s in subs if s.kind == "filter"]
        queries = [s for s in subs if s.kind == "stsparql"]
        if filters:
            self._match_filters(iter_hotspot_records(graph), among=filters)
        for sub in queries:
            rows = source.select(sub.query)
            for row in rows:
                h = row.get("h")
                if h is not None:
                    self._seen.setdefault(sub.id, set()).add(
                        _text(h)
                    )
        if any(s.kind == "fwi" for s in subs):
            self._ensure_fwi_baseline(graph)

    def _priming_source(self):
        if self._publisher is not None:
            latest = self._publisher.latest()
            if latest is not None:
                return latest.view
        if self._strabon is not None:
            return self._strabon
        return None

    # -- evaluation --------------------------------------------------------

    def _ensure_fwi_baseline(self, graph) -> None:
        if self._fwi_classes is not None:
            return
        inference = RDFSInference(graph)
        classes: Dict[str, int] = {}
        for municipality in _municipalities(graph):
            index = danger_class(
                municipality_score(graph, inference, municipality)
            )
            if index:
                classes[municipality] = index
        self._fwi_classes = classes

    def process_commit(
        self,
        sequence: int,
        delta: DeltaBatch,
        wal_seq: Optional[int] = None,
    ) -> NotificationBatch:
        """Evaluate the committed delta and durably log the batch.

        Runs inside the service's publish window, *after* the triple
        WAL fsync (the commit point) and *before* the snapshot
        publish.  ``delta`` is :func:`delta_from_ops` of the commit's
        drained op list — the list the WAL record frames, and the
        delta the service hands the publisher too.
        """
        started = time.monotonic()
        assert self._strabon is not None, "engine is not bound"
        out = _BatchBuilder()
        with self._lock, _tracer.span(
            "subscribe.evaluate",
            sequence=sequence,
            subjects=len(delta.subjects),
        ):
            self._evaluate_delta(delta, self._strabon, out)
        batch = out.batch(sequence, wal_seq)
        if self.log is not None:
            self.log.append(batch)
        self._eval_started[sequence] = started
        return batch

    def _match_filters(
        self,
        records: Iterable[HotspotRecord],
        out: Optional[_BatchBuilder] = None,
        among: Optional[List[Subscription]] = None,
    ) -> None:
        """The filter family over ``records``: every hotspot against the
        registry's geofence probe, or against the filters ``among``
        (priming new registrations, a linear bbox test).  A match not
        yet seen is marked seen and, with ``out``, notified.  Static
        heat sources never alert."""
        for record in records:
            if record.static:
                continue
            if among is None:
                candidates = self.registry.geofence_candidates(
                    record.lon, record.lat
                )
            else:
                candidates = [
                    sub
                    for sub in among
                    if sub.bbox is None
                    or sub.bbox.contains_point(record.lon, record.lat)
                ]
            for sub in candidates:
                seen = self._seen.get(sub.id)
                if seen is not None and record.subject in seen:
                    continue
                if SubscriptionRegistry.filter_matches(sub, record):
                    self._seen.setdefault(sub.id, set()).add(
                        record.subject
                    )
                    if out is not None:
                        out.hotspot(sub, record)

    def _evaluate_delta(
        self, delta: DeltaBatch, source, out: _BatchBuilder
    ) -> None:
        graph = _source_graph(source)
        if delta.full_rescan:
            self._evaluate_records(
                list(iter_hotspot_records(graph)),
                source,
                out,
                municipalities=None,
            )
            return
        records = [
            record
            for record in delta.stars(graph).values()
            if record is not None
        ]
        municipalities = set(delta.municipalities)
        for record in records:
            if record.municipality is not None:
                municipalities.add(record.municipality)
        self._evaluate_records(records, source, out, municipalities)

    def _evaluate_records(
        self,
        records: List[HotspotRecord],
        source,
        out: _BatchBuilder,
        municipalities: Optional[Set[str]],
    ) -> None:
        graph = _source_graph(source)
        # filter family: point probe per changed hotspot.
        self._match_filters(records, out)
        # stsparql family: one evaluation per standing query, seeded
        # with a ?h row per pending changed subject — constant text,
        # cached plan, one engine call however large the delta.
        for sub in self.registry.standing_queries():
            seen = self._seen.setdefault(sub.id, set())
            pending = [
                record
                for record in records
                if not record.static and record.subject not in seen
            ]
            if not pending:
                continue
            rows = source.select(
                sub.query,
                params=[{"h": URI(r.subject)} for r in pending],
            )
            matched = {_text(row["h"]) for row in rows}
            for record in pending:
                if record.subject in matched:
                    seen.add(record.subject)
                    out.hotspot(sub, record)
        # fwi family: recompute only the touched municipalities.
        if municipalities is None:
            self._fwi_full(graph, out)
        else:
            self._ensure_fwi_baseline(graph)
            inference = RDFSInference(graph)
            for municipality in sorted(municipalities):
                self._fwi_transition(graph, inference, municipality, out)

    def _fwi_transition(
        self,
        graph,
        inference: RDFSInference,
        municipality: str,
        out: _BatchBuilder,
    ) -> None:
        assert self._fwi_classes is not None
        new_index = danger_class(
            municipality_score(graph, inference, municipality)
        )
        old_index = self._fwi_classes.get(municipality, 0)
        if new_index == old_index:
            return
        if new_index:
            self._fwi_classes[municipality] = new_index
        else:
            self._fwi_classes.pop(municipality, None)
        out.transition(
            [
                sub
                for sub in self.registry.fwi_subscriptions()
                if new_index >= sub.min_class
                and (
                    sub.municipality is None
                    or _municipality_matches(
                        municipality, sub.municipality
                    )
                )
            ],
            municipality,
            {
                "danger_class": DANGER_CLASSES[new_index],
                "previous_class": DANGER_CLASSES[old_index],
                "municipality": municipality,
            },
        )

    def _fwi_full(self, graph, out: _BatchBuilder) -> None:
        """Full-rescan fallback: recompute every municipality."""
        self._ensure_fwi_baseline(graph)
        assert self._fwi_classes is not None
        touched = _municipalities(graph) | set(self._fwi_classes)
        inference = RDFSInference(graph)
        for municipality in sorted(touched):
            self._fwi_transition(graph, inference, municipality, out)

    def evaluate_full(
        self, source, sequence: int, commit: bool = True
    ) -> NotificationBatch:
        """The full re-run baseline: every standing query over the
        whole snapshot, minus the seen-set.

        With ``commit=False`` the engine's state (seen-sets, FWI
        classes) is untouched — the differential benchmark uses this
        to time a re-run against the same pre-state the incremental
        path saw.
        """
        graph = _source_graph(source)
        out = _BatchBuilder()
        with self._lock:
            if not commit:
                saved_seen = {
                    k: set(v) for k, v in self._seen.items()
                }
                saved_fwi = (
                    None
                    if self._fwi_classes is None
                    else dict(self._fwi_classes)
                )
            self._evaluate_full_locked(graph, source, out)
            if not commit:
                self._seen = saved_seen
                self._fwi_classes = saved_fwi
        return out.batch(sequence)

    def _evaluate_full_locked(
        self, graph, source, out: _BatchBuilder
    ) -> None:
        records = list(iter_hotspot_records(graph))
        self._match_filters(records, out)
        by_subject = {r.subject: r for r in records}
        for sub in self.registry.standing_queries():
            seen = self._seen.setdefault(sub.id, set())
            for row in source.select(sub.query):
                h = row.get("h")
                if h is None:
                    continue
                subject = _text(h)
                if subject in seen:
                    continue
                record = by_subject.get(subject)
                if record is None or record.static:
                    continue
                seen.add(subject)
                out.hotspot(sub, record)
        self._fwi_full(graph, out)

    # -- delivery ----------------------------------------------------------

    def publish_batch(
        self, batch: NotificationBatch, published=None
    ) -> None:
        """Fan the batch out to listeners; record latency + SLO.

        Runs after the snapshot publish, so a subscriber that reads
        back through the query API on receiving a notification always
        observes a snapshot containing the notified state.
        """
        started = self._eval_started.pop(batch.sequence, None)
        with self._lock:
            listeners = list(self._listeners)
        delivered = True
        for listener in listeners:
            try:
                listener(batch)
            except Exception:  # noqa: BLE001 — isolation, like publish
                delivered = False
        elapsed = (
            0.0
            if started is None
            else time.monotonic() - started
        )
        if _metrics.enabled:
            _metrics.histogram(
                "subscribe_notification_seconds",
                "Commit-to-fanout latency per notification batch",
            ).observe(elapsed)
            if batch.refs:
                _metrics.counter(
                    "subscribe_notifications_total",
                    "Notifications fanned out to subscribers",
                ).inc(len(batch.refs))
        if self._slo is not None:
            from repro.obs.slo import NOTIFY_LATENCY_SLO_S

            try:
                self._slo.record(
                    "notification-delivery",
                    delivered and elapsed < NOTIFY_LATENCY_SLO_S,
                    trace_id=getattr(published, "trace_id", None),
                )
            except KeyError:
                pass

    # -- recovery ----------------------------------------------------------

    def repair_tail(
        self,
        wal_seq: Optional[int],
        ops: Optional[List[Op]],
        sequence: int,
    ) -> Optional[NotificationBatch]:
        """Regenerate the at-most-one batch a crash can swallow.

        The crash window is between the triple-WAL fsync (the commit
        point) and the notification-log append: the acquisition is
        durable but its notifications never reached the log.  Only the
        *last* WAL record can be in that state — any earlier record
        was followed by a successful append.  ``wal_seq`` and ``ops``
        are that record's sequence and decoded ops, as the store's
        recovery reports them (None when the log is empty); the ops
        are evaluated against the recovered graph (which, the record
        being last, equals the state the original evaluation saw); the
        regenerated batch is stamped with the restart's imminent
        publication sequence, and the rebuilt seen-set guarantees no
        notification already in the log is emitted twice.
        """
        if wal_seq is None or ops is None:
            return None
        logged = self.log.last_wal_seq if self.log else None
        if logged is not None and wal_seq <= logged:
            return None
        return self.process_commit(
            sequence, delta_from_ops(ops), wal_seq=wal_seq
        )

    # -- reporting ---------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        counts = self.registry.counts()
        report: Dict[str, Any] = {
            "subscriptions": sum(counts.values()),
            "by_kind": counts,
            "durable": self.log is not None,
        }
        if self.log is not None:
            report["logged_batches"] = len(self.log)
            report["last_sequence"] = self.log.last_sequence
        with self._cursor_lock:
            report["cursors"] = dict(self._cursors)
        return report

    def _export_gauges(self) -> None:
        if not _metrics.enabled:
            return
        for kind, count in self.registry.counts().items():
            _metrics.gauge(
                "subscribe_subscriptions",
                "Registered subscriptions, by kind",
            ).set(count, kind=kind)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SubscriptionEngine subs={len(self.registry)} "
            f"durable={self.log is not None}>"
        )
