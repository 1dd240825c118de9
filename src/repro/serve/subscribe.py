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

Three subscription families, all rows of one column table
(:class:`SubscriptionRegistry`, kept as
:class:`~repro.durable.cursors.SubscriptionRows`), checked by one
column-wise validator and logged as one binary record per
registration:

* ``filter`` — the ``/hotspots`` predicate vocabulary as a standing
  query: bounding-box geofence, confidence floor, municipality,
  confirmation status.  Their geofences live in an R-tree over row
  numbers, so matching one changed hotspot against 100k subscriptions
  is a point probe, not a scan.
* ``stsparql`` — a restricted stSPARQL SELECT over the hotspot star,
  using ``?h`` as the hotspot variable.  Standing queries are
  evaluated **once per shape**: at registration the literal constants
  of a query's FILTER expressions are lifted out, and queries whose
  remaining text is equal share one shape query, whose inline
  ``VALUES`` block carries a hidden subscription-id column and one
  column per lifted constant (the Gao et al. continuous queries that
  differ only in their constants, evaluated together).  Each commit
  makes one engine call per shape, seeded through ``params=`` with one
  ``?h`` row per changed subject some member has not yet notified;
  the id column of each answer row says whom it matches.  The shape
  text only changes with its membership (plan-cache friendly), and
  cost scales with the delta and the number of shapes, not with the
  graph or the number of queries.  Every operator of the accepted
  fragment acts row by row on the seed, and the ``VALUES`` block is
  joined after the seeded star — a join too, row by row, never a
  cross product in front of the star — so the batch answer is still
  the union of the per-subject answers, split by member.
* ``fwi`` — per-municipality fire-danger classes in the spirit of the
  Fire Weather Index rules of Gao et al. (arXiv 1411.2186): the class
  is a pure function of the live fire evidence inside each
  municipality — hotspot confidences plus the weather-station
  ``noa:hasDangerContribution`` observations the multi-source
  federation feeds in — and a subscription fires on every class
  *transition* at or above its ``min_class``, in its municipality when
  it names one; the recipients are picked column-wise.

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
import os
import threading
import time
from collections.abc import Sequence as SequenceABC
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import chain
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

import numpy as np

from repro.durable.cursors import (
    KINDS,
    NotificationBatch,
    NotificationLog,
    RegistryLog,
    SubscriptionRows,
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

SUBSCRIPTION_KINDS = KINDS
#: Kind codes of the registry's ``kind`` column; a removed row's is −1.
_FILTER, _STSPARQL, _FWI = range(len(KINDS))
_REMOVED = -1

#: A standing query split by :func:`validate_standing_query`:
#: ``(template, prefix, constants)``.
Lifted = Tuple[str, str, Tuple[str, ...]]

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


class _Shape:
    """Standing queries that are equal but for their FILTER literals.

    ``template`` is their common text (:func:`validate_standing_query`), and
    each member maps a subscription id to the literal texts it lifted.
    :meth:`text` is the one query that evaluates members together: the
    template projecting ``?h`` and a hidden ``?<prefix>id`` column, with
    a ``VALUES`` block opening its WHERE group — the id naming the
    member, then one column per lifted literal.  Each member's rows of
    that query are exactly its own query's rows, because the block
    binds the constants before any other element of the group reads
    them (the engine still joins it after a seeded star: the planner
    places it).  Only ``?h`` is read from a row, so the members' own
    projections need not survive.
    """

    def __init__(self, template: str, prefix: str, arity: int) -> None:
        from repro.stsparql.lexer import tokenize

        self.template = template
        self.id_var = prefix + "id"
        self._columns = " ".join(
            [f"?{self.id_var}"] + [f"?{prefix}{i}" for i in range(arity)]
        )
        self.members: Dict[str, Tuple[str, ...]] = {}
        self._text: Optional[str] = None
        # The projection runs from SELECT to the WHERE group's brace,
        # the first one outside the parentheses of an expression.
        tokens = iter(tokenize(template))
        select = next(
            t for t in tokens if (t.kind, t.value) == ("keyword", "select")
        )
        depth = 0
        for token in tokens:
            if token.kind != "op":
                continue
            if token.value == "{" and not depth:
                break
            depth += {"(": 1, ")": -1}.get(token.value, 0)
        self._head = (
            f"{template[: select.pos]}SELECT ?h ?{self.id_var} WHERE {{"
        )
        self._body = template[token.pos + 1 :]

    def add(self, sub_id: str, constants: Tuple[str, ...]) -> None:
        self.members[sub_id] = constants
        self._text = None

    def discard(self, sub_id: str) -> None:
        self.members.pop(sub_id, None)
        self._text = None

    def text(self, members: Sequence[str]) -> str:
        """The shape's query over ``members`` (ids of its members)."""
        whole = len(members) == len(self.members)
        if whole and self._text is not None:
            return self._text
        rows = " ".join(
            "(" + " ".join((Literal(m).n3(),) + self.members[m]) + ")"
            for m in members
        )
        text = (
            f"{self._head} VALUES ({self._columns}) {{ {rows} }} "
            f"{self._body}"
        )
        if whole:
            self._text = text
        return text


def validate_standing_query(text: str) -> Lifted:
    """Refuse standing queries outside the incremental fragment, and
    split an accepted one into its shape and its constants.

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

    Inline ``VALUES`` blocks are accepted: a block is joined with each
    row like a triple pattern, so it keeps the answer subject-local.

    Returns ``(template, prefix, constants)``, from the one parse:
    ``template`` is ``text`` with the i-th literal of its FILTER
    expressions replaced by the variable ``?<prefix>i``, and
    ``constants`` holds the literals' texts.  ``prefix`` starts no
    variable name of ``text``, so the variables the shape adds cannot
    collide with the user's; queries with equal templates also have
    equal prefixes.
    """
    from repro.stsparql import ast
    from repro.stsparql.parser import FilterLiteralParser

    try:
        parser = FilterLiteralParser(text)
        parsed = parser.parse_query()
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
    names = {tok.value[1:] for tok in parser.tokens if tok.kind == "var"}
    prefix = "__shape_"
    while any(name.startswith(prefix) for name in names):
        prefix = "_" + prefix
    pieces: List[str] = []
    constants: List[str] = []
    end = 0
    for index, (start, stop) in enumerate(sorted(parser.spans)):
        pieces += [text[end:start], f"?{prefix}{index}"]
        constants.append(text[start:stop])
        end = stop
    pieces.append(text[end:])
    return "".join(pieces), prefix, tuple(constants)


def _finite(value: Any, name: str) -> float:
    """A finite number from a subscription document.  A NaN bound
    lets a geofence match hotspots outside it (NaN breaks the R-tree's
    comparisons) and a NaN floor silently matches nothing, so both are
    refused, as are infinities and booleans."""
    if isinstance(value, bool):
        raise SubscriptionError(f"{name} must be numeric, not a boolean")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError) as error:
        raise SubscriptionError(f"bad {name}: {error}") from error
    if not math.isfinite(number):
        raise SubscriptionError(f"{name} must be finite, got {value!r}")
    return number


@dataclass(frozen=True)
class Subscription:
    """One registered standing query: a view of its registry row, built
    for :meth:`SubscriptionRegistry.get` and ``list``, the HTTP
    handlers and what a registration returns."""

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

    def match(self, sub_id: str, kind: str, record: HotspotRecord) -> None:
        """Subscription ``sub_id`` (of ``kind``) matched the hotspot
        ``record``."""
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
        self.refs.append((sub_id, kind, index))

    def transition(
        self, ids: List[str], municipality: str, payload: Dict[str, Any]
    ) -> None:
        """A municipality's danger class moved, notified to the ``fwi``
        subscriptions ``ids``."""
        if ids:
            index = len(self.subjects)
            self.subjects.append((municipality, payload))
            self.refs.extend((sub_id, "fwi", index) for sub_id in ids)

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


def _hotspots_in(
    source, graph, area: Optional[Envelope]
) -> Iterable[HotspotRecord]:
    """The live hotspot stars located in ``area`` (every one when
    None).  Candidates come from the source's spatial index — the
    subjects holding a geometry whose envelope meets ``area`` — so only
    the stars near it are read; without an index, every star is.  A
    store without hotspots is not probed at all (its index may not be
    built yet)."""
    inference = RDFSInference(graph)
    if next(inference.instances_of(_HOTSPOT), None) is None:
        return
    if area is None:
        yield from iter_hotspot_records(graph)
        return
    literals = source.spatial_search(area)
    if literals is None:
        records: Iterable[Optional[HotspotRecord]] = iter_hotspot_records(
            graph
        )
    else:
        subjects = {
            subject
            for literal in literals
            for subject in graph.subjects(_GEOMETRY, literal)
        }
        records = (
            hotspot_record(graph, inference, subject)
            for subject in sorted(subjects, key=_text)
        )
    for record in records:
        if record is not None and area.contains_point(record.lon, record.lat):
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


# -- the registry ----------------------------------------------------------


def _mint_ids(count: int) -> List[str]:
    """``count`` fresh subscription ids, 12 hex characters each, from
    one ``os.urandom`` call."""
    text = os.urandom(6 * count).hex()
    return [text[i : i + 12] for i in range(0, 12 * count, 12)]


_NONE = type(None)
_BOX_TYPES = (_NONE, list, tuple)
_NUMBER_TYPES = (_NONE, float, int)
_FLAG_TYPES = (_NONE, bool)
_NAME_TYPES = (_NONE, str)


def _numbers(values: List[Any]) -> Optional[np.ndarray]:
    """``values`` (floats and ints) as float64, or None when one does
    not fit."""
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError:
        return None


def _parse_document(
    doc: Any,
    names: Dict[str, int],
    texts: Dict[str, int],
    lifted: Dict[str, Lifted],
) -> Tuple[Any, ...]:
    """One subscription document checked in full: its row's values in
    the :data:`_PARSED` columns, None for a column's default —
    municipality and query as codes into ``names`` and ``texts``, which
    grow — or the :class:`SubscriptionError` that refuses it.  A
    standing query is parsed once per text: its lifted form goes into
    ``lifted``."""
    if not isinstance(doc, dict):
        raise SubscriptionError("subscription must be a JSON object")
    kind = doc.get("kind", "filter")
    if kind not in SUBSCRIPTION_KINDS:
        raise SubscriptionError(
            f"kind must be one of {'/'.join(SUBSCRIPTION_KINDS)}, "
            f"got {kind!r}"
        )
    bbox = doc.get("bbox")
    if bbox is not None:
        if not (isinstance(bbox, (list, tuple)) and len(bbox) == 4):
            raise SubscriptionError("bbox must be [minx, miny, maxx, maxy]")
        box = [_finite(v, "bbox") for v in bbox]
        if box[0] > box[2] or box[1] > box[3]:
            raise SubscriptionError(
                "bbox must have minx <= maxx and miny <= maxy, "
                f"got {list(bbox)!r}"
            )
        bbox = box
    floor = doc.get("min_confidence")
    if floor is not None:
        floor = _finite(floor, "min_confidence")
    confirmed = doc.get("confirmed")
    if confirmed is not None and not isinstance(confirmed, bool):
        raise SubscriptionError("confirmed must be a boolean")
    municipality = doc.get("municipality")
    if municipality is not None:
        municipality = names.setdefault(str(municipality), len(names))
    query = doc.get("query")
    if kind == "stsparql":
        if not query:
            raise SubscriptionError("stsparql subscriptions need a query")
        if not isinstance(query, str) or query not in lifted:
            lifted[query] = validate_standing_query(query)
        query = texts.setdefault(query, len(texts))
    elif query is not None:
        raise SubscriptionError(f"{kind} subscriptions do not take a query")
    min_class = 0
    if kind == "fwi":
        name = doc.get("min_class", "high")
        if name not in DANGER_CLASSES:
            raise SubscriptionError(
                f"min_class must be one of {'/'.join(DANGER_CLASSES)}, "
                f"got {name!r}"
            )
        min_class = DANGER_CLASSES.index(name)
    kind = SUBSCRIPTION_KINDS.index(kind)
    return kind, bbox, floor, confirmed, municipality, query, min_class


#: The columns :func:`_parse_document` returns values for.
_PARSED = (
    "kind", "boxes", "floors", "confirmed", "municipality", "query",
    "min_class",
)


def _parse_batch(
    docs: List[Any], ids: List[str], sequence: int
) -> Tuple[SubscriptionRows, Dict[str, Lifted]]:
    """The subscription validator: documents, ``ids[k]`` naming
    ``docs[k]``, as rows in document order, and each standing query's
    lifted form by text (:func:`validate_standing_query`).

    ``filter`` and ``fwi`` documents of the plain shape (a dict; a bbox
    of four floats and ints; a float or int floor; a boolean
    ``confirmed``; a string municipality; no query; for ``fwi`` a
    named ``min_class``) are checked with array operations.  The rest,
    and every plain one an array check refuses, go through
    :func:`_parse_document` in document order, so the batch raises the
    error of the first document it refuses.
    """
    n = len(docs)
    dicts = [doc if type(doc) is dict else {"kind": None} for doc in docs]
    kinds = [doc.get("kind", "filter") for doc in dicts]
    bboxes = [doc.get("bbox") for doc in dicts]
    floors = [doc.get("min_confidence") for doc in dicts]
    flags = [doc.get("confirmed") for doc in dicts]
    names = [doc.get("municipality") for doc in dicts]
    plain = [
        (
            kind == "filter"
            or (
                kind == "fwi"
                and doc.get("min_class", "high") in DANGER_CLASSES
            )
        )
        and doc.get("query") is None
        and type(bbox) in _BOX_TYPES
        and (bbox is None or len(bbox) == 4)
        and type(floor) in _NUMBER_TYPES
        and type(flag) in _FLAG_TYPES
        and type(name) in _NAME_TYPES
        for doc, kind, bbox, floor, flag, name in zip(
            dicts, kinds, bboxes, floors, flags, names
        )
    ]
    rows = SubscriptionRows(ids, created=np.full(n, sequence, dtype=np.int64))
    fenced = [k for k in range(n) if plain[k] and bboxes[k] is not None]
    flat = list(chain.from_iterable(bboxes[k] for k in fenced))
    if set(map(type, flat)) - {float, int}:
        for k in fenced:
            if any(type(v) not in (float, int) for v in bboxes[k]):
                plain[k] = False
        fenced = [k for k in fenced if plain[k]]
        flat = list(chain.from_iterable(bboxes[k] for k in fenced))
    suspects = [k for k, ok in enumerate(plain) if not ok]
    values = _numbers(flat)
    if values is not None:
        values = values.reshape(-1, 4)
        rows.boxes[fenced] = values
        suspects += np.asarray(fenced, dtype=np.intp)[
            ~np.isfinite(values).all(axis=1)
            | (values[:, 0] > values[:, 2])
            | (values[:, 1] > values[:, 3])
        ].tolist()
    else:
        suspects += fenced
    floored = [k for k in range(n) if plain[k] and floors[k] is not None]
    values = _numbers([floors[k] for k in floored])
    if values is not None:
        rows.floors[floored] = values
        suspects += np.asarray(floored, dtype=np.intp)[
            ~np.isfinite(values)
        ].tolist()
    else:
        suspects += floored
    if any(flag is not None for flag in flags):
        rows.confirmed[:] = [
            int(flag) if type(flag) is bool else -1 for flag in flags
        ]
    codes: Dict[str, int] = {}
    if any(name is not None for name in names):
        rows.municipality[:] = [
            codes.setdefault(name, len(codes)) if type(name) is str else -1
            for name in names
        ]
    fwi = [k for k in range(n) if plain[k] and kinds[k] == "fwi"]
    if fwi:
        rows.kind[fwi] = _FWI
        rows.min_class[fwi] = [
            DANGER_CLASSES.index(dicts[k].get("min_class", "high"))
            for k in fwi
        ]
    texts: Dict[str, int] = {}
    lifted: Dict[str, Lifted] = {}
    for k in sorted(set(suspects)):
        values = _parse_document(docs[k], codes, texts, lifted)
        for column, value in zip(_PARSED, values):
            if value is not None:
                getattr(rows, column)[k] = value
    rows.names, rows.queries = list(codes), list(texts)
    return rows, lifted


def _view(rows: SubscriptionRows, row: int) -> Subscription:
    """Row ``row`` of ``rows`` as a :class:`Subscription`."""
    box = rows.boxes[row].tolist()
    floor = float(rows.floors[row])
    code = int(rows.municipality[row])
    confirmed = int(rows.confirmed[row])
    query = int(rows.query[row])
    return Subscription(
        id=rows.ids[row],
        kind=SUBSCRIPTION_KINDS[rows.kind[row]],
        bbox=None if math.isnan(box[0]) else Envelope(*box),
        min_confidence=None if math.isnan(floor) else floor,
        municipality=None if code < 0 else rows.names[code],
        confirmed=None if confirmed < 0 else bool(confirmed),
        query=None if query < 0 else rows.queries[query],
        min_class=int(rows.min_class[row]),
        created_sequence=int(rows.created[row]),
    )


class _Registered(SequenceABC):
    """What a registration returns: the new subscriptions in document
    order.  ``len()`` builds nothing; a :class:`Subscription` is built
    from its row when the item is read."""

    __slots__ = ("_rows",)

    def __init__(self, rows: SubscriptionRows) -> None:
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return _view(self._rows, range(len(self))[index])


class SubscriptionRegistry:
    """Thread-safe subscription store: one column table of every kind,
    the geofences of its filters in an R-tree over row numbers.

    A subscription is a row of a
    :class:`~repro.durable.cursors.SubscriptionRows` table, in
    registration order; its :class:`Subscription` is a view built only
    when asked for.  A kind's subscriptions are a mask over the
    ``kind`` column (a removed row's kind is −1 until the next pack
    drops the row); a standing query's row is also a member of its
    :class:`_Shape`, and :meth:`fwi_recipients` picks the ``fwi`` rows
    a danger-class move notifies column-wise.

    Only ``filter`` rows are matched by geometry: a changed hotspot is
    a point probe of the tree (O(log subscriptions)) plus the bbox-less
    filters, and the predicates of all of a commit's candidate pairs
    are tested column-wise (:meth:`filter_matches`).  The tree is exact
    after every call: a single registration inserts its row, a removal
    deletes it, and bulk registration (reopen included) drops the rows
    removals left and packs every live geofence once from the box
    column (STR, the tile order computed in numpy).  A probe returns
    geofences in the order of the last pack, then of single
    registration, whatever shape later inserts and removals give the
    tree — so a notification batch's bytes do not depend on it.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        #: The rows (grown by :meth:`SubscriptionRows.extend`).
        self._table = SubscriptionRows([])
        #: Each municipality name's code in the table.
        self._codes: Dict[str, int] = {}
        #: Each query code's lifted form.
        self._lifted: List[Lifted] = []
        #: Live id → row (a removed row keeps its id in the table until
        #: the next pack drops it).
        self._row: Dict[str, int] = {}
        self._rtree = RTree()
        #: Each geofenced row's place in probe order.
        self._rank: List[int] = []
        self._next_rank = 0
        #: Live filter rows without a geofence, in registration order.
        self._global: List[int] = []
        #: Standing-query shapes by template.
        self._shapes: Dict[str, _Shape] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._row)

    def add_rows(
        self,
        rows: SubscriptionRows,
        lifted: Optional[Dict[str, Lifted]] = None,
        pack: bool = True,
    ) -> int:
        """Register ``rows``, all or none; returns the row number of the
        first.  ``lifted`` holds standing queries' lifted forms by text
        (the validator's); a text it lacks, as on a reopen, is lifted
        here.  With ``pack`` every live geofence is packed once, else
        each new one is inserted into the tree."""
        with self._lock:
            self._refuse_known(rows.ids)
            table = self._table
            known = set(table.queries)
            self._lifted += [
                (lifted or {}).get(text) or validate_standing_query(text)
                for text in rows.queries
                if text not in known
            ]
            start = table.extend(rows)
            self._codes = {name: code for code, name in enumerate(table.names)}
            self._row.update(zip(rows.ids, range(start, len(table))))
            self._rank.extend([0] * len(rows))
            new = table.kind[start : len(table)] == _STSPARQL
            for row in (start + np.flatnonzero(new)).tolist():
                template, prefix, constants = self._lifted[table.query[row]]
                shape = self._shapes.get(template)
                if shape is None:
                    shape = self._shapes[template] = _Shape(
                        template, prefix, len(constants)
                    )
                shape.add(table.ids[row], constants)
            if pack:
                self._pack()
                return len(self._table) - len(rows)
            for row in range(start, len(table)):
                if table.kind[row] != _FILTER:
                    continue
                box = table.boxes[row].tolist()
                if math.isnan(box[0]):
                    self._global.append(row)
                else:
                    self._rtree.insert(Envelope(*box), row)
                    self._rank[row] = self._next_rank
                    self._next_rank += 1
            return start

    def _refuse_known(self, ids: List[str]) -> None:
        fresh = set(ids)
        if len(fresh) == len(ids) and self._row.keys().isdisjoint(fresh):
            return
        fresh = set()
        for sub_id in ids:
            if sub_id in self._row or sub_id in fresh:
                raise SubscriptionError(
                    f"duplicate subscription id {sub_id!r}"
                )
            fresh.add(sub_id)

    def _pack(self) -> None:
        """Drop the rows removals left, then STR-pack every live
        geofence; probe order becomes the packed tree's."""
        table = self._table
        count = len(table)
        if len(self._row) < count:
            live = np.flatnonzero(table.kind[:count] >= 0)
            for name in SubscriptionRows.COLUMNS:
                column = getattr(table, name)
                column[: len(live)] = column[live]
            table.ids = [table.ids[row] for row in live.tolist()]
            self._row = dict(zip(table.ids, range(len(live))))
            count = len(live)
        filters = table.kind[:count] == _FILTER
        fenced = filters & ~np.isnan(table.boxes[:count, 0])
        rows = np.flatnonzero(fenced)
        self._rtree = RTree.pack(table.boxes[rows], rows)
        rank = np.zeros(count, dtype=np.int64)
        rank[np.array(self._rtree.payloads(), dtype=np.intp)] = np.arange(
            len(rows)
        )
        self._rank = rank.tolist()
        self._next_rank = len(rows)
        self._global = np.flatnonzero(filters & ~fenced).tolist()

    def remove(self, sub_id: str) -> bool:
        """Take a subscription out: its geofence leaves the tree, its
        row stays (kind −1) until the next pack drops it."""
        with self._lock:
            row = self._row.pop(sub_id, None)
            if row is None:
                return False
            table = self._table
            if table.kind[row] == _FILTER:
                box = table.boxes[row].tolist()
                if math.isnan(box[0]):
                    self._global.remove(row)
                else:
                    self._rtree.remove(Envelope(*box), row)
            elif table.kind[row] == _STSPARQL:
                shape = self._shapes[self._lifted[table.query[row]][0]]
                shape.discard(sub_id)
                if not shape.members:
                    del self._shapes[shape.template]
            table.kind[row] = _REMOVED
            return True

    def get(self, sub_id: str) -> Optional[Subscription]:
        with self._lock:
            row = self._row.get(sub_id)
            return None if row is None else _view(self._table, row)

    def list(self) -> List[Subscription]:
        with self._lock:
            subs = [_view(self._table, row) for row in self._row.values()]
        return sorted(subs, key=lambda s: s.id)

    def _rows_of(self, kind: int) -> List[int]:
        """The live rows of kind code ``kind``, in registration order."""
        table = self._table
        return np.flatnonzero(table.kind[: len(table)] == kind).tolist()

    def query_ids(self) -> List[str]:
        """The standing queries' ids, in registration order."""
        with self._lock:
            return [self._table.ids[row] for row in self._rows_of(_STSPARQL)]

    def standing_queries(self) -> List[Subscription]:
        with self._lock:
            return [_view(self._table, r) for r in self._rows_of(_STSPARQL)]

    def fwi_subscriptions(self) -> List[Subscription]:
        with self._lock:
            return [_view(self._table, r) for r in self._rows_of(_FWI)]

    def shapes(
        self, ids: Optional[Iterable[str]] = None
    ) -> List[Tuple[_Shape, List[str]]]:
        """Each standing-query shape with its member ids, in
        registration order — only the members in ``ids`` when given."""
        with self._lock:
            if ids is None:
                return [
                    (shape, list(shape.members))
                    for shape in self._shapes.values()
                ]
            table = self._table
            grouped: Dict[str, Tuple[_Shape, List[str]]] = {}
            for sub_id in ids:
                template = self._lifted[table.query[self._row[sub_id]]][0]
                grouped.setdefault(
                    template, (self._shapes[template], [])
                )[1].append(sub_id)
            return list(grouped.values())

    def counts(self) -> Dict[str, int]:
        with self._lock:
            kind = self._table.kind[: len(self._table)]
            counts = np.bincount(
                kind[kind >= 0], minlength=len(SUBSCRIPTION_KINDS)
            )
            return dict(zip(SUBSCRIPTION_KINDS, counts.tolist()))

    def fwi_recipients(self, municipality: str, danger: int) -> List[str]:
        """The ``fwi`` subscriptions that ``municipality`` moving to the
        danger class ``danger`` notifies, in registration order: those
        whose ``min_class`` is at most ``danger`` and whose
        municipality, if any, names it (its URI or the URI's local
        name)."""
        with self._lock:
            table = self._table
            count = len(table)
            codes = table.municipality[:count]
            uri, local = self._municipality_codes(municipality)
            keep = (
                (table.kind[:count] == _FWI)
                & (table.min_class[:count] <= danger)
                & ((codes < 0) | (codes == uri) | (codes == local))
            )
            return [table.ids[row] for row in np.flatnonzero(keep).tolist()]

    def _probe(self, lon: float, lat: float) -> List[int]:
        rows = sorted(
            self._rtree.search_point(lon, lat), key=self._rank.__getitem__
        )
        rows.extend(self._global)
        return rows

    def geofence_candidates(
        self, lon: float, lat: float
    ) -> List[Subscription]:
        """Filter subscriptions whose predicates could match a hotspot
        at (lon, lat): a point probe of the geofence index plus the
        bbox-less filters (which see everything), in probe order."""
        with self._lock:
            return [_view(self._table, row) for row in self._probe(lon, lat)]

    def filter_matches(
        self, records: Sequence[HotspotRecord], since_row: int = 0
    ) -> List[Tuple[int, str]]:
        """``(record index, subscription id)`` for every filter
        subscription that matches a record: records in order, each
        one's matches in probe order.  Only rows from ``since_row`` on
        (a registration's new rows) when given.  Static heat sources
        match nothing.

        Each record's candidates come from one point probe; the
        confidence, confirmation and municipality predicates are then
        tested over every (record, candidate) pair at once.
        """
        with self._lock:
            which: List[int] = []
            rows: List[int] = []
            for index, record in enumerate(records):
                if record.static:
                    continue
                found = self._probe(record.lon, record.lat)
                if since_row:
                    found = [row for row in found if row >= since_row]
                which.extend([index] * len(found))
                rows.extend(found)
            if not rows:
                return []
            table = self._table
            at = np.array(rows, dtype=np.intp)
            of = np.array(which, dtype=np.intp)
            floors = table.floors[at]
            confidence = np.array(
                [
                    np.nan if r.confidence is None else r.confidence
                    for r in records
                ]
            )[of]
            keep = np.isnan(floors) | (confidence >= floors)
            flags = table.confirmed[at]
            confirmed = np.array(
                [
                    -2 if r.confirmed is None else int(r.confirmed)
                    for r in records
                ],
                dtype=np.int8,
            )[of]
            keep &= (flags < 0) | (flags == confirmed)
            codes = table.municipality[at]
            if (codes >= 0).any():
                # A name matches a hotspot's municipality URI, or that
                # URI's local name.
                uri, local = (
                    np.array(column, dtype=np.int32)[of]
                    for column in zip(
                        *(
                            self._municipality_codes(r.municipality)
                            for r in records
                        )
                    )
                )
                keep &= (codes < 0) | (codes == uri) | (codes == local)
            ids = table.ids
            return [
                (index, ids[row])
                for index, row in zip(of[keep].tolist(), at[keep].tolist())
            ]

    def _municipality_codes(self, uri: Optional[str]) -> Tuple[int, int]:
        """The codes of a municipality URI and of its local name (−2
        for a name no row holds)."""
        if uri is None:
            return -2, -2
        local = uri.rsplit("#", 1)[-1].rsplit("/", 1)[-1]
        return self._codes.get(uri, -2), self._codes.get(local, -2)


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
            self.registry.add_rows(self._registry_log.rows)
            self._rebuild_seen()

    # -- durable state -----------------------------------------------------

    def _rebuild_seen(self) -> None:
        """Replaying the notification log restores exactly-once: every
        previously delivered (subscription, subject) pair re-enters
        the seen-set, so regenerated or repaired batches can never
        duplicate a notification that already reached the log.  The
        pairs registration primed come back from the registry log,
        so a later change to a primed hotspot stays silent too."""
        assert self.log is not None and self._registry_log is not None
        for batch in self.log.batches:
            for subscription, kind, index in batch.refs:
                if kind != "fwi":
                    self._seen.setdefault(subscription, set()).add(
                        batch.subjects[index][0]
                    )
        for subscription, subjects in self._registry_log.primed.items():
            self._seen.setdefault(subscription, set()).update(subjects)

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

    # -- registration ------------------------------------------------------

    def register(self, doc: Dict[str, Any]) -> Subscription:
        """Validate, index, prime and persist one subscription.

        Priming evaluates the new subscription against the latest
        *published* snapshot and marks current matches as seen without
        notifying — a standing query starts "from now", it does not
        replay history.  A geofence is inserted into the tree.
        """
        return self._register([doc], pack=False)[0]

    def register_many(
        self, docs: Iterable[Dict[str, Any]]
    ) -> Sequence[Subscription]:
        """Bulk registration: the batch validated column-wise, one
        R-tree pack, then priming probes it once per live hotspot in the
        new fences' joint envelope.  Returns the new subscriptions in
        document order, each built when it is read."""
        return self._register(list(docs), pack=True)

    def _register(
        self, docs: List[Dict[str, Any]], pack: bool
    ) -> _Registered:
        """Register ``docs`` all or none: when priming or the
        registry-log append raises, the index and seen-set entries are
        taken back before the error propagates, so nothing is notified
        that a restart would not know."""
        sequence = (
            self._publisher.sequence
            if self._publisher is not None
            else 0
        )
        ids = _mint_ids(len(docs))
        rows, lifted = _parse_batch(docs, ids, sequence)
        with self._lock:
            start = self.registry.add_rows(rows, lifted, pack=pack)
            try:
                primed = self._prime(rows, start)
                if self._registry_log is not None:
                    self._registry_log.add(rows, primed)
            except BaseException:
                for sub_id in ids:
                    self.registry.remove(sub_id)
                    self._seen.pop(sub_id, None)
                raise
        self._export_gauges()
        return _Registered(rows)

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

    def _prime(
        self, rows: SubscriptionRows, start: int
    ) -> Dict[str, List[str]]:
        """Mark the new subscriptions' current matches as seen —
        ``rows``, the registry's rows from ``start`` on — and return
        them (``id → sorted subjects``, matchless ones left out) for the
        registry log, so a restart restores them too."""
        source = self._priming_source()
        if source is None:
            return {}
        graph = _source_graph(source)
        filters = rows.kind == _FILTER
        if filters.any():
            boxes = rows.boxes[filters]
            area = (
                None
                if np.isnan(boxes[:, 0]).any()
                else Envelope(
                    *boxes[:, :2].min(axis=0).tolist(),
                    *boxes[:, 2:].max(axis=0).tolist(),
                )
            )
            self._match_filters(
                list(_hotspots_in(source, graph, area)), since_row=start
            )
        queries = np.flatnonzero(rows.kind == _STSPARQL).tolist()
        self._prime_queries(source, [rows.ids[k] for k in queries])
        if (rows.kind == _FWI).any():
            self._ensure_fwi_baseline(graph)
        seen = self._seen
        return {
            sub_id: sorted(seen[sub_id])
            for sub_id in rows.ids
            if seen.get(sub_id)
        }

    def _prime_queries(self, source, ids: List[str]) -> None:
        """Mark what the standing queries ``ids`` match in ``source``
        as seen: one engine call per shape."""
        for shape, members in self.registry.shapes(ids):
            for sub_id, subjects in self._shape_matches(
                source, shape, members
            ).items():
                if subjects:
                    self._seen.setdefault(sub_id, set()).update(subjects)

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
        records: List[HotspotRecord],
        out: Optional[_BatchBuilder] = None,
        since_row: int = 0,
    ) -> None:
        """The filter family over ``records``
        (:meth:`SubscriptionRegistry.filter_matches`; only the rows from
        ``since_row`` on when priming a registration).  A match not yet
        seen is marked seen and, with ``out``, notified."""
        seen = self._seen
        for index, sub_id in self.registry.filter_matches(
            records, since_row
        ):
            record = records[index]
            subjects = seen.get(sub_id)
            if subjects is None:
                seen[sub_id] = {record.subject}
            elif record.subject in subjects:
                continue
            else:
                subjects.add(record.subject)
            if out is not None:
                out.match(sub_id, "filter", record)

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
        self._match_queries(source, records, out, seeded=True)
        # fwi family: recompute only the touched municipalities.
        if municipalities is None:
            self._fwi_full(graph, out)
        else:
            self._ensure_fwi_baseline(graph)
            inference = RDFSInference(graph)
            for municipality in sorted(municipalities):
                self._fwi_transition(graph, inference, municipality, out)

    def _match_queries(
        self,
        source,
        records: List[HotspotRecord],
        out: _BatchBuilder,
        seeded: bool,
    ) -> None:
        """The stsparql family over ``records``: one engine call per
        query shape.  ``seeded``, the call is seeded with a ``?h`` row
        per subject some member has pending (VALUES semantics), so its
        cost follows the delta; otherwise it runs over the whole
        source.  A member notifies its pending records it matched, in
        registry order, then record order."""
        ids = self.registry.query_ids()
        pending: Dict[str, List[HotspotRecord]] = {}
        for sub_id in ids:
            seen = self._seen.setdefault(sub_id, set())
            pending[sub_id] = [
                record
                for record in records
                if not record.static and record.subject not in seen
            ]
        matched: Dict[str, Set[str]] = {}
        for shape, members in self.registry.shapes():
            wanted = {
                record.subject
                for member in members
                for record in pending[member]
            }
            if not wanted:
                continue
            subjects = (
                [r.subject for r in records if r.subject in wanted]
                if seeded
                else None
            )
            matched.update(
                self._shape_matches(source, shape, members, subjects)
            )
        for sub_id in ids:
            hits = matched.get(sub_id)
            if not hits:
                continue
            seen = self._seen[sub_id]
            for record in pending[sub_id]:
                if record.subject in hits:
                    seen.add(record.subject)
                    out.match(sub_id, "stsparql", record)

    @staticmethod
    def _shape_matches(
        source,
        shape: _Shape,
        members: List[str],
        subjects: Optional[List[str]] = None,
    ) -> Dict[str, Set[str]]:
        """``member id → ?h subjects`` its query matches: one engine
        call, seeded with ``subjects`` when given."""
        params = (
            None
            if subjects is None
            else [{"h": URI(subject)} for subject in subjects]
        )
        found: Dict[str, Set[str]] = {member: set() for member in members}
        for row in source.select(shape.text(members), params=params):
            h = row.get("h")
            member = row.get(shape.id_var)
            if h is not None and member is not None:
                found[member.lexical].add(_text(h))
        return found

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
            self.registry.fwi_recipients(municipality, new_index),
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
        with self._lock, (
            nullcontext() if commit else self.evaluation_undone()
        ):
            records = list(iter_hotspot_records(graph))
            self._match_filters(records, out)
            self._match_queries(source, records, out, seeded=False)
            self._fwi_full(graph, out)
        return out.batch(sequence)

    @contextmanager
    def evaluation_undone(self):
        """Undo, on exit, what evaluating changes in the engine: the
        seen-sets and the FWI classes.  Benchmarks time an evaluation
        repeatedly against one pre-state this way; a logged batch (on
        a durable engine) is not undone."""
        with self._lock:
            saved_seen = {k: set(v) for k, v in self._seen.items()}
            saved_fwi = (
                None
                if self._fwi_classes is None
                else dict(self._fwi_classes)
            )
            try:
                yield
            finally:
                self._seen = saved_seen
                self._fwi_classes = saved_fwi

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
