"""The semantic refinement pipeline (§3.2.4, measured in Figure 8).

Six paper operations run per acquisition, in the paper's order:

1. **Store** — annotate the product in RDF and insert it,
2. **Municipalities** — associate each hotspot with the municipality it
   falls in (the slowest operation in Figure 8),
3. **DeleteInSea** — drop hotspots lying entirely in the sea,
4. **InvalidForFires** — drop hotspots over land-cover classes where a
   forest fire is impossible (urban, permanent agriculture ...),
5. **RefineInCoast** — clip partially-at-sea hotspot geometries to land
   (the paper's strdf:union / strdf:intersection update, verbatim),
6. **TimePersistence** — confirm hotspots re-detected within the last
   hour; mark isolated ones unconfirmed.

With a source federation, three more make nine: **SourceIngest** after
Store, **CrossConfirm** and **StaticSources** before TimePersistence.
``_OPERATION_TABLE`` is the one list of them.

Every operation is an stSPARQL query/update executed by Strabon, and every
call returns its wall time so the Figure 8 benchmark can plot them.

The request texts are static templates: per-acquisition values (the
acquisition timestamp, the persistence-window start) are passed as
*parameters* — pre-bound variables ``?__ts`` / ``?__window_start`` —
instead of being embedded in the text.  Constant text is what makes the
engine's plan cache effective: after the first acquisition every
refinement request is answered from a cached parse.
"""

from __future__ import annotations

import functools
import logging
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Callable, Dict, List, Optional

from repro.core.annotation import (
    _float_literal,
    annotate_product,
    annotate_source_batch,
    source_name,
    source_uri,
)
from repro.core.products import HotspotProduct
from repro.faults import trip as faults_trip
from repro.obs import get_metrics, get_tracer
from repro.ontology.noa import (
    CONFIRMATION_CONFIRMED,
    load_noa_ontology,
)
from repro.rdf import NOA
from repro.rdf.namespace import XSD
from repro.rdf.term import Literal
from repro.sources.fusion import fused_confidence
from repro.stsparql import Strabon

_log = logging.getLogger(__name__)
_tracer = get_tracer()
_metrics = get_metrics()

_PREFIXES = """
PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#>
PREFIX clc: <http://teleios.di.uoa.gr/ontologies/clcOntology.owl#>
PREFIX coast: <http://teleios.di.uoa.gr/ontologies/coastlineOntology.owl#>
PREFIX gag: <http://teleios.di.uoa.gr/ontologies/gagOntology.owl#>
PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
"""


def _stamp(when: datetime) -> str:
    return when.strftime("%Y-%m-%dT%H:%M:%S")


def _ts_param(when: datetime) -> Literal:
    """The xsd:dateTime literal a timestamp parameter binds to.

    Must match the lexical form :mod:`repro.core.annotation` writes, so
    a ``?__ts``-bound pattern matches the stored literal exactly.
    """
    return Literal(_stamp(when), datatype=XSD.base + "dateTime")


#: Static request templates.  The acquisition timestamp arrives as the
#: pre-bound parameter ``?__ts`` (and the persistence window start as
#: ``?__window_start``) so the text — the engine's plan-cache key —
#: never changes between acquisitions.

_MUNICIPALITIES_UPDATE = _PREFIXES + """
INSERT { ?h noa:isInMunicipality ?m }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?__ts ;
     strdf:hasGeometry ?hGeo .
  ?m a gag:Dhmos ;
     strdf:hasGeometry ?mGeo .
  FILTER(strdf:anyInteract(?hGeo, ?mGeo)) .
}
"""

_DELETE_IN_SEA_UPDATE = _PREFIXES + """
DELETE { ?h ?hProperty ?hObject }
WHERE {
  { SELECT DISTINCT ?h WHERE {
       ?h a noa:Hotspot ;
          noa:hasAcquisitionDateTime ?__ts ;
          strdf:hasGeometry ?hGeo .
       OPTIONAL {
         ?c a coast:Coastline ;
            strdf:hasGeometry ?cGeo .
         FILTER (strdf:anyInteract(?hGeo, ?cGeo)) }
       FILTER(!bound(?c)) } }
  ?h ?hProperty ?hObject . }
"""

_INVALID_FOR_FIRES_UPDATE = _PREFIXES + """
DELETE { ?h ?hProperty ?hObject }
WHERE {
  { SELECT DISTINCT ?h WHERE {
       ?h a noa:Hotspot ;
          noa:hasAcquisitionDateTime ?__ts ;
          strdf:hasGeometry ?hGeo .
       ?bad a clc:Area ;
          clc:hasLandUse ?badUse ;
          strdf:hasGeometry ?badGeo .
       { ?badUse a clc:ArtificialSurfaces } UNION
       { ?badUse a clc:PermanentCrops }
       FILTER(strdf:anyInteract(?hGeo, ?badGeo)) .
       OPTIONAL {
         ?ok a clc:Area ;
            clc:hasLandUse ?okUse ;
            strdf:hasGeometry ?okGeo .
         ?okUse a clc:ForestsAndSemiNaturalAreas .
         FILTER(strdf:anyInteract(?hGeo, ?okGeo)) }
       FILTER(!bound(?ok)) } }
  ?h ?hProperty ?hObject . }
"""

_REFINE_IN_COAST_UPDATE = _PREFIXES + """
DELETE { ?h strdf:hasGeometry ?hGeo }
INSERT { ?h strdf:hasGeometry ?dif }
WHERE {
  SELECT DISTINCT ?h ?hGeo
  (strdf:intersection(?hGeo, strdf:union(?cGeo)) AS ?dif)
  WHERE {
    ?h a noa:Hotspot ;
       noa:hasAcquisitionDateTime ?__ts ;
       strdf:hasGeometry ?hGeo .
    ?c a coast:Coastline ;
       strdf:hasGeometry ?cGeo .
    FILTER(strdf:anyInteract(?hGeo, ?cGeo)) }
  GROUP BY ?h ?hGeo
  HAVING strdf:overlap(?hGeo, strdf:union(?cGeo)) }
"""

_MARK_UNCONFIRMED_UPDATE = _PREFIXES + """
INSERT { ?h noa:hasConfirmation noa:unconfirmed }
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?__ts .
  FILTER NOT EXISTS { ?h noa:hasConfirmation noa:confirmed } }
"""

#: Cross-source confirmation (ISSUE 10): all (hotspot, detection)
#: pairs where a federated source saw heat inside the hotspot's
#: footprint within the fusion window.  Detection geometries are
#: already inflated to the window (see ``annotate_source_batch``), so
#: ``anyInteract`` *is* the spatial half of the dedup predicate.
_CROSS_MATCH_QUERY = _PREFIXES + """
SELECT ?h ?conf ?src ?dConf
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?__ts ;
     noa:hasConfidence ?conf ;
     strdf:hasGeometry ?hGeo .
  ?d a noa:SourceDetection ;
     noa:fromSource ?src ;
     noa:hasConfidence ?dConf ;
     noa:hasAcquisitionDateTime ?dTime ;
     strdf:hasGeometry ?dGeo .
  FILTER( str(?dTime) >= str(?__window_start) ) .
  FILTER( str(?dTime) <= str(?__ts) ) .
  FILTER( strdf:anyInteract(?hGeo, ?dGeo) ) . }
"""

#: The current acquisition's surviving hotspots with confidence —
#: the set the cross-confirm stage partitions into confirmed/decayed.
_ACQ_SURVIVORS_QUERY = _PREFIXES + """
SELECT ?h ?conf
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?__ts ;
     noa:hasConfidence ?conf . }
"""

_SURVIVORS_ALL_QUERY = _PREFIXES + """
SELECT ?h ?hGeo ?conf ?confirmation
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?t ;
     strdf:hasGeometry ?hGeo ;
     noa:hasConfidence ?conf .
  OPTIONAL { ?h noa:hasConfirmation ?confirmation }
  }
"""

_SURVIVORS_AT_QUERY = _PREFIXES + """
SELECT ?h ?hGeo ?conf ?confirmation
WHERE {
  ?h a noa:Hotspot ;
     noa:hasAcquisitionDateTime ?__ts ;
     strdf:hasGeometry ?hGeo ;
     noa:hasConfidence ?conf .
  OPTIONAL { ?h noa:hasConfirmation ?confirmation }
  }
"""


@dataclass
class OperationTiming:
    """Wall time of one refinement operation on one acquisition."""

    operation: str
    timestamp: datetime
    seconds: float
    detail: Dict[str, int] = field(default_factory=dict)


#: Every refinement operation, in pipeline order, marked True for
#: Figure 8's six paper operations and False for the three that run
#: only with a source federation (ingest right after Store so the
#: spatial rules see one graph; confirm/static-flag before Time
#: Persistence so its NOT-EXISTS respects cross-source confirmations).
#: A label's slug, ``label.lower().replace(" ", "_")``, names the
#: method that runs it, its ``refine.<slug>`` span and its fault site.
_OPERATION_TABLE = (
    ("Store", True),
    ("Source Ingest", False),
    ("Municipalities", True),
    ("Delete In Sea", True),
    ("Invalid For Fires", True),
    ("Refine In Coast", True),
    ("Cross Confirm", False),
    ("Static Sources", False),
    ("Time Persistence", True),
)


def _slug(label: str) -> str:
    return label.lower().replace(" ", "_")


_LABELS = {_slug(label): label for label, _paper in _OPERATION_TABLE}


def _operation(body: Callable[..., Dict[str, int]]):
    """Time the refinement operation ``body``, named after its slug.

    ``body(self, subject, ...)`` does the work and returns its detail
    counts; ``subject`` is the product or the acquisition timestamp.
    The wrapper runs it inside the ``refine.<slug>`` span, records the
    label and counts on the span, feeds ``refine_operation_seconds``
    and returns the :class:`OperationTiming`.
    """
    slug = body.__name__
    label = _LABELS[slug]

    @functools.wraps(body)
    def timed(self, subject, *args, **kwargs) -> OperationTiming:
        timestamp = (
            subject.timestamp
            if isinstance(subject, HotspotProduct)
            else subject
        )
        with _tracer.measure(f"refine.{slug}") as span:
            detail = body(self, subject, *args, **kwargs)
        span.set(operation=label, **detail)
        if _metrics.enabled:
            _metrics.histogram(
                "refine_operation_seconds",
                "Wall seconds per semantic-refinement operation",
            ).observe(span.duration, operation=label)
        _log.debug("refinement %s at %s: %s", label, timestamp, detail)
        return OperationTiming(label, timestamp, span.duration, detail)

    return timed


class RefinementPipeline:
    """Runs the refinement operations against a Strabon endpoint: the
    six paper operations, nine with a source federation."""

    #: Figure 8's six operations, in order.
    OPERATIONS = tuple(label for label, paper in _OPERATION_TABLE if paper)

    def __init__(
        self,
        strabon: Strabon,
        persistence_window_minutes: int = 60,
        persistence_min_detections: int = 3,
        federation=None,
        static_min_prior_detections: int = 1,
    ) -> None:
        self.strabon = strabon
        self.persistence_window_minutes = persistence_window_minutes
        self.persistence_min_detections = persistence_min_detections
        self.federation = federation
        self.static_min_prior_detections = static_min_prior_detections
        #: The operation labels *this* pipeline runs, in order.
        self.operations = tuple(
            label
            for label, paper in _OPERATION_TABLE
            if paper or federation is not None
        )
        self.last_source_reports: List = []
        self._product_count = 0
        # Persistence floor for the static-heat-source flag, baked
        # into the HAVING clause like the confirmation threshold.
        self._static_update = _PREFIXES + f"""
INSERT {{ ?h noa:matchesStaticSource ?site }}
WHERE {{
  SELECT ?h ?site (COUNT(?prev) AS ?n)
  WHERE {{
    ?h a noa:Hotspot ;
       noa:hasAcquisitionDateTime ?__ts ;
       strdf:hasGeometry ?hGeo .
    ?site a noa:StaticHeatSource ;
       strdf:hasGeometry ?sGeo .
    FILTER( strdf:anyInteract(?hGeo, ?sGeo) ) .
    ?prev a noa:Hotspot ;
       noa:hasAcquisitionDateTime ?pTime ;
       strdf:hasGeometry ?pGeo .
    FILTER( str(?pTime) < str(?__ts) ) .
    FILTER( strdf:anyInteract(?pGeo, ?sGeo) ) .
  }}
  GROUP BY ?h ?site
  HAVING (COUNT(?prev) >= {self.static_min_prior_detections}) }}
"""
        # The confirmation threshold is part of the HAVING clause, and
        # constant for the pipeline's lifetime — bake it into the text
        # once so the template stays plan-cacheable.
        self._confirm_update = _PREFIXES + f"""
INSERT {{ ?h noa:hasConfirmation noa:confirmed }}
WHERE {{
  SELECT ?h (COUNT(?prev) AS ?n)
  WHERE {{
    ?h a noa:Hotspot ;
       noa:hasAcquisitionDateTime ?__ts ;
       strdf:hasGeometry ?hGeo .
    ?prev a noa:Hotspot ;
       noa:hasAcquisitionDateTime ?pTime ;
       strdf:hasGeometry ?pGeo .
    FILTER( str(?pTime) < str(?__ts) ) .
    FILTER( str(?pTime) >= str(?__window_start) ) .
    FILTER( strdf:anyInteract(?hGeo, ?pGeo) ) .
  }}
  GROUP BY ?h
  HAVING (COUNT(?prev) >= {self.persistence_min_detections}) }}
"""
        load_noa_ontology(strabon.graph)

    @property
    def product_count(self) -> int:
        """Products stored so far — and the namespace index the *next*
        product's URIs are minted under.  A durable service persists
        and restores it: restarting at zero would mint URIs that
        collide with recovered acquisitions."""
        return self._product_count

    @product_count.setter
    def product_count(self, value: int) -> None:
        self._product_count = int(value)

    # -- operations --------------------------------------------------------

    @_operation
    def store(self, product: HotspotProduct) -> Dict[str, int]:
        """Operation 1: insert the product's RDF representation."""
        with _tracer.span("annotation"):
            added, _uris = annotate_product(
                self.strabon.graph, product, self._product_count
            )
        self._product_count += 1
        return {"triples": added, "hotspots": len(product)}

    @_operation
    def municipalities(self, timestamp: datetime) -> Dict[str, int]:
        """Operation 2: hotspot → municipality association."""
        return self._update(_MUNICIPALITIES_UPDATE, timestamp)

    @_operation
    def delete_in_sea(self, timestamp: datetime) -> Dict[str, int]:
        """Operation 3: the paper's first update statement, scoped to one
        acquisition (hotspots intersecting no coastline polygon lie
        entirely in the sea)."""
        return self._update(_DELETE_IN_SEA_UPDATE, timestamp)

    @_operation
    def invalid_for_fires(self, timestamp: datetime) -> Dict[str, int]:
        """Operation 4: drop hotspots over fully inconsistent land-cover
        classes (urban fabric, industrial units, permanent crops) that do
        not also touch fire-consistent (forest / semi-natural) cover —
        the paper's first false-alarm scenario."""
        return self._update(_INVALID_FOR_FIRES_UPDATE, timestamp)

    @_operation
    def refine_in_coast(self, timestamp: datetime) -> Dict[str, int]:
        """Operation 5: the paper's second update statement verbatim —
        replace the geometry of partially-at-sea hotspots with its
        intersection with the union of coastline polygons."""
        return self._update(_REFINE_IN_COAST_UPDATE, timestamp)

    @_operation
    def time_persistence(self, timestamp: datetime) -> Dict[str, int]:
        """Operation 6: confirmation by temporal persistence.

        A hotspot is *confirmed* when the same location was detected at
        least ``persistence_min_detections`` times during the preceding
        window; otherwise it is marked *unconfirmed*.
        """
        window_start = timestamp - timedelta(
            minutes=self.persistence_window_minutes
        )
        params = {
            "__ts": _ts_param(timestamp),
            "__window_start": _ts_param(window_start),
        }
        confirmed = self.strabon.update(self._confirm_update, params)
        self.strabon.update(_MARK_UNCONFIRMED_UPDATE, params)
        return {"confirmed": confirmed.added}

    # -- multi-source operations (ISSUE 10) --------------------------------

    @_operation
    def source_ingest(
        self,
        product: HotspotProduct,
        fault_index: Optional[int] = None,
    ) -> Dict[str, int]:
        """Federation operation A: poll every driver and annotate.

        A lost source is a *gap*, not a failure: the federation
        returns per-source reports (kept in
        :attr:`last_source_reports` for the service's provenance and
        degradation accounting) and the acquisition proceeds with
        whatever arrived.
        """
        assert self.federation is not None
        window_degrees = self.federation.config.fusion_window_degrees
        batches, reports = self.federation.collect(
            product.timestamp, fault_index=fault_index
        )
        added = 0
        observations = 0
        for batch in batches:
            added += annotate_source_batch(
                self.strabon.graph,
                batch,
                footprint_degrees=window_degrees,
            )
            observations += len(batch)
        self.last_source_reports = reports
        return {
            "triples": added,
            "observations": observations,
            "gaps": sum(1 for r in reports if r.is_gap),
        }

    @_operation
    def cross_confirm(self, timestamp: datetime) -> Dict[str, int]:
        """Federation operation B: dedup/confirm across sources.

        A hotspot whose footprint any federated detection touched
        within the fusion window is *confirmed by multiple sources*
        (SEVIRI plus at least one more): it gets
        ``noa:hasConfirmation noa:confirmed``, one
        ``noa:crossConfirmedBy`` link per corroborating source, and
        the noisy-OR fused confidence.  A hotspot no other source saw
        decays by ``single_source_decay``.  Iteration follows sorted
        hotspot URIs and per-source maxima, so the result — including
        the floating-point fusion — is independent of source arrival
        order.
        """
        assert self.federation is not None
        config = self.federation.config
        window_start = timestamp - timedelta(
            minutes=config.fusion_window_minutes
        )
        params = {
            "__ts": _ts_param(timestamp),
            "__window_start": _ts_param(window_start),
        }
        matches: Dict[str, Dict[str, float]] = {}
        for row in self.strabon.select(_CROSS_MATCH_QUERY, params):
            key = row["h"].value
            name = source_name(row["src"])
            detection_conf = float(row["dConf"].value)
            per = matches.setdefault(key, {})
            per[name] = max(per.get(name, 0.0), detection_conf)
        graph = self.strabon.graph
        confirmed = 0
        decayed = 0
        hot_rows = sorted(
            self.strabon.select(_ACQ_SURVIVORS_QUERY, params),
            key=lambda r: r["h"].value,
        )
        for row in hot_rows:
            node = row["h"]
            confidence = float(row["conf"].value)
            per = matches.get(node.value)
            if per:
                fused = fused_confidence(
                    [confidence] + [per[name] for name in sorted(per)]
                )
                graph.remove(s=node, p=NOA.hasConfidence)
                graph.add(node, NOA.hasConfidence, _float_literal(fused))
                graph.remove(s=node, p=NOA.hasConfirmation)
                graph.add(
                    node, NOA.hasConfirmation, CONFIRMATION_CONFIRMED
                )
                for name in sorted(per):
                    graph.add(
                        node, NOA.crossConfirmedBy, source_uri(name)
                    )
                confirmed += 1
            else:
                value = round(confidence * config.single_source_decay, 6)
                if value != confidence:
                    graph.remove(s=node, p=NOA.hasConfidence)
                    graph.add(
                        node, NOA.hasConfidence, _float_literal(value)
                    )
                decayed += 1
        return {"confirmed": confirmed, "decayed": decayed}

    @_operation
    def static_sources(self, timestamp: datetime) -> Dict[str, int]:
        """Federation operation C: flag persistent industrial heat.

        The temporal-persistence rule: a hotspot over a known static
        site that already produced detections in *earlier*
        acquisitions is flagged ``noa:matchesStaticSource`` — the
        serving and subscription tiers exclude flagged hotspots from
        alerts (this-is-fine's industrial filtering).
        """
        result = self.strabon.update(
            self._static_update, {"__ts": _ts_param(timestamp)}
        )
        return {"flagged": result.added}

    # -- orchestration -----------------------------------------------------

    def refine_acquisition(
        self,
        product: HotspotProduct,
        deadline: Optional[float] = None,
        fault_index: Optional[int] = None,
    ) -> List[OperationTiming]:
        """Run :attr:`operations` for one product; returns their timings.

        ``deadline`` (a ``time.monotonic`` instant) makes the loop
        *cooperatively* truncating: before each operation the remaining
        time is checked and the pipeline stops cleanly once the window
        is spent.  Truncation — detectable by the caller as
        ``len(timings) < len(operations)`` — is preferred over a
        preemptive timeout because an abandoned refinement thread would
        keep mutating the shared RDF store mid-update.

        Each operation is also a fault site (``refine.<slug>``) so the
        injection harness can fail or delay refinement of acquisition
        ``fault_index`` specifically.  Operations are looked up by name
        at call time, so a wrapper installed on the class is honoured.
        """
        ts = product.timestamp
        # The operations that take more than the timestamp.
        args = {"store": (product,), "source_ingest": (product, fault_index)}
        out: List[OperationTiming] = []
        with _tracer.span("refinement", hotspots=len(product)) as span:
            for label in self.operations:
                slug = _slug(label)
                if deadline is not None and time.monotonic() >= deadline:
                    span.set(truncated_at=slug)
                    break
                faults_trip(f"refine.{slug}", index=fault_index)
                out.append(getattr(self, slug)(*args.get(slug, (ts,))))
        _log.debug(
            "refined acquisition %s: %d/%d operation(s), %.3fs total",
            ts,
            len(out),
            len(self.operations),
            sum(t.seconds for t in out),
        )
        return out

    def surviving_hotspots(self, timestamp: Optional[datetime] = None):
        """Hotspot URI / geometry / confidence rows after refinement."""
        if timestamp is None:
            return self.strabon.select(_SURVIVORS_ALL_QUERY)
        return self.strabon.select(
            _SURVIVORS_AT_QUERY, {"__ts": _ts_param(timestamp)}
        )

    def _update(
        self, update_text: str, timestamp: datetime
    ) -> Dict[str, int]:
        result = self.strabon.update(
            update_text, {"__ts": _ts_param(timestamp)}
        )
        return {"added": result.added, "removed": result.removed}
