"""The NOA ontology for fire-monitoring products.

Mirrors Figure 5: the classes ``RawData``, ``Shapefile`` and ``Hotspot``
(as SWEET subclasses for interoperability), the annotation properties that
link products to sensors, acquisition times, processing chains and the
producing organisation, and the spatial/confidence literals of hotspots.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.rdf import (
    NOA,
    OWL,
    RDF,
    RDFS,
    STRDF,
    SWEET,
    Graph,
    Literal,
    Term,
    XSD,
)

#: Confirmation state individuals used by the TimePersistence refinement.
CONFIRMATION_CONFIRMED = NOA.confirmed
CONFIRMATION_UNCONFIRMED = NOA.unconfirmed

_DATATYPE_PROPERTIES = [
    ("hasAcquisitionDateTime", XSD.base + "dateTime"),
    ("hasConfidence", XSD.base + "float"),
    ("hasFilename", XSD.base + "string"),
    ("isDerivedFromSensor", XSD.base + "string"),
    ("isFromProcessingChain", XSD.base + "string"),
    ("hasYpesCode", XSD.base + "string"),
    # Multi-source federation vocabulary (ISSUE 10).
    ("hasDangerContribution", XSD.base + "float"),
    ("hasTemperature", XSD.base + "float"),
    ("hasRelativeHumidity", XSD.base + "float"),
    ("hasWindSpeed", XSD.base + "float"),
    ("hasStaticSourceName", XSD.base + "string"),
]

_OBJECT_PROPERTIES = [
    "isProducedBy",
    "hasConfirmation",
    "isInMunicipality",
    "isDerivedFromShapefile",
    # Multi-source federation vocabulary (ISSUE 10).
    "fromSource",
    "crossConfirmedBy",
    "matchesStaticSource",
]


def noa_ontology_triples() -> List[Tuple[Term, Term, Term]]:
    """The schema-level triples of the NOA ontology."""
    triples: List[Tuple[Term, Term, Term]] = []

    def t(s: Term, p: Term, o: Term) -> None:
        triples.append((s, p, o))

    for cls in (
        "RawData",
        "Shapefile",
        "Hotspot",
        "SourceDetection",
        "WeatherObservation",
        "StaticHeatSource",
    ):
        t(NOA.term(cls), RDF.type, OWL.Class)
    # SWEET alignment (interoperability, as the paper notes).
    t(NOA.RawData, RDFS.subClassOf, SWEET.term("data/Data"))
    t(NOA.Shapefile, RDFS.subClassOf, SWEET.term("data/Dataset"))
    t(NOA.Hotspot, RDFS.subClassOf, SWEET.term("phenAtmo/Phenomena"))
    t(NOA.Organization, RDF.type, OWL.Class)
    t(NOA.ProcessingChain, RDF.type, OWL.Class)
    t(NOA.ConfirmationState, RDF.type, OWL.Class)
    t(CONFIRMATION_CONFIRMED, RDF.type, NOA.ConfirmationState)
    t(CONFIRMATION_UNCONFIRMED, RDF.type, NOA.ConfirmationState)
    t(NOA.noa, RDF.type, NOA.Organization)
    t(NOA.noa, RDFS.label, Literal("National Observatory of Athens"))
    for name, datatype in _DATATYPE_PROPERTIES:
        prop = NOA.term(name)
        t(prop, RDF.type, OWL.DatatypeProperty)
        t(prop, RDFS.range, _uri(datatype))
    for name in _OBJECT_PROPERTIES:
        t(NOA.term(name), RDF.type, OWL.ObjectProperty)
    t(STRDF.hasGeometry, RDF.type, OWL.DatatypeProperty)
    t(STRDF.hasGeometry, RDFS.range, STRDF.geometry)
    # Domain statements for the core hotspot annotations.
    for name in (
        "hasAcquisitionDateTime",
        "hasConfidence",
        "isDerivedFromSensor",
        "isFromProcessingChain",
    ):
        t(NOA.term(name), RDFS.domain, NOA.Hotspot)
    return triples


def _uri(value: str):
    from repro.rdf import URI

    return URI(value)


def load_noa_ontology(graph: Graph) -> int:
    """Insert the ontology into ``graph``; returns triples added."""
    return graph.add_all(noa_ontology_triples())
