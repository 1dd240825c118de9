"""NOA ontology structure (Figure 5)."""

from repro.ontology import noa_ontology_triples
from repro.ontology.noa import (
    CONFIRMATION_CONFIRMED,
    CONFIRMATION_UNCONFIRMED,
)
from repro.rdf import Graph, NOA, OWL, RDF, RDFS


class TestOntology:
    def test_core_classes_declared(self):
        g = Graph()
        g.add_all(noa_ontology_triples())
        for cls in ("RawData", "Shapefile", "Hotspot"):
            assert (NOA.term(cls), RDF.type, OWL.Class) in g

    def test_sweet_alignment(self):
        g = Graph()
        g.add_all(noa_ontology_triples())
        supers = list(g.objects(NOA.Hotspot, RDFS.subClassOf))
        assert supers, "Hotspot must align to a SWEET class"

    def test_annotation_properties_typed(self):
        g = Graph()
        g.add_all(noa_ontology_triples())
        assert (
            NOA.hasAcquisitionDateTime,
            RDF.type,
            OWL.DatatypeProperty,
        ) in g
        assert (NOA.isProducedBy, RDF.type, OWL.ObjectProperty) in g

    def test_confirmation_individuals(self):
        g = Graph()
        g.add_all(noa_ontology_triples())
        assert (
            CONFIRMATION_CONFIRMED,
            RDF.type,
            NOA.ConfirmationState,
        ) in g
        assert CONFIRMATION_CONFIRMED != CONFIRMATION_UNCONFIRMED

    def test_hotspot_domain_statements(self):
        g = Graph()
        g.add_all(noa_ontology_triples())
        assert (NOA.hasConfidence, RDFS.domain, NOA.Hotspot) in g
