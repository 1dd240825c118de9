"""RDFS subclass inference (rdfs9 + rdfs11)."""

import pytest

from repro.rdf import CLC, Graph, RDF, RDFS, RDFSInference


@pytest.fixture
def taxonomy():
    g = Graph()
    g.add(CLC.ConiferousForest, RDFS.subClassOf, CLC.Forests)
    g.add(CLC.BroadLeavedForest, RDFS.subClassOf, CLC.Forests)
    g.add(CLC.Forests, RDFS.subClassOf, CLC.ForestsAndSemiNaturalAreas)
    g.add(CLC.Vineyards, RDFS.subClassOf, CLC.PermanentCrops)
    g.add(CLC.area1, RDF.type, CLC.ConiferousForest)
    g.add(CLC.area2, RDF.type, CLC.Vineyards)
    return g


class TestInference:
    def test_superclasses_transitive(self, taxonomy):
        inf = RDFSInference(taxonomy)
        supers = inf.superclasses(CLC.ConiferousForest)
        assert supers == {CLC.Forests, CLC.ForestsAndSemiNaturalAreas}

    def test_subclasses(self, taxonomy):
        inf = RDFSInference(taxonomy)
        subs = inf.subclasses(CLC.ForestsAndSemiNaturalAreas)
        assert CLC.ConiferousForest in subs
        assert CLC.Forests in subs
        assert CLC.Vineyards not in subs

    def test_types_of_instance(self, taxonomy):
        inf = RDFSInference(taxonomy)
        types = inf.types_of(CLC.area1)
        assert CLC.ConiferousForest in types
        assert CLC.ForestsAndSemiNaturalAreas in types
        assert CLC.PermanentCrops not in types

    def test_instances_of_superclass(self, taxonomy):
        inf = RDFSInference(taxonomy)
        assert set(inf.instances_of(CLC.Forests)) == {CLC.area1}
        assert set(inf.instances_of(CLC.ConiferousForest)) == {CLC.area1}

    def test_refresh_after_mutation(self, taxonomy):
        inf = RDFSInference(taxonomy)
        assert set(inf.instances_of(CLC.Forests)) == {CLC.area1}
        taxonomy.add(CLC.area3, RDF.type, CLC.BroadLeavedForest)
        assert set(inf.instances_of(CLC.Forests)) == {CLC.area1, CLC.area3}

    def test_cycle_does_not_hang(self):
        g = Graph()
        g.add(CLC.A, RDFS.subClassOf, CLC.B)
        g.add(CLC.B, RDFS.subClassOf, CLC.A)
        inf = RDFSInference(g)
        assert CLC.B in inf.superclasses(CLC.A)

    def test_type_triples_enumeration(self, taxonomy):
        inf = RDFSInference(taxonomy)
        got = set(inf.type_triples(CLC.area1))
        assert (CLC.area1, RDF.type, CLC.Forests) in got


class TestHasType:
    def test_subclass_chain(self, taxonomy):
        inf = RDFSInference(taxonomy)
        for cls in (
            CLC.ConiferousForest,
            CLC.Forests,
            CLC.ForestsAndSemiNaturalAreas,
        ):
            assert inf.has_type(CLC.area1, cls)
        assert not inf.has_type(CLC.area1, CLC.BroadLeavedForest)
        assert not inf.has_type(CLC.area1, CLC.PermanentCrops)
        assert not inf.has_type(CLC.nowhere, CLC.Forests)

    def test_agrees_with_instances_of(self, taxonomy):
        inf = RDFSInference(taxonomy)
        nodes = {CLC.area1, CLC.area2, CLC.Forests}
        for cls in (CLC.Forests, CLC.PermanentCrops, CLC.Vineyards):
            members = set(inf.instances_of(cls))
            assert {n for n in nodes if inf.has_type(n, cls)} == members

    def test_cycle_members_share_types(self):
        g = Graph()
        g.add(CLC.A, RDFS.subClassOf, CLC.B)
        g.add(CLC.B, RDFS.subClassOf, CLC.C)
        g.add(CLC.C, RDFS.subClassOf, CLC.A)
        g.add(CLC.x, RDF.type, CLC.B)
        inf = RDFSInference(g)
        for cls in (CLC.A, CLC.B, CLC.C):
            assert inf.has_type(CLC.x, cls)
            assert set(inf.instances_of(cls)) == {CLC.x}
        assert inf.superclasses(CLC.B) == {CLC.A, CLC.C}

    def test_invalidated_by_add_and_remove(self, taxonomy):
        inf = RDFSInference(taxonomy)
        assert not inf.has_type(CLC.area2, CLC.Forests)
        taxonomy.add(CLC.PermanentCrops, RDFS.subClassOf, CLC.Forests)
        assert inf.has_type(CLC.area2, CLC.Forests)
        taxonomy.remove(CLC.PermanentCrops, RDFS.subClassOf, CLC.Forests)
        assert not inf.has_type(CLC.area2, CLC.Forests)
        taxonomy.remove(CLC.area1, RDF.type, CLC.ConiferousForest)
        assert not inf.has_type(CLC.area1, CLC.Forests)
        taxonomy.add(CLC.area1, RDF.type, CLC.BroadLeavedForest)
        assert inf.has_type(CLC.area1, CLC.Forests)

    def test_frozen_snapshot_view(self, taxonomy):
        snapshot = taxonomy.snapshot()
        inf = RDFSInference(snapshot)
        assert inf.has_type(CLC.area1, CLC.Forests)
        taxonomy.remove(CLC.area1, RDF.type, CLC.ConiferousForest)
        taxonomy.add(CLC.area2, RDF.type, CLC.BroadLeavedForest)
        assert inf.has_type(CLC.area1, CLC.Forests)
        assert not inf.has_type(CLC.area2, CLC.Forests)
        assert not RDFSInference(taxonomy).has_type(CLC.area1, CLC.Forests)
