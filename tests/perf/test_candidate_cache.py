"""Regression: the R-tree candidate cache must evict LRU, not clear.

The seed engine dropped the *entire* candidate cache once it exceeded
4096 entries, so sustained load (one probe geometry per evaluated
spatial predicate) repeatedly threw away the hot working set.  The
cache is now a bounded LRU: the hot probes survive, only the coldest
entry is shed per insert.  Entries are valid for the index they were
searched in, so a mutation is visible to the next probe.
"""

from __future__ import annotations

from repro.geometry import Polygon
from repro.rdf import NOA


def _probe(i: int) -> Polygon:
    x = 20.0 + (i % 50) * 0.01
    y = 36.0 + (i // 50) * 0.01
    return Polygon(
        [(x, y), (x + 0.005, y), (x + 0.005, y + 0.005), (x, y + 0.005)]
    )


def test_sustained_load_keeps_hot_entries(strabon_with_aux):
    engine = strabon_with_aux
    cache = engine._candidate_cache
    cache.resize(16)
    assert engine._ensure_rtree() is not None

    hot = _probe(0)
    assert engine.spatial_candidates(hot) is not None
    for i in range(1, 200):
        engine.spatial_candidates(_probe(i))
        engine.spatial_candidates(hot)  # keep it hot
    stats = cache.stats()
    # Bounded: never more entries than maxsize, and eviction happened
    # one-at-a-time instead of clearing the world.
    assert stats.size <= 16
    assert stats.evictions >= 199 - 15
    # The hot probe stayed cached through 199 evicting inserts.
    assert id(hot) in cache
    before = cache.stats().hits
    engine.spatial_candidates(hot)
    assert cache.stats().hits == before + 1


def test_cached_candidates_match_fresh_search(strabon_with_aux):
    engine = strabon_with_aux
    probe = _probe(7)
    first = engine.spatial_candidates(probe)
    again = engine.spatial_candidates(probe)
    assert again == first
    tree = engine._ensure_rtree()
    assert set(tree.search(probe.envelope)) == first


PREFIXES = (
    "PREFIX noa: <http://teleios.di.uoa.gr/ontologies/noaOntology.owl#> "
    "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#> "
)
INSIDE = '"POINT (20.032 36.002)"^^strdf:geometry'


def _matches(engine, probe):
    rows = engine.select(
        PREFIXES
        + "SELECT ?s WHERE { ?s strdf:hasGeometry ?g . "
        + f'FILTER(strdf:anyInteract(?g, "{probe.wkt}"^^strdf:WKT)) }}'
    )
    return {row["s"] for row in rows}


def test_a_mutation_is_visible_to_the_next_probe(strabon_with_aux):
    engine = strabon_with_aux
    probe = _probe(3)
    before = engine.spatial_candidates(probe)
    assert NOA.term("probe") not in _matches(engine, probe)
    # A geometry inserted inside a memoised probe's region is a
    # candidate of the very next probe: the memo never answers from
    # the index as it was before the mutation.
    engine.update(
        PREFIXES + f"INSERT DATA {{ noa:probe strdf:hasGeometry {INSIDE} }}"
    )
    after = engine.spatial_candidates(probe)
    assert [lit.lexical for lit in after - before] == [
        "POINT (20.032 36.002)"
    ]
    assert NOA.term("probe") in _matches(engine, probe)
    # A removed one yields no match.
    engine.update(
        PREFIXES + f"DELETE DATA {{ noa:probe strdf:hasGeometry {INSIDE} }}"
    )
    assert NOA.term("probe") not in _matches(engine, probe)
