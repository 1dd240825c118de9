"""Process-wide geometry memos.

Four caches, all bounded LRU, all registered for introspection:

* **wkt_parse** — WKT text → parsed :class:`~repro.geometry.Geometry`.
  Literal terms consult it lazily, so every literal carrying the same
  coastline/CLC polygon shares one parsed geometry object.  That
  sharing is what makes the identity-keyed caches below effective: the
  triple store interns terms, so recurring geometries keep stable ids.
* **spatial_predicate** — boolean predicate results keyed by
  ``(name, id(a), id(b))``.  The refinement pipeline probes the same
  (hotspot, coastline/area) pairs across several operations.
* **spatial_binary** — ``strdf:intersection`` / ``union`` /
  ``difference`` results, keyed the same way.
* **spatial_union_agg** — the ``strdf:union(?g)`` group aggregate,
  keyed by the identity tuple of the whole group.  RefineInCoast
  evaluates the same coastline union in its HAVING clause and its
  projection — and again next acquisition.

Identity keys are only valid while the keyed objects are alive, so
every cached value keeps strong references to its key objects and a
hit is honoured only after an ``is`` check against them.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence, Tuple

from repro.perf.lru import LRUCache, register_cache

__all__ = [
    "geometry_from_wkt",
    "predicate_result",
    "binary_op_result",
    "union_aggregate",
]

#: Parsed WKT geometries shared between equal literals.
WKT_CACHE_SIZE = 8192
#: Spatial-predicate results keyed by geometry-pair identity.
PREDICATE_CACHE_SIZE = 65536
#: strdf:intersection / union / difference results, pair-identity keyed.
BINARY_OP_CACHE_SIZE = 16384
#: strdf:union group-aggregate results, group-identity keyed.
UNION_AGG_CACHE_SIZE = 1024

WKT_CACHE = register_cache(LRUCache(WKT_CACHE_SIZE, name="wkt_parse"))
PREDICATE_CACHE = register_cache(
    LRUCache(PREDICATE_CACHE_SIZE, name="spatial_predicate")
)
BINARY_OP_CACHE = register_cache(
    LRUCache(BINARY_OP_CACHE_SIZE, name="spatial_binary")
)
UNION_AGG_CACHE = register_cache(
    LRUCache(UNION_AGG_CACHE_SIZE, name="spatial_union_agg")
)


def geometry_from_wkt(text: str):
    """Parse WKT through the shared cache (raises on invalid text)."""
    geom = WKT_CACHE.get(text)
    if geom is not None:
        return geom
    from repro.geometry import loads_wkt

    geom = loads_wkt(text)
    WKT_CACHE.put(text, geom)
    return geom


def predicate_result(
    name: str, a: Any, b: Any, compute: Callable[[], Any]
) -> Any:
    """Memoise a spatial predicate on the identity of its arguments."""
    return _pair_memo(PREDICATE_CACHE, name, a, b, compute)


def binary_op_result(
    name: str, a: Any, b: Any, compute: Callable[[], Any]
) -> Any:
    """Memoise a binary geometry constructor on argument identity."""
    return _pair_memo(BINARY_OP_CACHE, name, a, b, compute)


def _pair_memo(
    cache: LRUCache, name: str, a: Any, b: Any, compute: Callable[[], Any]
) -> Any:
    key = (name, id(a), id(b))
    hit = cache.get(key)
    if hit is not None and hit[0] is a and hit[1] is b:
        return hit[2]
    result = compute()
    cache.put(key, (a, b, result))
    return result


def union_aggregate(
    geoms: Sequence[Any], compute: Callable[[], Any]
) -> Any:
    """Memoise a group union on the identity tuple of the group.

    Returning the *same* result object for the same input group is the
    point: downstream predicate evaluations key on its identity too.
    """
    key: Tuple[int, ...] = tuple(id(g) for g in geoms)
    hit = UNION_AGG_CACHE.get(key)
    if hit is not None and len(hit[0]) == len(geoms) and all(
        cached is g for cached, g in zip(hit[0], geoms)
    ):
        return hit[1]
    result = compute()
    UNION_AGG_CACHE.put(key, (tuple(geoms), result))
    return result

