"""``repro.perf`` — the hot-path performance layer.

PR 1's span data showed where the per-acquisition time goes: semantic
refinement dominates the SciQL chain roughly 12×, every stSPARQL request
is re-parsed from text, and every spatial predicate re-derives its
geometry arguments.  This package holds the shared machinery the
hot-path rewrites are built on:

* :mod:`repro.perf.lru` — a thread-safe LRU cache with hit/miss
  statistics, used by the engine's query-plan cache and candidate-set
  memo and by the geometry caches below,
* :mod:`repro.perf.geometry_cache` — process-wide memos for parsed WKT
  text, spatial-predicate results, binary geometry operations and the
  ``strdf:union`` group aggregate,
* :mod:`repro.perf.parallel` — the bounded thread-pool helper behind
  parallel HRIT segment decoding (zlib releases the GIL).

Every size is a fixed module constant next to its single user: the
plan and candidate caches in :mod:`repro.stsparql.engine`, the four
geometry memos in :mod:`repro.perf.geometry_cache`, and the decode
worker count in :mod:`repro.seviri.hrit`.  :func:`cache_stats` reports
how the process-wide caches are doing.
"""

from __future__ import annotations

from repro.perf.lru import (
    CacheStats,
    LRUCache,
    all_cache_stats,
    register_cache,
)

__all__ = [
    "LRUCache",
    "CacheStats",
    "register_cache",
    "all_cache_stats",
    "cache_stats",
]


def cache_stats() -> dict:
    """Hit/miss statistics of every registered process-wide cache."""
    # Touch the geometry caches so they exist (and are registered) even
    # if nothing was evaluated yet.
    from repro.perf import geometry_cache  # noqa: F401

    return all_cache_stats()
