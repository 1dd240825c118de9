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

Tuning goes through one configuration object:

>>> from repro import perf
>>> perf.configure(decode_workers=8, plan_cache_size=512)
... # doctest: +SKIP

Sizes of the process-wide geometry caches are applied immediately;
per-instance settings (plan cache size, candidate cache size, worker
counts) are read when the owning object is constructed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.perf.lru import (
    CacheStats,
    LRUCache,
    all_cache_stats,
    register_cache,
)

__all__ = [
    "PerfConfig",
    "get_config",
    "configure",
    "LRUCache",
    "CacheStats",
    "register_cache",
    "all_cache_stats",
    "cache_stats",
]


@dataclass
class PerfConfig:
    """Knobs of the performance layer (see README "Performance tuning")."""

    #: Parsed stSPARQL request plans kept per Strabon endpoint.
    plan_cache_size: int = 256
    #: Parsed WKT geometries shared between equal literals, process-wide.
    wkt_cache_size: int = 8192
    #: Spatial-predicate results keyed by geometry-pair identity.
    predicate_cache_size: int = 65536
    #: strdf:intersection / union / difference results, pair-identity keyed.
    binary_op_cache_size: int = 16384
    #: strdf:union group-aggregate results, group-identity keyed.
    union_memo_size: int = 1024
    #: R-tree candidate sets kept per Strabon endpoint.
    candidate_cache_size: int = 4096
    #: Threads decoding HRIT segments / parsing headers in parallel.
    decode_workers: int = 4

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if (
                isinstance(value, bool)
                or not isinstance(value, int)
                or value < 1
            ):
                raise ValueError(
                    f"perf setting {f.name} must be a positive integer, "
                    f"got {value!r}"
                )


_config = PerfConfig()


def get_config() -> PerfConfig:
    """The live configuration (mutations affect future constructions)."""
    return _config


def configure(**settings: int) -> PerfConfig:
    """Update performance settings; unknown names raise ``TypeError``.

    Process-wide geometry-cache sizes take effect immediately;
    per-instance sizes apply to objects constructed afterwards.
    """
    valid = {f.name for f in fields(PerfConfig)}
    for name in settings:
        if name not in valid:
            raise TypeError(f"unknown perf setting {name!r}")
    previous = {name: getattr(_config, name) for name in settings}
    for name, value in settings.items():
        setattr(_config, name, value)
    try:
        _config.validate()
    except ValueError:
        for name, value in previous.items():
            setattr(_config, name, value)
        raise
    _apply_global_sizes()
    return _config


def _apply_global_sizes() -> None:
    from repro.perf import geometry_cache

    geometry_cache.resize_from_config(_config)


def cache_stats() -> dict:
    """Hit/miss statistics of every registered process-wide cache."""
    # Touch the geometry caches so they exist (and are registered) even
    # if nothing was evaluated yet.
    from repro.perf import geometry_cache  # noqa: F401

    return all_cache_stats()
