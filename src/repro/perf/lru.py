"""A thread-safe LRU cache with hit/miss/eviction accounting.

The performance layer keeps many small caches (parsed query plans,
parsed WKT geometries, spatial-predicate results, R-tree candidate
sets).  They all share the same requirements: bounded size, cheap
thread-safe access, and statistics the benchmarks can report — so they
all use this one implementation.

Eviction is strictly least-recently-used: every :meth:`get` hit and
every :meth:`put` refreshes recency.  Unlike the clear-the-world
behaviour it replaces, a full cache under sustained load keeps its hot
working set and only sheds the coldest entry per insert.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

__all__ = ["LRUCache", "CacheStats", "register_cache", "all_cache_stats"]


class CacheStats:
    """Immutable snapshot of one cache's counters."""

    __slots__ = ("hits", "misses", "evictions", "size", "maxsize")

    def __init__(
        self, hits: int, misses: int, evictions: int, size: int,
        maxsize: int,
    ) -> None:
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.size = size
        self.maxsize = maxsize

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups; 0.0 before any lookup."""
        total = self.hits + self.misses
        return (self.hits / total) if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "maxsize": self.maxsize,
            "hit_ratio": self.hit_ratio,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, size={self.size}/{self.maxsize})"
        )


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    All operations take an internal lock, so one instance may be shared
    between the HTTP server's read threads and the ingest thread.
    """

    def __init__(self, maxsize: int, name: str = "") -> None:
        if maxsize < 1:
            raise ValueError("LRU cache needs maxsize >= 1")
        self.name = name
        self._maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- core mapping operations ------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Like :meth:`get` but touches neither recency nor counters."""
        with self._lock:
            return self._data.get(key, default)

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)
                self._evictions += 1

    def get_or_compute(
        self, key: Hashable, compute: Callable[[], Any]
    ) -> Any:
        """Return the cached value, computing and inserting on a miss.

        ``compute`` runs outside the lock: concurrent missers may both
        compute, and the last insert wins — acceptable for the pure
        functions cached here, and it keeps slow computations (WKT
        parsing, query parsing) from serialising every other cache user.
        """
        sentinel = _SENTINEL
        value = self.get(key, sentinel)
        if value is not sentinel:
            return value
        value = compute()
        self.put(key, value)
        return value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    # -- maintenance -------------------------------------------------------

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def clear(self) -> None:
        """Drop entries (counters survive — they describe the lifetime)."""
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self._hits = self._misses = self._evictions = 0

    def keys(self) -> List[Hashable]:
        """Current keys, least-recently-used first."""
        with self._lock:
            return list(self._data.keys())

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                self._hits,
                self._misses,
                self._evictions,
                len(self._data),
                self._maxsize,
            )


class _Sentinel:
    __slots__ = ()


_SENTINEL = _Sentinel()


#: Process-wide caches that opted into introspection, by name.  The
#: registry holds strong references — only long-lived module-level
#: caches should register.
_REGISTRY: Dict[str, LRUCache] = {}
_REGISTRY_LOCK = threading.Lock()


def register_cache(cache: LRUCache) -> LRUCache:
    """Expose a named cache through :func:`all_cache_stats`."""
    if not cache.name:
        raise ValueError("only named caches can be registered")
    with _REGISTRY_LOCK:
        _REGISTRY[cache.name] = cache
    return cache


def registered_caches() -> List[Tuple[str, LRUCache]]:
    with _REGISTRY_LOCK:
        return sorted(_REGISTRY.items())


def all_cache_stats() -> Dict[str, Dict[str, float]]:
    """Statistics of every registered cache, keyed by cache name."""
    return {
        name: cache.stats().as_dict()
        for name, cache in registered_caches()
    }
