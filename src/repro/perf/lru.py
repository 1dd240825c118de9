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

A cache whose entries differ widely in size (encoded query answers) is
bounded by bytes as well: with ``maxbytes`` every entry is weighed once
on insert by ``sizeof(key, value)``, and the coldest entries go until
the total fits.  A single entry heavier than the whole budget is never
held.
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

    ``maxbytes`` adds a byte bound beside the entry bound; ``sizeof``
    (given with it) weighs an entry.
    """

    def __init__(
        self,
        maxsize: int,
        name: str = "",
        maxbytes: Optional[int] = None,
        sizeof: Optional[Callable[[Hashable, Any], int]] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("LRU cache needs maxsize >= 1")
        if (maxbytes is None) != (sizeof is None):
            raise ValueError("maxbytes and sizeof go together")
        if maxbytes is not None and maxbytes < 1:
            raise ValueError("LRU cache needs maxbytes >= 1")
        self.name = name
        self._maxsize = maxsize
        self._maxbytes = maxbytes
        self._sizeof = sizeof
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        #: Each entry's weight, kept only under a byte bound.
        self._sizes: Dict[Hashable, int] = {}
        self._bytes = 0
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
        maxbytes = self._maxbytes
        size = 0 if maxbytes is None else self._sizeof(key, value)
        with self._lock:
            if maxbytes is not None:
                self._bytes -= self._sizes.pop(key, 0)
                if size > maxbytes:
                    self._data.pop(key, None)
                    return
                self._sizes[key] = size
                self._bytes += size
            if key in self._data:
                self._data.move_to_end(key)
            self._data[key] = value
            while len(self._data) > self._maxsize or (
                maxbytes is not None and self._bytes > maxbytes
            ):
                old, _ = self._data.popitem(last=False)
                if maxbytes is not None:
                    self._bytes -= self._sizes.pop(old)
                self._evictions += 1

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

    @property
    def nbytes(self) -> int:
        """Total weight of the held entries (0 without a byte bound)."""
        with self._lock:
            return self._bytes

    def clear(self) -> None:
        """Drop entries (counters survive — they describe the lifetime)."""
        with self._lock:
            self._data.clear()
            self._sizes.clear()
            self._bytes = 0

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
