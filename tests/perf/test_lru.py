"""The LRU cache underneath every perf-layer cache."""

from __future__ import annotations

import threading

import pytest

from repro.perf.lru import (
    LRUCache,
    all_cache_stats,
    register_cache,
)


def test_rejects_degenerate_sizes():
    with pytest.raises(ValueError):
        LRUCache(0)


def test_eviction_is_least_recently_used():
    cache = LRUCache(3)
    for k in "abc":
        cache.put(k, k.upper())
    assert cache.get("a") == "A"  # refresh: "b" is now coldest
    cache.put("d", "D")
    assert "b" not in cache
    assert all(k in cache for k in "acd")
    assert cache.keys() == ["c", "a", "d"]


def test_put_refreshes_recency_and_overwrites():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("a", 10)  # refresh + overwrite
    cache.put("c", 3)
    assert "b" not in cache
    assert cache.get("a") == 10


def test_stats_count_hits_misses_evictions():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)  # evicts "a"
    assert cache.get("b") == 2
    assert cache.get("a") is None
    stats = cache.stats()
    assert (stats.hits, stats.misses, stats.evictions) == (1, 1, 1)
    assert stats.size == 2 and stats.maxsize == 2
    assert stats.hit_ratio == 0.5
    assert stats.as_dict()["hit_ratio"] == 0.5


def test_peek_touches_neither_recency_nor_counters():
    cache = LRUCache(2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.peek("a") == 1
    assert cache.peek("zzz", "dflt") == "dflt"
    cache.put("c", 3)  # "a" must still be the eviction victim
    assert "a" not in cache
    stats = cache.stats()
    assert stats.hits == stats.misses == 0


def test_clear_keeps_lifetime_counters():
    cache = LRUCache(4)
    cache.put("a", 1)
    cache.get("a")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats().hits == 1


def test_concurrent_access_stays_bounded_and_consistent():
    cache = LRUCache(64)
    errors = []

    def hammer(worker: int) -> None:
        try:
            for i in range(2000):
                key = (worker * 7 + i) % 200
                cache.put(key, key)
                got = cache.get(key)
                assert got is None or got == key
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer, args=(w,)) for w in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len(cache) <= 64
    stats = cache.stats()
    assert stats.lookups == 4 * 2000


def test_registry_exposes_named_caches():
    cache = LRUCache(4, name="test-registry-probe")
    register_cache(cache)
    cache.put("x", 1)
    cache.get("x")
    stats = all_cache_stats()["test-registry-probe"]
    assert stats["hits"] == 1 and stats["size"] == 1
    with pytest.raises(ValueError):
        register_cache(LRUCache(4))  # unnamed


def _value_len(key, value):
    return len(value)


def test_a_byte_bound_evicts_the_coldest_entries_until_the_total_fits():
    cache = LRUCache(100, maxbytes=10, sizeof=_value_len)
    cache.put("a", b"xxxx")
    cache.put("b", b"yyyy")
    assert cache.nbytes == 8
    cache.get("a")  # "b" is now coldest
    cache.put("c", b"zzz")
    assert cache.keys() == ["a", "c"] and cache.nbytes == 7
    cache.put("a", b"x")  # a replacement is reweighed
    assert cache.nbytes == 4
    assert cache.stats().evictions == 1
    cache.clear()
    assert cache.nbytes == 0


def test_an_entry_heavier_than_the_byte_bound_is_never_held():
    cache = LRUCache(100, maxbytes=10, sizeof=_value_len)
    cache.put("a", b"xxxx")
    cache.put("big", b"y" * 11)
    assert "big" not in cache and cache.keys() == ["a"]
    cache.put("a", b"z" * 11)  # nor does it keep the old value
    assert "a" not in cache and cache.nbytes == 0


def test_sizeof_weighs_key_and_value():
    cache = LRUCache(
        100, maxbytes=12, sizeof=lambda key, value: len(key) + len(value)
    )
    cache.put("abcd", b"1234")
    cache.put("ef", b"56")
    assert cache.nbytes == 12
    cache.put("g", b"")
    assert cache.keys() == ["ef", "g"] and cache.nbytes == 5
    with pytest.raises(ValueError):
        LRUCache(4, maxbytes=0, sizeof=_value_len)
    with pytest.raises(ValueError):
        LRUCache(4, maxbytes=10)
