"""Unit tests for :class:`repro.caching.LRUCache`, the bounded-LRU
primitive under the parse, view, memo and result caches, and for the
language separation of the parse caches built on it."""

import pytest

from repro.caching import LRUCache


class TestBudgets:
    def test_entry_budget_evicts_least_recently_used(self):
        cache = LRUCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        assert cache.put("c", 3) is True
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_weight_budget_evicts(self):
        cache = LRUCache(max_entries=100, max_weight=10)
        cache.put("a", "A", weight=4)
        cache.put("b", "B", weight=4)
        cache.put("c", "C", weight=4)  # 12 > 10: evict a
        assert cache.get("a") is None
        assert [key for key, _ in cache.items()] == ["b", "c"]
        assert cache.weight == 8

    def test_replacing_a_key_reweighs_it(self):
        cache = LRUCache(max_entries=10, max_weight=10)
        cache.put("a", "A", weight=8)
        cache.put("a", "a", weight=2)
        assert len(cache) == 1
        assert cache.weight == 2
        assert cache.get("a") == "a"

    def test_item_heavier_than_the_budget_is_refused(self):
        cache = LRUCache(max_entries=10, max_weight=10)
        cache.put("small", 1, weight=5)
        assert cache.put("big", 2, weight=11) is False
        assert cache.get("big") is None
        assert cache.get("small") == 1  # nothing was evicted for it
        assert cache.evictions == 0

    def test_zero_entry_budget_stores_nothing(self):
        cache = LRUCache(max_entries=0)
        assert cache.put("a", 1) is False
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.evictions == 0


class TestCounters:
    def test_hit_miss_and_eviction_counters(self):
        cache = LRUCache(max_entries=1)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        cache.put("b", 2)  # evicts a
        assert (cache.hits, cache.misses, cache.evictions) == (2, 1, 1)


class TestGetOrBuild:
    def test_builds_once_then_hits(self):
        cache = LRUCache(max_entries=4)
        calls = []

        def build(key):
            calls.append(key)
            return key.upper()

        assert cache.get_or_build("x", build) == "X"
        assert cache.get_or_build("x", build) == "X"
        assert calls == ["x"]
        assert (cache.hits, cache.misses) == (1, 1)

    def test_a_build_that_raises_is_not_cached(self):
        cache = LRUCache(max_entries=4)
        calls = []

        def build(key):
            calls.append(key)
            raise ValueError(key)

        for _ in range(2):
            with pytest.raises(ValueError):
                cache.get_or_build("bad", build)
        assert calls == ["bad", "bad"]
        assert len(cache) == 0

    def test_keep_false_builds_without_storing(self):
        cache = LRUCache(max_entries=4)
        assert cache.get_or_build("x", str.upper, keep=False) == "X"
        assert len(cache) == 0
        assert cache.misses == 1


class TestItems:
    def test_items_run_least_recently_used_first(self):
        cache = LRUCache(max_entries=4)
        for key in "abc":
            cache.put(key, key.upper())
        cache.get("a")
        assert cache.items() == [("b", "B"), ("c", "C"), ("a", "A")]


class TestParseCacheSeparation:
    def test_same_source_parses_per_language(self):
        # Text valid in both grammars: each language's parse_cached
        # keeps its own cache instance, so neither replays the other's
        # tree.
        from repro.frontend.js import ast_nodes as js_nodes
        from repro.frontend.js.parser import parse_cached as parse_js
        from repro.pslang import ast_nodes as ps_nodes
        from repro.pslang.parser import parse_cached as parse_ps

        source = "'a' + 'b'"
        for _ in range(2):
            assert isinstance(parse_ps(source), ps_nodes.ScriptBlockAst)
            assert isinstance(parse_js(source), js_nodes.Program)
