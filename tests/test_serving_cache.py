"""Tests for the serving prediction cache and its key canonicalization."""

import pytest

from repro.games.resolution import Resolution
from repro.placement.cache import PredictionCache, colocation_key

R1080 = Resolution(1920, 1080)
R720 = Resolution(1280, 720)


class TestColocationKey:
    def test_order_insensitive(self):
        forward = colocation_key((("a", R1080), ("b", R720)))
        backward = colocation_key((("b", R720), ("a", R1080)))
        assert forward == backward

    def test_duplicate_entries_are_a_multiset(self):
        single = colocation_key((("a", R1080),))
        double = colocation_key((("a", R1080), ("a", R1080)))
        assert single != double
        assert colocation_key((("a", R1080), ("a", R1080))) == double

    def test_resolution_distinguishes(self):
        assert colocation_key((("a", R1080),)) != colocation_key((("a", R720),))

    def test_qos_in_key(self):
        entries = (("a", R1080), ("b", R720))
        assert colocation_key(entries, 60.0) != colocation_key(entries, 50.0)
        assert colocation_key(entries, 60.0) != colocation_key(entries)
        assert colocation_key(entries, 60) == colocation_key(entries, 60.0)

    def test_key_is_hashable(self):
        {colocation_key((("a", R1080),), 60.0): True}


class TestPredictionCache:
    def test_miss_then_hit(self):
        cache = PredictionCache(4)
        key = colocation_key((("a", R1080),), 60.0)
        assert cache.lookup(key) is None
        cache.put(key, False)
        assert cache.lookup(key) is False
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = PredictionCache(2)
        k1, k2, k3 = (("k", 1),), (("k", 2),), (("k", 3),)
        cache.put(k1, 1)
        cache.put(k2, 2)
        cache.lookup(k1)  # refresh k1: k2 becomes LRU
        cache.put(k3, 3)
        assert k1 in cache
        assert k2 not in cache
        assert k3 in cache
        assert cache.evictions == 1

    def test_capacity_bound(self):
        cache = PredictionCache(8)
        for i in range(50):
            cache.put(("k", i), i)
        assert len(cache) == 8
        assert cache.evictions == 42

    def test_zero_capacity_disables(self):
        cache = PredictionCache(0)
        cache.put(("k",), 1)
        assert len(cache) == 0
        assert cache.lookup(("k",)) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            PredictionCache(-1)

    def test_clear_keeps_stats(self):
        cache = PredictionCache(4)
        cache.put(("k",), 1)
        cache.lookup(("k",))
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 1

    def test_stats_jsonable(self):
        import json

        json.dumps(PredictionCache(4).stats())


class TestInvalidateCanonicalKeys:
    """Satellite of the cache-key contract: invalidation folds permutations.

    Keys are canonical (sorted entries), so invalidating *any* permutation
    of a co-runner set must evict the one entry every permutation shares.
    """

    ENTRIES = (("a", R1080), ("b", R720), ("c", R1080))

    def permutations(self):
        import itertools

        return [tuple(p) for p in itertools.permutations(self.ENTRIES)]

    def test_invalidating_any_permutation_evicts_all(self):
        for perm in self.permutations():
            cache = PredictionCache(8)
            cache.put(colocation_key(self.ENTRIES, 60.0), True)
            assert cache.invalidate(colocation_key(perm, 60.0))
            for other in self.permutations():
                assert cache.lookup(colocation_key(other, 60.0)) is None

    def test_all_permutations_share_one_entry(self):
        cache = PredictionCache(8)
        for perm in self.permutations():
            cache.put(colocation_key(perm, 60.0), True)
        assert len(cache) == 1

    def test_invalidate_counts_hits_and_misses(self):
        cache = PredictionCache(8)
        key = colocation_key(self.ENTRIES, 60.0)
        cache.put(key, False)
        assert cache.lookup(colocation_key(reversed(self.ENTRIES), 60.0)) is False
        assert cache.invalidate(key)
        assert cache.lookup(key) is None
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.invalidations == 1
        assert cache.evictions == 0
        assert cache.stats()["invalidations"] == 1

    def test_invalidate_missing_key_is_uncounted(self):
        cache = PredictionCache(8)
        assert not cache.invalidate(colocation_key(self.ENTRIES, 60.0))
        assert cache.invalidations == 0

    def test_qos_floor_scopes_invalidation(self):
        cache = PredictionCache(8)
        cache.put(colocation_key(self.ENTRIES, 60.0), True)
        cache.put(colocation_key(self.ENTRIES, 50.0), True)
        assert cache.invalidate(colocation_key(self.ENTRIES, 60.0))
        assert cache.lookup(colocation_key(self.ENTRIES, 50.0)) is True


class TestGeneration:
    """``generation`` moves exactly when an entry is forgotten or overwritten."""

    def _cache(self):
        cache = PredictionCache(2)
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        return cache

    def test_eviction_moves_it(self):
        cache = self._cache()
        before = cache.generation
        cache.put(("c",), 3)
        assert cache.evictions == 1 and cache.generation > before

    def test_invalidate_moves_it(self):
        cache = self._cache()
        before = cache.generation
        assert cache.invalidate(("a",))
        assert cache.generation > before
        # Nothing was forgotten: nothing to announce.
        after = cache.generation
        assert not cache.invalidate(("a",))
        assert cache.generation == after

    def test_clear_moves_it(self):
        cache = self._cache()
        before = cache.generation
        cache.clear()
        assert cache.generation > before

    def test_overwriting_put_moves_it(self):
        cache = self._cache()
        before = cache.generation
        cache.put(("a",), 1)
        assert len(cache) == 2 and cache.evictions == 0
        assert cache.generation > before

    def test_hits_misses_and_fresh_puts_leave_it(self):
        cache = PredictionCache(4)
        before = cache.generation
        cache.put(("a",), 1)
        cache.put(("b",), 2)
        assert cache.lookup(("a",)) == 1 and cache.lookup(("z",)) is None
        assert cache.lookup_many([("b",), ("y",), ("a",)]) == [2, None, 1]
        assert cache.lookup(("c",)) is None
        cache.put(("c",), 3)
        assert cache.hits == 3 and cache.misses == 3 and cache.evictions == 0
        assert cache.generation == before

    def test_zero_capacity_never_moves_it(self):
        cache = PredictionCache(0)
        before = cache.generation
        cache.put(("a",), 1)
        cache.put(("a",), 1)
        assert cache.lookup(("a",)) is None
        assert cache.generation == before

    def test_no_two_caches_share_a_generation(self):
        # A stamp read from one cache never validates against another.
        first, second = PredictionCache(4), PredictionCache(4)
        assert first.generation != second.generation
        first.clear()
        assert first.generation != second.generation
