"""Tests for FastLRUCache and SetAssociativeCache.

:class:`FastLRUCache` is the reference L1/L2 cache in
``tests/stage1_oracle.py``, which ``tests/test_hierarchy.py`` holds
equal to the per-set dicts inlined in ``UpperLevels.run``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import SetAssociativeCache
from tests.stage1_oracle import FastLRUCache


class TestFastLRUCache:
    def test_geometry(self):
        cache = FastLRUCache(32 * 1024, ways=8)
        assert cache.num_sets == 64

    def test_rejects_ragged_capacity(self):
        with pytest.raises(ValueError):
            FastLRUCache(1000, ways=3)

    def test_rejects_non_power_of_two_sets(self):
        with pytest.raises(ValueError):
            FastLRUCache(3 * 64 * 4, ways=4)

    def test_miss_then_hit(self):
        cache = FastLRUCache(4 * 64 * 2, ways=2)
        assert cache.access(5) is False
        assert cache.access(5) is True
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction_order(self):
        # 1 set x 2 ways: blocks map to set 0 when num_sets == 1.
        cache = FastLRUCache(2 * 64, ways=2)
        cache.access(0)
        cache.access(4)
        cache.access(0)      # 0 becomes MRU; LRU is 4
        cache.access(8)      # evicts 4
        assert cache.access(0) is True
        assert cache.access(4) is False

    def test_probe_does_not_disturb(self):
        cache = FastLRUCache(2 * 64, ways=2)
        cache.access(0)
        cache.access(4)      # LRU = 0
        assert cache.probe(0) is True
        cache.access(8)      # must evict 0 (probe must not have promoted it)
        assert cache.probe(0) is False
        assert cache.hits == 0

    def test_fill_installs_without_stats(self):
        cache = FastLRUCache(2 * 64, ways=2)
        cache.fill(12)
        assert cache.probe(12)
        assert cache.hits == 0 and cache.misses == 0

    def test_fill_existing_is_noop(self):
        cache = FastLRUCache(2 * 64, ways=2)
        cache.access(0)
        cache.access(4)
        cache.fill(4)        # already resident: recency must not change
        cache.access(8)      # evicts 0 (still LRU)
        assert not cache.probe(0)

    def test_different_sets_do_not_interfere(self):
        cache = FastLRUCache(4 * 64 * 1, ways=1)  # 4 sets, direct mapped
        for block in range(4):
            cache.access(block)
        assert all(cache.probe(block) for block in range(4))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_ways(self, blocks):
        cache = FastLRUCache(4 * 64 * 4, ways=4)
        for block in blocks:
            cache.access(block)
        for cache_set in cache._sets:
            assert len(cache_set) <= 4

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=200))
    def test_matches_reference_lru(self, blocks):
        """Dictionary-trick LRU must agree with an explicit-list LRU."""
        ways, sets = 4, 4
        cache = FastLRUCache(sets * 64 * ways, ways=ways)
        reference = [[] for _ in range(sets)]
        for block in blocks:
            ref_set = reference[block % sets]
            expected_hit = block in ref_set
            if expected_hit:
                ref_set.remove(block)
            elif len(ref_set) >= ways:
                ref_set.pop(0)
            ref_set.append(block)
            assert cache.access(block) is expected_hit


class TestSetAssociativeCache:
    def test_lookup_miss_on_empty(self):
        cache = SetAssociativeCache(4, ways=2)
        assert cache.lookup(0, 123) == -1

    def test_install_and_lookup(self):
        cache = SetAssociativeCache(4, ways=2)
        cache.install(0, 0, 8)
        assert cache.lookup(0, 8) == 0

    def test_install_returns_evicted_tag(self):
        cache = SetAssociativeCache(4, ways=2)
        assert cache.install(0, 1, 16) is None
        assert cache.install(0, 1, 32) == 16

    def test_invalid_way_scans_in_order(self):
        cache = SetAssociativeCache(4, ways=4)
        assert cache.invalid_way(2) == 0
        cache.install(2, 0, 2)
        assert cache.invalid_way(2) == 1

    def test_invalid_way_full_set(self):
        cache = SetAssociativeCache(1, ways=2)
        cache.install(0, 0, 10)
        cache.install(0, 1, 20)
        assert cache.invalid_way(0) == -1

    def test_resident_blocks(self):
        cache = SetAssociativeCache(1, ways=4)
        cache.install(0, 0, 8)
        cache.install(0, 2, 12)
        assert cache.resident_blocks(0) == [(0, 8), (2, 12)]

    def test_rejects_set_count_the_mask_cannot_address(self):
        with pytest.raises(ValueError, match="power of two"):
            SetAssociativeCache(12, ways=2)
