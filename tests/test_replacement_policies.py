"""Tests for LRU, random, tree-PLRU, MDPP, SRRIP/BRRIP/DRRIP, and Belady."""

from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.access import AccessContext
from repro.cache.replacement.belady import (
    NEVER,
    BeladyPolicy,
    compute_next_uses,
    next_use_windows,
)
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.mdpp import MDPPPolicy
from repro.cache.replacement.plru import PLRUTree, TreePLRUPolicy
from repro.cache.replacement.random_ import RandomPolicy
from repro.cache.replacement.srrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy
from repro.sim.llc import LLCAccess, LLCSimulator


def ctx(block=0, pc=0x400, stream_index=0):
    return AccessContext(pc=pc, address=block << 6, block=block, offset=0,
                         stream_index=stream_index)


def make_stream(blocks):
    return [
        LLCAccess(pc=0x400 + 4 * (b % 16), block=b, offset=0, is_write=False,
                  is_prefetch=False, mem_index=i, instr_index=4 * i)
        for i, b in enumerate(blocks)
    ]


def run_policy(policy_cls, blocks, sets=4, ways=4, **kwargs):
    policy = policy_cls(sets, ways, **kwargs)
    sim = LLCSimulator(policy)
    return sim.run(make_stream(blocks))


class TestLRUPolicy:
    def test_stack_order_after_fills(self):
        policy = LRUPolicy(1, 4)
        for way, block in enumerate([10, 20, 30]):
            policy.on_fill(0, way, ctx(block))
        assert policy.stack(0) == (2, 1, 0)

    def test_hit_promotes_to_mru(self):
        policy = LRUPolicy(1, 4)
        for way in range(3):
            policy.on_fill(0, way, ctx())
        policy.on_hit(0, 0, ctx())
        assert policy.stack(0) == (0, 2, 1)
        assert policy.is_mru(0, 0)

    def test_victim_is_stack_bottom(self):
        policy = LRUPolicy(1, 4)
        for way in range(4):
            policy.on_fill(0, way, ctx())
        assert policy.choose_victim(0, ctx()) == 0

    def test_position(self):
        policy = LRUPolicy(1, 4)
        for way in range(2):
            policy.on_fill(0, way, ctx())
        assert policy.position(0, 1) == 0
        assert policy.position(0, 0) == 1
        assert policy.position(0, 3) == -1

    def test_victim_on_empty_raises(self):
        policy = LRUPolicy(1, 4)
        with pytest.raises(RuntimeError):
            policy.choose_victim(0, ctx())

    def test_end_to_end_lru_semantics(self):
        # Working set of 4 in a 4-way set: second pass must fully hit.
        blocks = [0, 4, 8, 12] * 2  # all map to set 0 with 4 sets
        result = run_policy(LRUPolicy, blocks)
        assert result.stats.hits == 4
        assert result.stats.misses == 4

    def test_thrashes_on_cyclic_overflow(self):
        # Cyclic working set of 5 in a 4-way set: LRU hits nothing.
        blocks = [0, 4, 8, 12, 16] * 4
        result = run_policy(LRUPolicy, blocks)
        assert result.stats.hits == 0


class TestPLRUTree:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            PLRUTree(6)

    def test_initial_victim_is_way_zero(self):
        assert PLRUTree(8).victim() == 0

    def test_promote_protects_way(self):
        tree = PLRUTree(8)
        tree.promote(0)
        assert tree.victim() != 0

    def test_place_at_last_position_makes_victim(self):
        tree = PLRUTree(16)
        for way in range(16):
            tree.promote(way)
        tree.place(5, 15)
        assert tree.victim() == 5

    def test_position_roundtrip(self):
        tree = PLRUTree(16)
        for position in range(16):
            tree.place(7, position)
            assert tree.position(7) == position

    def test_position_zero_is_mru(self):
        tree = PLRUTree(16)
        tree.promote(3)
        assert tree.position(3) == 0

    def test_place_rejects_out_of_range(self):
        tree = PLRUTree(8)
        with pytest.raises(ValueError):
            tree.place(0, 8)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=64))
    def test_victim_has_maximal_position(self, touches):
        """The victim is always the way at position ways-1."""
        tree = PLRUTree(16)
        for way in touches:
            tree.promote(way)
        victim = tree.victim()
        assert tree.position(victim) == 15

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=8, max_size=64))
    def test_plru_never_evicts_most_recent(self, touches):
        tree = PLRUTree(8)
        for way in touches:
            tree.promote(way)
        assert tree.victim() != touches[-1]


class TestTreePLRUPolicy:
    def test_full_loop_hits_like_lru(self):
        blocks = [0, 4, 8, 12] * 3
        result = run_policy(TreePLRUPolicy, blocks)
        assert result.stats.hits == 8

    def test_is_mru_after_fill(self):
        policy = TreePLRUPolicy(1, 8)
        policy.on_fill(0, 3, ctx())
        assert policy.is_mru(0, 3)


class TestMDPP:
    def test_insertion_position_honored(self):
        policy = MDPPPolicy(1, 16, insert_position=11, promote_position=1)
        policy.on_fill(0, 4, ctx())
        assert policy.position(0, 4) == 11

    def test_promotion_position_honored(self):
        policy = MDPPPolicy(1, 16, insert_position=11, promote_position=1)
        policy.on_fill(0, 4, ctx())
        policy.on_hit(0, 4, ctx())
        assert policy.position(0, 4) == 1

    def test_promotion_never_demotes(self):
        policy = MDPPPolicy(1, 16, insert_position=11, promote_position=5)
        policy.on_fill(0, 4, ctx())
        policy.place(0, 4, 0)
        policy.on_hit(0, 4, ctx())
        assert policy.position(0, 4) == 0

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            MDPPPolicy(1, 16, insert_position=16)
        with pytest.raises(ValueError):
            MDPPPolicy(1, 16, promote_position=-1)

    def test_place_hook(self):
        policy = MDPPPolicy(1, 16)
        policy.place(0, 9, 13)
        assert policy.position(0, 9) == 13

    def test_scan_resistance_vs_lru(self):
        """Mid-stack insertion keeps a reused set alive through a scan."""
        hot = [0, 4, 8]                      # 3 hot blocks in set 0 (4 sets)
        scan = [4 * k for k in range(10, 60)]  # one-shot scan, same set
        blocks = hot * 5 + scan + hot * 5
        lru = run_policy(LRUPolicy, blocks, sets=4, ways=4)
        mdpp = run_policy(MDPPPolicy, blocks, sets=4, ways=4,
                          insert_position=3, promote_position=0)
        assert mdpp.stats.hits > lru.stats.hits


class TestSRRIP:
    def test_insert_long_not_mru(self):
        policy = SRRIPPolicy(1, 4)
        policy.on_fill(0, 0, ctx())
        assert policy.rrpvs[0][0] == 2
        assert not policy.is_mru(0, 0)

    def test_hit_promotes_to_zero(self):
        policy = SRRIPPolicy(1, 4)
        policy.on_fill(0, 0, ctx())
        policy.on_hit(0, 0, ctx())
        assert policy.rrpvs[0][0] == 0
        assert policy.is_mru(0, 0)

    def test_victim_prefers_distant(self):
        policy = SRRIPPolicy(1, 4)
        for way in range(4):
            policy.on_fill(0, way, ctx())
        policy.place(0, 2, 3)
        assert policy.choose_victim(0, ctx()) == 2

    def test_aging_when_no_distant_block(self):
        policy = SRRIPPolicy(1, 2)
        policy.on_fill(0, 0, ctx())
        policy.on_fill(0, 1, ctx())
        policy.on_hit(0, 0, ctx())
        policy.on_hit(0, 1, ctx())
        victim = policy.choose_victim(0, ctx())
        assert victim == 0  # both aged from 0 to 3 together; way 0 scanned first
        assert policy.rrpvs[0][1] == 3

    def test_place_rejects_out_of_range(self):
        policy = SRRIPPolicy(1, 4)
        with pytest.raises(ValueError):
            policy.place(0, 0, 4)

    def test_scan_resistance_vs_lru(self):
        # Short one-shot scans (fresh blocks each round) interleaved
        # with hot reuse: LRU loses the hot set to every scan, SRRIP
        # keeps it at RRPV 0 while scan blocks enter at 2 and die first.
        hot = [0, 4, 8]
        blocks = list(hot) * 5
        for round_idx in range(10):
            scan = [4 * (10 + 6 * round_idx + k) for k in range(6)]
            blocks += scan + hot * 3
        lru = run_policy(LRUPolicy, blocks, sets=4, ways=4)
        srrip = run_policy(SRRIPPolicy, blocks, sets=4, ways=4)
        assert srrip.stats.hits > lru.stats.hits


class TestBRRIPDRRIP:
    def test_brrip_mostly_inserts_distant(self):
        policy = BRRIPPolicy(1, 4)
        rrpvs = []
        for _ in range(200):
            policy.on_fill(0, 0, ctx())
            rrpvs.append(policy.rrpvs[0][0])
        distant = sum(1 for r in rrpvs if r == 3)
        assert distant > 150

    def test_drrip_psel_moves_toward_winner(self):
        policy = DRRIPPolicy(64, 4)
        start = policy._psel
        # Misses in SRRIP leader sets push PSEL up.
        for _ in range(50):
            policy.on_fill(0, 0, ctx())
        assert policy._psel > start

    def test_drrip_follower_uses_psel(self):
        policy = DRRIPPolicy(64, 4)
        policy._psel = 0  # strongly favors BRRIP
        rrpvs = set()
        for _ in range(100):
            policy.on_fill(5, 0, ctx())  # set 5 is a follower
            rrpvs.add(policy.rrpvs[5][0])
        assert 3 in rrpvs


class TestRandomPolicy:
    def test_victim_in_range(self):
        policy = RandomPolicy(1, 8)
        for _ in range(100):
            assert 0 <= policy.choose_victim(0, ctx()) < 8

    def test_deterministic_with_seed(self):
        a = RandomPolicy(1, 8, seed=1)
        b = RandomPolicy(1, 8, seed=1)
        assert [a.choose_victim(0, ctx()) for _ in range(20)] == \
            [b.choose_victim(0, ctx()) for _ in range(20)]


class TestComputeNextUses:
    def test_basic(self):
        assert compute_next_uses([1, 2, 1]) == [2, NEVER, NEVER]

    def test_all_distinct(self):
        assert compute_next_uses([1, 2, 3]) == [NEVER] * 3

    def test_empty(self):
        assert compute_next_uses([]) == []

    @given(st.lists(st.integers(min_value=-3, max_value=10), max_size=50),
           st.integers(min_value=1, max_value=8))
    def test_windows_equal_the_reference(self, blocks, window):
        windows = list(next_use_windows(np.array(blocks, dtype=np.int64),
                                        window))
        assert all(len(part) == window for part in windows[:-1])
        flat = list(chain.from_iterable(windows))
        assert flat == compute_next_uses(blocks)
        assert all(type(value) is int for value in flat)

    @given(st.lists(st.integers(min_value=0, max_value=10), max_size=50))
    def test_pointers_are_consistent(self, blocks):
        next_uses = compute_next_uses(blocks)
        for i, nxt in enumerate(next_uses):
            if nxt != NEVER:
                assert blocks[nxt] == blocks[i]
                assert nxt > i
                assert all(blocks[j] != blocks[i] for j in range(i + 1, nxt))


class TestBelady:
    def test_requires_prepare(self):
        policy = BeladyPolicy(1, 2)
        with pytest.raises(RuntimeError):
            policy.should_bypass(0, ctx(stream_index=0))

    def test_optimal_on_cyclic_pattern(self):
        # Cyclic working set of 5 over 4 ways: LRU gets 0 hits, MIN
        # keeps 3 blocks resident and hits 3 of every 5 accesses.
        blocks = [0, 4, 8, 12, 16] * 8
        lru = run_policy(LRUPolicy, blocks)
        minimum = run_policy(BeladyPolicy, blocks)
        assert lru.stats.hits == 0
        assert minimum.stats.hits >= 20

    def test_bypasses_never_reused_blocks(self):
        # A one-shot scan through a live working set: MIN must bypass
        # the scan blocks rather than evict live ones.
        hot = [0, 4, 8, 12]
        scan = [4 * k for k in range(10, 30)]
        blocks = hot * 2 + scan + hot
        result = run_policy(BeladyPolicy, blocks)
        assert result.stats.bypasses >= len(scan) - 4
        # All final hot accesses hit.
        assert result.outcomes[-4:] == [True] * 4

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=10, max_size=300))
    def test_min_never_worse_than_lru_or_srrip(self, raw_blocks):
        """The defining property: MIN's misses lower-bound online policies."""
        blocks = [b * 4 for b in raw_blocks]
        lru = run_policy(LRUPolicy, blocks)
        srrip = run_policy(SRRIPPolicy, blocks)
        minimum = run_policy(BeladyPolicy, blocks)
        assert minimum.stats.misses <= lru.stats.misses
        assert minimum.stats.misses <= srrip.stats.misses
