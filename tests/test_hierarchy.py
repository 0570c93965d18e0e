"""Tests for the upper-level hierarchy driver and the LLC simulator.

``TestOracleLockstep`` holds the flat Stage-1 loop equal, field for
field, to the object-per-structure reference in
``tests/stage1_oracle.py``: on random traces built to reach the
prefetcher's corners, and on every tiny segment, where the Stage-1
artifact blob must also equal the reference's byte for byte.
"""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.access import PREFETCH_PC
from repro.cache.replacement.lru import LRUPolicy
from repro.config import TINY, get_scale
from repro.core.features import BLOCK_OFFSET_BITS
from repro.exec.artifacts import pack_upper
from repro.sim.hierarchy import SERVICE_L1, SERVICE_L2, HierarchyConfig, UpperLevels
from repro.sim.llc import LLCAccess, LLCSimulator
from repro.traces.trace import Trace
from repro.traces.workloads import benchmark_names, build_segments
from tests.stage1_oracle import pack_upper_reference, run_upper_levels

SMALL = HierarchyConfig(l1_kib=4, l1_ways=4, l2_kib=16, l2_ways=8,
                        llc_kib=64, llc_ways=16)


def make_trace(addresses, pc=0x400, gap=3):
    return Trace.from_accesses(
        "t", [(pc + 4 * (i % 8), addr, False, gap) for i, addr in enumerate(addresses)]
    )


class TestHierarchyConfig:
    def test_block_shift(self):
        """Stage 1 splits an address at BLOCK_OFFSET_BITS, the bits one
        default block spans."""
        assert HierarchyConfig().block_bytes == 1 << BLOCK_OFFSET_BITS == 64
        stream = UpperLevels(HierarchyConfig()).run(
            make_trace([0x1234])).llc_stream
        assert stream.block.tolist() == [0x1234 >> 6]
        assert stream.offset.tolist() == [0x34]

    def test_llc_bytes(self):
        assert HierarchyConfig(llc_kib=2048).llc_bytes == 2 * 1024 * 1024

    @pytest.mark.parametrize("scale", ["tiny", "small", "paper"])
    @pytest.mark.parametrize("which", ["hierarchy", "multi_hierarchy"])
    def test_llc_sets_match_the_llc(self, scale, which):
        config = getattr(get_scale(scale), which)
        assert config.llc_sets == (config.llc_kib * 1024
                                   // (config.llc_ways * 64))

    @pytest.mark.parametrize("block_bytes", [32, 128])
    def test_rejects_blocks_the_llc_cannot_model(self, block_bytes):
        """Stage 2 rebuilds addresses from six offset bits: at 128-byte
        blocks address 0x1040 would read back as 0x840."""
        with pytest.raises(ValueError, match="block_bytes"):
            HierarchyConfig(block_bytes=block_bytes)

    def test_every_scale_preset_constructs(self):
        for name in ("tiny", "small", "paper"):
            scale = get_scale(name)
            for config in (scale.hierarchy, scale.multi_hierarchy):
                assert HierarchyConfig(**vars(config)) == config

    def test_llc_sets_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            HierarchyConfig(llc_kib=96, llc_ways=16).llc_sets  # 96 sets


class TestUpperLevels:
    def test_repeated_access_served_by_l1(self):
        trace = make_trace([0x1000] * 10)
        result = UpperLevels(SMALL, prefetch=False).run(trace)
        assert result.service[0] >= 0          # first access reaches LLC
        assert result.service[1:].tolist() == [SERVICE_L1] * 9

    def test_l2_serves_l1_evictions(self):
        # Working set bigger than L1 (4 KB) but within L2 (16 KB).
        addresses = [0x1000 + 64 * i for i in range(128)] * 2
        result = UpperLevels(SMALL, prefetch=False).run(trace := make_trace(addresses))
        second_pass = result.service[128:]
        assert SERVICE_L2 in second_pass
        assert all(s < 0 for s in second_pass)  # nothing reaches the LLC again

    def test_llc_stream_contains_compulsory_misses(self):
        addresses = [0x1000 + 64 * i for i in range(50)]
        result = UpperLevels(SMALL, prefetch=False).run(make_trace(addresses))
        demand = [a for a in result.llc_stream if not a.is_prefetch]
        assert len(demand) == 50
        assert [a.block for a in demand] == [(0x1000 + 64 * i) >> 6 for i in range(50)]

    def test_instruction_indices_monotone(self):
        addresses = [0x1000 + 64 * i for i in range(20)]
        result = UpperLevels(SMALL, prefetch=False).run(make_trace(addresses, gap=3))
        assert result.instr_indices.tolist() == [3 + 4 * i for i in range(20)]
        assert result.num_instructions == 20 * 4

    def test_prefetches_carry_fake_pc(self):
        addresses = [0x1000 + 64 * i for i in range(50)]
        result = UpperLevels(SMALL, prefetch=True).run(make_trace(addresses))
        prefetches = [a for a in result.llc_stream if a.is_prefetch]
        assert prefetches, "a sequential stream must trigger prefetches"
        assert all(a.pc == PREFETCH_PC for a in prefetches)

    def test_prefetch_reduces_llc_demand_traffic(self):
        addresses = [0x100000 + 64 * i for i in range(400)]
        with_pf = UpperLevels(SMALL, prefetch=True).run(make_trace(addresses))
        without_pf = UpperLevels(SMALL, prefetch=False).run(make_trace(addresses))
        demand_with = sum(1 for a in with_pf.llc_stream if not a.is_prefetch)
        demand_without = sum(1 for a in without_pf.llc_stream if not a.is_prefetch)
        assert demand_with < demand_without

    def test_prefetched_block_not_refetched(self):
        # A prefetch fill lands in L2, so the later demand access to the
        # same block is an L2 hit, not a second LLC access.
        addresses = [0x1000 + 64 * i for i in range(50)]
        result = UpperLevels(SMALL, prefetch=True).run(make_trace(addresses))
        blocks = [a.block for a in result.llc_stream]
        assert len(blocks) == len(set(blocks))

    def test_warmup_boundary(self):
        addresses = [0x1000 + 64 * i for i in range(50)]
        result = UpperLevels(SMALL, prefetch=False).run(make_trace(addresses))
        boundary = result.llc_warmup_boundary(25)
        assert result.llc_stream[boundary].mem_index >= 25
        assert result.llc_stream[boundary - 1].mem_index < 25

    def test_warmup_boundary_past_end(self):
        addresses = [0x1000]
        result = UpperLevels(SMALL, prefetch=False).run(make_trace(addresses))
        assert result.llc_warmup_boundary(10) == len(result.llc_stream)

    def test_l1_stats_accumulate(self):
        trace = make_trace([0x1000] * 10)
        result = UpperLevels(SMALL, prefetch=False).run(trace)
        assert result.l1_hits == 9
        assert result.l1_misses == 1

    @pytest.mark.parametrize("geometry", [
        {"l1_kib": 1, "l1_ways": 3},   # 1 KiB is not a whole number of sets
        {"l2_kib": 3, "l2_ways": 4},   # 12 sets: not a power of two
    ])
    def test_rejects_bad_geometry(self, geometry):
        config = HierarchyConfig(**{**SMALL.__dict__, **geometry})
        with pytest.raises(ValueError):
            UpperLevels(config).run(make_trace([0x1000]))


# Small enough that random traces evict from both levels.
TINY_LEVELS = HierarchyConfig(l1_kib=1, l1_ways=2, l2_kib=2, l2_ways=4,
                              llc_kib=64, llc_ways=16)


@st.composite
def _stream_traces(draw):
    """A trace interleaving up to 24 block streams (more than the
    prefetcher's 16), some starting near block 0; each step moves one
    stream by -5..5 blocks (0 repeats a block), clamped at block 0.
    Every third stream has a kernel-space PC (>= 2**63)."""
    count = draw(st.integers(min_value=1, max_value=24))
    heads = draw(st.lists(
        st.one_of(st.integers(min_value=0, max_value=8),
                  st.integers(min_value=0, max_value=64),
                  st.integers(min_value=0, max_value=1 << 20)),
        min_size=count, max_size=count))
    steps = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=count - 1),
                  st.integers(min_value=-5, max_value=5),
                  st.integers(min_value=0, max_value=63),
                  st.booleans(),
                  st.integers(min_value=0, max_value=3)),
        min_size=1, max_size=400))
    accesses = []
    for stream, step, offset, write, gap in steps:
        heads[stream] = max(0, heads[stream] + step)
        pc = (1 << 63 if stream % 3 == 0 else 0) + 0x400 + 4 * stream
        accesses.append((pc, heads[stream] * 64 + offset, write, gap))
    return Trace.from_accesses("streams", accesses)


def _assert_matches_oracle(result, oracle):
    assert result.service.dtype == np.int64
    assert result.instr_indices.dtype == np.int64
    assert result.service.tolist() == oracle.service
    assert result.instr_indices.tolist() == oracle.instr_indices
    assert list(result.llc_stream) == oracle.llc_stream
    for field in ("num_instructions", "l1_hits", "l1_misses", "l2_hits",
                  "l2_misses", "prefetches_issued"):
        value = getattr(result, field)
        assert type(value) is int, field  # JSON-safe, as the blob needs
        assert value == getattr(oracle, field), field


class TestOracleLockstep:
    @settings(max_examples=80, deadline=None)
    @given(trace=_stream_traces(), prefetch=st.booleans())
    def test_random_streams(self, trace, prefetch):
        result = UpperLevels(TINY_LEVELS, prefetch=prefetch).run(trace)
        oracle = run_upper_levels(TINY_LEVELS, trace, prefetch)
        _assert_matches_oracle(result, oracle)
        mems = [access.mem_index for access in oracle.llc_stream]
        for warm in (0, len(trace) // 4, len(trace) // 2, len(trace)):
            assert result.llc_warmup_boundary(warm) == bisect_left(mems, warm)

    def test_tied_streams_first_slot_wins(self):
        # Untrained streams at blocks 100 and 106 are both 3 blocks from
        # a miss at 103; the first-allocated one trains upward.
        trace = make_trace([block * 64 for block in (100, 106, 103)])
        result = UpperLevels(SMALL, prefetch=True).run(trace)
        oracle = run_upper_levels(SMALL, trace, True)
        _assert_matches_oracle(result, oracle)
        prefetched = result.llc_stream.block[result.llc_stream.is_prefetch]
        assert prefetched.tolist() == [104, 105]

    @pytest.mark.parametrize("name", benchmark_names())
    def test_tiny_segments(self, name):
        segments = build_segments(name, TINY.hierarchy.llc_bytes,
                                  TINY.segment_accesses)
        for segment in segments:
            for prefetch in (True, False):
                result = UpperLevels(TINY.hierarchy, prefetch).run(segment.trace)
                oracle = run_upper_levels(TINY.hierarchy, segment.trace,
                                          prefetch)
                _assert_matches_oracle(result, oracle)
                assert pack_upper(result) == pack_upper_reference(oracle)


class TestLLCSimulator:
    def _stream(self, blocks):
        return [
            LLCAccess(pc=0x400, block=b, offset=0, is_write=False,
                      is_prefetch=False, mem_index=i, instr_index=i * 4)
            for i, b in enumerate(blocks)
        ]

    def test_warmup_split(self):
        policy = LRUPolicy(4, 4)
        sim = LLCSimulator(policy)
        result = sim.run(self._stream([0, 0, 0, 0]), warmup=2)
        assert result.warm_stats.accesses == 2
        assert result.stats.accesses == 2
        assert result.stats.hits == 2

    def test_outcomes_cover_full_stream(self):
        policy = LRUPolicy(4, 4)
        sim = LLCSimulator(policy)
        result = sim.run(self._stream([0, 1, 0]), warmup=1)
        assert result.outcomes == [False, False, True]

    def test_prefetch_excluded_from_demand_stats(self):
        policy = LRUPolicy(4, 4)
        sim = LLCSimulator(policy)
        stream = self._stream([0, 1])
        stream[1].is_prefetch = True
        result = sim.run(stream)
        assert result.stats.accesses == 2
        assert result.stats.demand_accesses == 1
        assert result.stats.demand_misses == 1

    def test_eviction_counted(self):
        policy = LRUPolicy(1, 2)
        sim = LLCSimulator(policy)
        result = sim.run(self._stream([0, 1, 2]))
        assert result.stats.evictions == 1

    def test_lastmiss_bit_visible_to_policy(self):
        seen = []

        class Spy(LRUPolicy):
            def on_access(self, set_idx, ctx, hit, way):
                seen.append(ctx.last_was_miss)

        sim = LLCSimulator(Spy(1, 4))
        sim.run(self._stream([0, 0, 0]))
        assert seen == [False, True, False]

    def test_mru_hit_flag(self):
        seen = []

        class Spy(LRUPolicy):
            def on_access(self, set_idx, ctx, hit, way):
                seen.append(ctx.is_mru_hit)

        sim = LLCSimulator(Spy(1, 4))
        sim.run(self._stream([0, 1, 1, 0]))
        # Access 2 hits block 1 at MRU; access 3 hits block 0 at LRU side.
        assert seen == [False, False, True, False]
