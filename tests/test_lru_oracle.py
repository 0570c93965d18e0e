"""LRU's stack property, checked against a plain Mattson pass.

Mattson et al.'s stack-distance pass gives LRU's outcome for every
associativity at once: at a fixed set count, an access hits in an
``A``-way LRU cache exactly when fewer than ``A`` distinct blocks of
its set were touched since the previous access to its block.
:func:`stack_distances` computes those distances with one list of
blocks per set, MRU first.  It shares no code with the replays it
checks (it imports nothing from ``repro.cache`` or ``repro.sim``), so
a bug common to ``LLCSimulator`` and the columnar kernel cannot hide
from it.  The same per-set reuse profile is what Razzak et al.'s
static reuse profiles turn into miss ratios.

Both replays must match the oracle access for access at 1 to 32
ways, and misses must never rise as ways are added, on random
streams, Stage-1 streams and a merged 4-thread mix.  gamess and lbm
are left out of the Stage-1 streams: at tiny scale their LLC streams
have no reuse, so every access misses at every way count.
"""

from typing import List, Optional, Sequence

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.replacement.lru import LRUPolicy
from repro.config import TINY
from repro.sim.hierarchy import UpperLevels
from repro.sim.kernel.baselines import replay_baseline
from repro.sim.llc import LLCAccess, LLCSimulator
from repro.sim.multi import MultiProgrammedRunner
from repro.traces.mixes import generate_mixes
from repro.traces.workloads import build_segments, build_suite

WAY_COUNTS = (1, 2, 4, 8, 16, 32)


def stack_distances(blocks: Sequence[int],
                    num_sets: int) -> List[Optional[int]]:
    """Per-set LRU stack distance of each access, ``None`` on the
    first access to a block.

    The distance is the block's depth in its set's recency stack: the
    number of distinct blocks of that set touched since the block's
    previous access.
    """
    stacks: List[List[int]] = [[] for _ in range(num_sets)]
    distances: List[Optional[int]] = []
    for block in blocks:
        stack = stacks[block % num_sets]
        if block in stack:
            depth = stack.index(block)
            del stack[depth]
        else:
            depth = None
        stack.insert(0, block)
        distances.append(depth)
    return distances


def oracle_outcomes(distances: Sequence[Optional[int]],
                    ways: int) -> List[bool]:
    return [d is not None and d < ways for d in distances]


def _assert_stack_property(stream, pcs, num_sets) -> List[int]:
    """Both replays equal the oracle at every way count; returns the
    miss count per way count."""
    distances = stack_distances([a.block for a in stream], num_sets)
    misses = []
    for ways in WAY_COUNTS:
        expected = oracle_outcomes(distances, ways)
        reference = LLCSimulator(LRUPolicy(num_sets, ways)).run(
            stream, pc_trace=pcs)
        kernel = replay_baseline(LRUPolicy(num_sets, ways), stream, pcs, 0)
        assert reference.outcomes == expected, f"LLCSimulator at {ways} ways"
        assert kernel.outcomes == expected, f"kernel at {ways} ways"
        misses.append(kernel.stats.misses)
    assert misses == sorted(misses, reverse=True), misses
    return misses


def test_distances_by_hand():
    # One set: a b c a b d a -> a is 2 deep, b 2, a 2 again.
    assert stack_distances([0, 1, 2, 0, 1, 3, 0], 1) == [
        None, None, None, 2, 2, None, 2]
    # Two sets keep separate stacks.
    assert stack_distances([0, 1, 2, 0, 3, 1], 2) == [
        None, None, None, 1, None, 1]


_access_st = st.tuples(
    st.one_of(st.integers(min_value=0, max_value=4 * 6),
              st.integers(min_value=0, max_value=4 * 48)),
    st.booleans(),
)


@settings(max_examples=40, deadline=None)
@given(picks=st.lists(_access_st, min_size=1, max_size=300),
       num_sets=st.sampled_from([1, 2, 4]))
def test_random_streams(picks, num_sets):
    stream = [LLCAccess(pc=0x400, block=block, offset=0, is_write=False,
                        is_prefetch=prefetch, mem_index=i, instr_index=i)
              for i, (block, prefetch) in enumerate(picks)]
    _assert_stack_property(stream, [0x400] * len(stream), num_sets)


@pytest.mark.parametrize("name", ["soplex", "mcf"])
def test_stage1_stream(name):
    hierarchy = TINY.hierarchy
    segment = build_segments(name, hierarchy.llc_bytes,
                             TINY.segment_accesses)[0]
    upper = UpperLevels(hierarchy).run(segment.trace)
    # Set count by hand: an oracle must not share HierarchyConfig.llc_sets.
    num_sets = hierarchy.llc_bytes // (hierarchy.llc_ways * 64)
    misses = _assert_stack_property(upper.llc_stream, segment.trace.pcs,
                                    num_sets)
    assert misses[0] > misses[-1]


def test_merged_mix_stream():
    hierarchy = TINY.multi_hierarchy
    suite = build_suite(hierarchy.llc_bytes, TINY.segment_accesses,
                        names=("gamess", "soplex", "mcf", "lbm", "milc"))
    mix = generate_mixes([s for name in sorted(suite) for s in suite[name]],
                         1)[0]
    runner = MultiProgrammedRunner(hierarchy)
    threads = [runner.thread_data(segment) for segment in mix.segments]
    merged, _origins, merged_pcs, _offsets = runner._interleave(threads)
    # Set count by hand: an oracle must not share HierarchyConfig.llc_sets.
    num_sets = hierarchy.llc_bytes // (hierarchy.llc_ways * 64)
    misses = _assert_stack_property(merged, merged_pcs, num_sets)
    assert misses[0] > misses[-1]
