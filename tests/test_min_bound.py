"""MIN with optimal bypass bounds every registered policy's misses.

Belady's MIN, allowed to bypass, evicts (or declines to install) the
block whose next use is farthest away, and no replacement policy can
miss less often on the same stream.  The bound needs no model of the
policy under test, so it holds every policy to a check independent of
the code the replays share (the PC hash constants, the feature bit
ranges, the sampler, the weight tables).

The bound is only as good as MIN, so :func:`opt_misses` counts the
optimum with a plain per-set pass that imports nothing from ``repro``:
the minimal miss count is unique, whatever the tie-breaks, and
``BeladyPolicy`` must reach it exactly at 1 to 16 ways (a MIN that
evicts the nearest next use, or never bypasses, misses it).  Every
registered policy but the bare ``mpppb`` (it needs an explicit feature
config; its three presets are in) then replays random LLC streams at
16 ways through :func:`~repro.sim.single.replay_segment`, the route
the runners take, on both Stage-2 legs: the columnar kernel and
``REPRO_STAGE2_KERNEL=off``'s ``LLCSimulator`` reference.  Misses
count every access, prefetches and writes included, which is the
quantity MIN minimizes.  The same two checks then run on the Stage-1
LLC stream of an ingested text trace at the tiny LLC geometry, kernel-
space PCs (at or above 2**63) included.
"""

import math
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import TINY
from repro.policies import make_policy, policy_names
from repro.sim.hierarchy import UpperLevels
from repro.sim.llc import LLCAccess
from repro.sim.single import replay_segment
from repro.traces.ingest import resolve_ingest

SETS, WAYS = 4, 16
POLICIES = [name for name in policy_names() if name not in ("mpppb", "min")]


def _stream(seed, length, hot, reuse, cold):
    """``length`` accesses: with probability ``reuse`` a block of a hot
    pool of ``hot`` blocks, else one of ``cold`` blocks, each pool with
    its own four PCs; a fifth of the accesses are writes and a fifth
    prefetches."""
    rng = random.Random(seed)
    stream, pcs = [], []
    for i in range(length):
        if rng.random() < reuse:
            block, pc = rng.randrange(hot), rng.randrange(4)
        else:
            block, pc = rng.randrange(cold), 4 + rng.randrange(4)
        pcs.append(0x400 + 4 * pc)
        stream.append(LLCAccess(pc=pcs[-1], block=block, offset=8 * (i % 8),
                                is_write=rng.random() < 0.2,
                                is_prefetch=rng.random() < 0.2,
                                mem_index=i, instr_index=3 * i))
    return stream, pcs


def _streams(ways):
    """Streams over ``SETS`` sets of ``ways``: a hot pool from half to
    three times the capacity, so every set sees reuse inside and beyond
    its ways, and a cold pool eight times it."""
    capacity = SETS * ways
    return st.builds(
        _stream, seed=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=1, max_value=800),
        hot=st.integers(min_value=capacity // 2, max_value=3 * capacity),
        reuse=st.floats(min_value=0.0, max_value=1.0),
        cold=st.just(8 * capacity))


def opt_misses(blocks, num_sets, ways):
    """Misses of Belady's OPT with bypass: on a miss the block joins its
    set, and a set over ``ways`` drops whichever block, the newcomer
    included, is next used farthest away (dropping the newcomer is the
    bypass)."""
    next_use = [0.0] * len(blocks)
    following = {}
    for index in range(len(blocks) - 1, -1, -1):
        next_use[index] = following.get(blocks[index], math.inf)
        following[blocks[index]] = index
    sets = [{} for _ in range(num_sets)]
    misses = 0
    for block, upcoming in zip(blocks, next_use):
        resident = sets[block % num_sets]
        misses += block not in resident
        resident[block] = upcoming
        if len(resident) > ways:
            del resident[max(resident, key=resident.get)]
    return misses


def test_opt_by_hand():
    # One 2-way set: a b c a b.  c is never used again, so it is
    # bypassed and a, b hit: three misses.  LRU would miss all five.
    assert opt_misses([0, 1, 2, 0, 1], 1, 2) == 3
    # One way: a c a c.  c is next used after a, so it is bypassed and
    # a hits: three misses.  Installing every block misses all four.
    assert opt_misses([0, 1, 0, 1], 1, 1) == 3


def _misses(name, stream, pcs, ways=WAYS, sets=SETS):
    policy = make_policy(name, sets, ways)
    [result] = replay_segment([policy], stream, pcs, 0)
    return result.stats.misses


@pytest.mark.parametrize("ways", [1, 2, 4, WAYS])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_min_reaches_the_optimum(ways, data):
    stream, pcs = data.draw(_streams(ways))
    assert _misses("min", stream, pcs, ways) == opt_misses(
        [access.block for access in stream], SETS, ways)


@pytest.mark.parametrize("kernel", ["on", "off"])
@settings(max_examples=30, deadline=None)
@given(picked=_streams(WAYS))
def test_min_never_misses_more(kernel, picked):
    stream, pcs = picked
    with mock.patch.dict(os.environ, {"REPRO_STAGE2_KERNEL": kernel}):
        bound = _misses("min", stream, pcs)
        below = {name: misses for name in POLICIES
                 if (misses := _misses(name, stream, pcs)) < bound}
    assert not below, f"below MIN's {bound} misses: {below}"


def _write_text_trace(path, records=6_000):
    """A text trace shaped like CI's ingest fixture: an LCG draws every
    field and every third PC is a kernel-space one (at or above 2**63).
    Half the accesses go to a hot pool of 512 blocks, half of the LLC's
    capacity at tiny, the rest to 4096 blocks, four times it."""
    state, lines = 0x2017, []
    for i in range(records):
        state = (state * 6364136223846793005
                 + 1442695040888963407) % (1 << 64)
        base = 0xffffffff81000000 if i % 3 == 0 else 0x400
        pc = base + 4 * (state % 97)
        pool = 512 if state >> 63 else 4096
        addr = 0x10000 + 64 * ((state >> 16) % pool)
        rw = "w" if state % 5 == 0 else "r"
        lines.append(f"0x{pc:x} 0x{addr:x} {rw} {state % 3}")
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("kernel", ["on", "off"])
def test_min_bounds_an_ingested_stream(kernel, tmp_path):
    path = tmp_path / "fixture.trace"
    _write_text_trace(path)
    [segment] = resolve_ingest(str(path), accesses=6_000).build()
    assert max(segment.trace.pcs) >= 1 << 63
    hierarchy = TINY.hierarchy
    stream = UpperLevels(hierarchy).run(segment.trace).llc_stream
    pcs = segment.trace.pcs
    ways = hierarchy.llc_ways
    # Set count by hand: an oracle must not share HierarchyConfig.llc_sets.
    sets = hierarchy.llc_bytes // (ways * hierarchy.block_bytes)
    with mock.patch.dict(os.environ, {"REPRO_STAGE2_KERNEL": kernel}):
        bound = _misses("min", stream, pcs, ways, sets)
        below = {name: misses for name in POLICIES
                 if (misses := _misses(name, stream, pcs, ways, sets))
                 < bound}
    assert bound == opt_misses(stream.block.tolist(), sets, ways)
    assert not below, f"below MIN's {bound} misses: {below}"
