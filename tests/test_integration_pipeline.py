"""Integration tests across the three-stage simulation pipeline.

These tests pin down the architectural invariants DESIGN.md relies on:
the stage-1 LLC stream is policy invariant, replays are deterministic,
statistics are internally consistent, and the equivalence between the
dictionary-based L1/L2 LRU and the explicit-policy LLC LRU holds.
"""

import pytest

from repro.cache.replacement.lru import LRUPolicy
from repro.policies import make_policy, policy_factory
from repro.sim.hierarchy import HierarchyConfig, UpperLevels
from repro.sim.llc import LLCAccess, LLCSimulator
from repro.traces.workloads import build_segments
from tests.stage1_oracle import FastLRUCache

SMALL = HierarchyConfig(l1_kib=4, l1_ways=4, l2_kib=16, l2_ways=8,
                        llc_kib=64, llc_ways=16)
LLC = SMALL.llc_bytes
SETS = SMALL.llc_sets
POLICIES = ["lru", "srrip", "mdpp", "min", "sdbp", "perceptron",
            "hawkeye", "ship", "mpppb-1a"]


@pytest.fixture(scope="module")
def segment():
    return build_segments("soplex", LLC, accesses=6000)[0]


@pytest.fixture(scope="module")
def upper(segment):
    return UpperLevels(SMALL).run(segment.trace)


class TestStageInvariants:
    def test_llc_stream_policy_invariant(self, segment):
        """Stage 1 never consults the LLC, so its output is unique."""
        a = UpperLevels(SMALL).run(segment.trace)
        b = UpperLevels(SMALL).run(segment.trace)
        assert [x.block for x in a.llc_stream] == [x.block for x in b.llc_stream]
        assert a.service.tolist() == b.service.tolist()

    def test_service_levels_consistent_with_stream(self, upper, segment):
        llc_indices = [s for s in upper.service if s >= 0]
        demand = [a for a in upper.llc_stream if not a.is_prefetch]
        assert len(llc_indices) == len(demand)
        assert llc_indices == sorted(llc_indices)

    def test_mem_indices_monotone_in_stream(self, upper):
        mem_indices = [a.mem_index for a in upper.llc_stream]
        assert mem_indices == sorted(mem_indices)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_llc_stats_consistent(self, upper, segment, policy_name):
        """hits + misses == accesses; bypasses + fills == misses."""
        sim = LLCSimulator(make_policy(policy_name, SETS, 16))
        result = sim.run(upper.llc_stream, pc_trace=segment.trace.pcs)
        stats = result.stats
        assert stats.hits + stats.misses == stats.accesses
        assert stats.hits == sum(result.outcomes)
        assert stats.demand_hits + stats.demand_misses == stats.demand_accesses
        assert stats.bypasses <= stats.misses
        assert len(result.outcomes) == len(upper.llc_stream)

    @pytest.mark.parametrize("policy_name", POLICIES)
    def test_replay_deterministic(self, upper, segment, policy_name):
        def run():
            sim = LLCSimulator(make_policy(policy_name, SETS, 16))
            return sim.run(upper.llc_stream, pc_trace=segment.trace.pcs)

        assert run().outcomes == run().outcomes

    def test_min_lower_bounds_all_policies(self, upper, segment):
        misses = {}
        for policy_name in POLICIES:
            sim = LLCSimulator(make_policy(policy_name, SETS, 16))
            misses[policy_name] = sim.run(
                upper.llc_stream, pc_trace=segment.trace.pcs
            ).stats.misses
        assert all(misses["min"] <= m for m in misses.values())


class TestLRUEquivalence:
    def test_fast_lru_matches_policy_lru(self):
        """The dict-trick L1/L2 cache and the explicit LLC LRU policy
        implement the same replacement function."""
        import random

        rng = random.Random(31)
        blocks = [rng.randrange(256) for _ in range(3000)]
        fast = FastLRUCache(16 * 64 * 4, ways=4)
        sim = LLCSimulator(LRUPolicy(16, 4))
        stream = [
            LLCAccess(pc=0x400, block=b, offset=0, is_write=False,
                      is_prefetch=False, mem_index=i, instr_index=i)
            for i, b in enumerate(blocks)
        ]
        outcomes = sim.run(stream).outcomes
        for block, expected in zip(blocks, outcomes):
            assert fast.access(block) is expected


class TestWarmupSemantics:
    def test_warm_plus_measured_covers_all(self, upper, segment):
        sim = LLCSimulator(LRUPolicy(SETS, 16))
        boundary = len(upper.llc_stream) // 2
        result = sim.run(upper.llc_stream, pc_trace=segment.trace.pcs,
                         warmup=boundary)
        total = result.stats.accesses + result.warm_stats.accesses
        assert total == len(upper.llc_stream)
        assert result.warm_stats.accesses == boundary

    def test_warmup_does_not_change_outcomes(self, upper, segment):
        def outcomes(warmup):
            sim = LLCSimulator(LRUPolicy(SETS, 16))
            return sim.run(upper.llc_stream, pc_trace=segment.trace.pcs,
                           warmup=warmup).outcomes

        assert outcomes(0) == outcomes(100)


class TestRunnerEndToEnd:
    def test_full_pipeline_ipc_sane(self, segment):
        from repro.sim.single import SingleThreadRunner

        runner = SingleThreadRunner(SMALL, warmup_fraction=0.25)
        for policy_name in ("lru", "mpppb-1a", "min"):
            result = runner.run_segment(segment, policy_factory(policy_name))
            # IPC bounded by issue width and by total memory stall.
            assert 0.0 < result.ipc <= 4.0
