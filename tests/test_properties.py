"""Cross-module property-based tests (hypothesis).

Each property pins an invariant of the system rather than a single
behavior: replacement-policy state machines never corrupt, predictors
never leave their numeric ranges, and the cache never reports
impossible statistics — for *any* access sequence.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.access import AccessContext
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.mdpp import MDPPPolicy
from repro.cache.replacement.srrip import SRRIPPolicy
from repro.core.features import random_feature_set
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.core.predictor import (
    CONFIDENCE_MAX,
    CONFIDENCE_MIN,
    MultiperspectivePredictor,
)
from repro.core.tables import WEIGHT_MAX, WEIGHT_MIN
from repro.policies import make_policy
from repro.sim.llc import LLCAccess, LLCSimulator

SETS, WAYS = 4, 4

block_lists = st.lists(st.integers(min_value=0, max_value=63),
                       min_size=1, max_size=250)


def make_stream(blocks):
    return [
        LLCAccess(pc=0x400 + 4 * (b % 8), block=b, offset=8 * (b % 8),
                  is_write=bool(b % 5 == 0), is_prefetch=False,
                  mem_index=i, instr_index=3 * i)
        for i, b in enumerate(blocks)
    ]


class TestCacheOccupancyProperties:
    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_resident_blocks_unique_per_set(self, blocks):
        sim = LLCSimulator(LRUPolicy(SETS, WAYS))
        sim.run(make_stream(blocks))
        for set_idx in range(SETS):
            tags = [t for _, t in sim.cache.resident_blocks(set_idx)]
            assert len(tags) == len(set(tags))
            assert all(t & (SETS - 1) == set_idx for t in tags)

    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_second_access_to_resident_block_hits(self, blocks):
        """Immediately repeating an access always hits (no bypass)."""
        doubled = [b for block in blocks for b in (block, block)]
        sim = LLCSimulator(LRUPolicy(SETS, WAYS))
        outcomes = sim.run(make_stream(doubled)).outcomes
        assert all(outcomes[i] for i in range(1, len(outcomes), 2))


class TestPolicyStateProperties:
    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_srrip_rrpvs_stay_in_range(self, blocks):
        policy = SRRIPPolicy(SETS, WAYS)
        sim = LLCSimulator(policy)
        sim.run(make_stream(blocks))
        for rrpvs in policy.rrpvs:
            assert all(0 <= r <= policy.rrpv_max for r in rrpvs)

    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_mdpp_positions_stay_in_range(self, blocks):
        policy = MDPPPolicy(SETS, 16)
        sim = LLCSimulator(policy)
        stream = make_stream(blocks)
        sim.run(stream)
        for set_idx in range(SETS):
            for way in range(16):
                assert 0 <= policy.position(set_idx, way) <= 15

    @settings(max_examples=25, deadline=None)
    @given(block_lists)
    def test_lru_stack_is_permutation_of_filled_ways(self, blocks):
        policy = LRUPolicy(SETS, WAYS)
        sim = LLCSimulator(policy)
        sim.run(make_stream(blocks))
        for set_idx in range(SETS):
            stack = policy.stack(set_idx)
            assert len(stack) == len(set(stack))
            resident = {w for w, _ in sim.cache.resident_blocks(set_idx)}
            assert set(stack) == resident


class TestPredictorNumericProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000), block_lists)
    def test_random_feature_predictor_bounded(self, seed, blocks):
        features = random_feature_set(random.Random(seed), size=8)
        predictor = MultiperspectivePredictor(features)
        for i, block in enumerate(blocks):
            ctx = AccessContext(
                pc=0x400 + 4 * (block % 8), address=block << 6, block=block,
                offset=8 * (block % 8), is_insert=bool(block % 2),
                is_mru_hit=bool(block % 3 == 0), last_was_miss=bool(block % 7),
            )
            indices = predictor.indices(ctx)
            assert all(
                0 <= idx < feature.table_size
                for idx, feature in zip(indices, features)
            )
            confidence = predictor.predict(indices)
            assert CONFIDENCE_MIN <= confidence <= CONFIDENCE_MAX

    @settings(max_examples=10, deadline=None)
    @given(block_lists)
    def test_mpppb_weights_bounded_after_traffic(self, blocks):
        config = MPPPBConfig(
            features=random_feature_set(random.Random(3), size=8),
            sampler_sets=SETS,
        )
        policy = MPPPBPolicy(SETS, 16, config)
        sim = LLCSimulator(policy)
        sim.run(make_stream(blocks))
        for table in policy.predictor.tables:
            assert all(WEIGHT_MIN <= w <= WEIGHT_MAX for w in table.weights)
        for entries in policy.sampler._sets:
            assert len(entries) <= policy.sampler.ways


class TestUniversalPolicyProperties:
    @settings(max_examples=10, deadline=None)
    @given(block_lists, st.sampled_from(
        ["lru", "srrip", "mdpp", "plru", "random", "ship", "sdbp"]))
    def test_any_policy_produces_consistent_stats(self, blocks, name):
        sim = LLCSimulator(make_policy(name, SETS, WAYS))
        result = sim.run(make_stream(blocks))
        stats = result.stats
        assert stats.accesses == len(blocks)
        assert stats.hits + stats.misses == stats.accesses
        assert 0 <= stats.bypasses <= stats.misses
        assert stats.evictions <= stats.misses
