"""Tests for the SDBP, Perceptron, and Hawkeye baselines."""

import pytest

from repro.cache.access import AccessContext
from repro.cache.replacement.lru import LRUPolicy
from repro.predictors.base import SetSampler, partial_tag
from repro.predictors.hawkeye import HawkeyePolicy, HawkeyePredictor, OptGen
from repro.predictors.perceptron import PerceptronPolicy, PerceptronPredictor
from repro.predictors.sdbp import SDBPPolicy, SDBPPredictor
from repro.sim.llc import LLCAccess, LLCSimulator


def ctx(pc=0x400, block=0, history=(), history_index=0):
    return AccessContext(pc=pc, address=block << 6, block=block, offset=0,
                         pc_history=history, history_index=history_index)


def stream(blocks, pcs=None):
    pcs = pcs or [0x400] * len(blocks)
    return [
        LLCAccess(pc=pcs[i], block=b, offset=0, is_write=False,
                  is_prefetch=False, mem_index=i, instr_index=4 * i)
        for i, b in enumerate(blocks)
    ]


class TestSetSampler:
    def test_spreads_samples(self):
        sampler = SetSampler(llc_sets=64, sampler_sets=4)
        sampled = [s for s in range(64) if sampler.sampler_index(s) >= 0]
        assert sampled == [0, 16, 32, 48]

    def test_sampler_indices_dense(self):
        sampler = SetSampler(llc_sets=64, sampler_sets=4)
        indices = sorted(sampler.sampler_index(s) for s in (0, 16, 32, 48))
        assert indices == [0, 1, 2, 3]

    def test_more_samples_than_sets_clamped(self):
        sampler = SetSampler(llc_sets=4, sampler_sets=16)
        assert sampler.sampler_sets == 4

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            SetSampler(64, 0)


class TestPartialTag:
    def test_in_range(self):
        assert 0 <= partial_tag(0xDEADBEEF1234) < (1 << 16)

    def test_distinct_blocks_mostly_distinct_tags(self):
        tags = {partial_tag(b) for b in range(5000)}
        assert len(tags) > 4000


class TestSDBPPredictor:
    def _dead_train(self, predictor, pc, rounds=40):
        """Feed the sampler blocks from ``pc`` that die without reuse."""
        for i in range(rounds):
            predictor._sample(0, ctx(pc=pc, block=1000 + i))

    def test_learns_dead_pc(self):
        predictor = SDBPPredictor(llc_sets=64, sampler_sets=4, sampler_ways=4)
        self._dead_train(predictor, pc=0x500)
        assert predictor.confidence(0x500) > 0

    def test_learns_live_pc(self):
        predictor = SDBPPredictor(llc_sets=64, sampler_sets=4, sampler_ways=4)
        # Same two blocks reused over and over: every sampler access hits.
        for _ in range(40):
            predictor._sample(0, ctx(pc=0x600, block=1))
            predictor._sample(0, ctx(pc=0x600, block=2))
        assert predictor.confidence(0x600) < 0

    def test_counters_saturate(self):
        predictor = SDBPPredictor(llc_sets=64, sampler_sets=4, sampler_ways=2)
        self._dead_train(predictor, pc=0x700, rounds=200)
        assert predictor.predict(0x700) <= predictor.counter_max * 3

    def test_on_llc_access_unsampled_set_trains_nothing(self):
        predictor = SDBPPredictor(llc_sets=64, sampler_sets=4, sampler_ways=4)
        before = [list(t) for t in predictor.tables]
        predictor.on_llc_access(1, ctx(pc=0x500, block=5), hit=False)
        assert predictor.tables == before

    def test_confidence_range_bound(self):
        predictor = SDBPPredictor(llc_sets=64)
        assert abs(predictor.confidence(0x123)) <= predictor.confidence_range


class TestSDBPPolicy:
    def test_bypasses_dead_streams(self):
        # One PC streams blocks that never repeat: SDBP must learn to
        # bypass them.
        policy = SDBPPolicy(4, 4, SDBPPredictor(4, sampler_sets=4, sampler_ways=4))
        sim = LLCSimulator(policy)
        blocks = list(range(100, 400))
        result = sim.run(stream(blocks))
        assert result.stats.bypasses > 0

    def test_tracks_lru_when_untrained(self):
        policy = SDBPPolicy(4, 4)
        sim = LLCSimulator(policy)
        result = sim.run(stream([0, 4, 8, 12] * 2))
        assert result.stats.hits == 4


class TestPerceptronPredictor:
    def test_feature_indices_in_range(self):
        predictor = PerceptronPredictor(llc_sets=64)
        history = [0x400 + 4 * i for i in range(10)]
        indices = predictor.feature_indices(
            ctx(pc=history[5], block=77, history=history, history_index=5))
        assert len(indices) == 6
        assert all(0 <= i < predictor.table_size for i in indices)

    def test_history_features_differ_with_history(self):
        predictor = PerceptronPredictor(llc_sets=64)
        h1 = [0x100, 0x104, 0x108, 0x10C, 0x110]
        h2 = [0x200, 0x204, 0x208, 0x20C, 0x110]
        i1 = predictor.feature_indices(ctx(pc=0x110, block=7, history=h1,
                                           history_index=4))
        i2 = predictor.feature_indices(ctx(pc=0x110, block=7, history=h2,
                                           history_index=4))
        assert i1[0] == i2[0]          # same current PC
        assert i1[1:4] != i2[1:4]      # different history

    def test_learns_dead_blocks(self):
        predictor = PerceptronPredictor(llc_sets=64, sampler_sets=4,
                                        sampler_ways=4, theta=10)
        for i in range(100):
            predictor.on_llc_access(0, ctx(pc=0x500, block=2000 + i), hit=False)
        confidence = predictor.on_llc_access(
            1, ctx(pc=0x500, block=5000), hit=False)
        assert confidence > 0

    def test_learns_live_blocks(self):
        predictor = PerceptronPredictor(llc_sets=64, sampler_sets=4,
                                        sampler_ways=4, theta=10)
        for _ in range(100):
            predictor.on_llc_access(0, ctx(pc=0x600, block=1), hit=True)
            predictor.on_llc_access(0, ctx(pc=0x600, block=2), hit=True)
        confidence = predictor.on_llc_access(1, ctx(pc=0x600, block=3), hit=False)
        assert confidence < 0

    def test_weights_saturate(self):
        predictor = PerceptronPredictor(llc_sets=64, sampler_sets=4,
                                        sampler_ways=2, theta=1000)
        for i in range(500):
            predictor.on_llc_access(0, ctx(pc=0x700, block=3000 + i), hit=False)
        for table in predictor.tables:
            assert all(-32 <= w <= 31 for w in table)

    def test_theta_stops_training(self):
        """Once confident beyond theta, correct predictions stop training."""
        predictor = PerceptronPredictor(llc_sets=64, sampler_sets=4,
                                        sampler_ways=2, theta=5)
        for i in range(300):
            predictor.on_llc_access(0, ctx(pc=0x800, block=4000 + i), hit=False)
        snapshot = [list(t) for t in predictor.tables]
        for i in range(20):
            predictor.on_llc_access(0, ctx(pc=0x800, block=9000 + i), hit=False)
        # Tables may only change where predictions were weak; with one
        # dominant PC the weights are saturated well past theta.
        assert predictor.tables == snapshot


class TestPerceptronPolicy:
    def test_bypasses_streaming(self):
        policy = PerceptronPolicy(
            4, 4, PerceptronPredictor(4, sampler_sets=4, sampler_ways=4, theta=10))
        sim = LLCSimulator(policy)
        result = sim.run(stream(list(range(100, 500))))
        assert result.stats.bypasses > 0

    def test_behaves_like_lru_untrained(self):
        policy = PerceptronPolicy(4, 4)
        sim = LLCSimulator(policy)
        result = sim.run(stream([0, 4, 8, 12] * 2))
        assert result.stats.hits == 4


class TestOptGen:
    def test_short_reuse_is_opt_hit(self):
        optgen = OptGen(ways=2)
        t0 = optgen.advance()
        optgen.advance()
        assert optgen.access(t0) is True

    def test_capacity_pressure_is_opt_miss(self):
        # ways=1: two interleaved reuses cannot both fit.
        optgen = OptGen(ways=1)
        ta = optgen.advance()          # A
        tb = optgen.advance()          # B
        assert optgen.access(ta) is True   # A reused: occupies [ta, now)
        optgen.advance()
        assert optgen.access(tb) is False  # B's interval is now full

    def test_stale_interval_is_miss(self):
        optgen = OptGen(ways=1, window_factor=2)
        t0 = optgen.advance()
        for _ in range(5):
            optgen.advance()
        assert optgen.access(t0) is False

    def test_negative_time_is_miss(self):
        assert OptGen(ways=4).access(-1) is False


class TestHawkeyePredictor:
    def test_friendly_pc_learned(self):
        predictor = HawkeyePredictor(llc_sets=64, llc_ways=4, sampler_sets=4)
        # Tight reuse: OPT hits, PC trained friendly.
        for _ in range(30):
            predictor.on_llc_access(0, ctx(pc=0x500, block=1), hit=True)
            predictor.on_llc_access(0, ctx(pc=0x500, block=2), hit=True)
        assert predictor.is_friendly(0x500)

    def test_averse_pc_learned(self):
        predictor = HawkeyePredictor(llc_sets=64, llc_ways=2, sampler_sets=4)
        # 8 blocks cycling through a 2-way set: OPT misses most reuses.
        for round_ in range(30):
            for b in range(8):
                predictor.on_llc_access(0, ctx(pc=0x600, block=b), hit=False)
        assert not predictor.is_friendly(0x600)

    def test_detrain_lowers_counter(self):
        predictor = HawkeyePredictor(llc_sets=64, llc_ways=4)
        index = predictor._index(0x700)
        before = predictor.counters[index]
        predictor.detrain(0x700)
        assert predictor.counters[index] == before - 1

    def test_history_pruned(self):
        predictor = HawkeyePredictor(llc_sets=64, llc_ways=2, sampler_sets=4)
        for b in range(10_000):
            predictor.on_llc_access(0, ctx(pc=0x800, block=b), hit=False)
        optgen = predictor._optgens[0]
        assert len(predictor._histories[0]) <= 4 * optgen.window + 1


class TestHawkeyePolicy:
    def test_averse_blocks_evicted_first(self):
        policy = HawkeyePolicy(4, 4)
        sim = LLCSimulator(policy)
        # Mixed workload: hot PC 0x500 reuses 4 blocks; cold PC 0x600
        # streams one-shot blocks through the same sets.
        blocks, pcs = [], []
        hot = [0, 4, 8, 12]
        cold = iter(range(100, 10_000))
        for round_ in range(120):
            for b in hot:
                blocks.append(b)
                pcs.append(0x500)
            for _ in range(2):
                blocks.append(next(cold) * 4)
                pcs.append(0x600)
        result = sim.run(stream(blocks, pcs))
        lru_result = LLCSimulator(LRUPolicy(4, 4)).run(
            stream(blocks, pcs))
        # Hot blocks must survive the cold stream in steady state,
        # which LRU cannot achieve (the cold stream displaces them).
        hawkeye_tail = sum(result.outcomes[-60:])
        lru_tail = sum(lru_result.outcomes[-60:])
        assert hawkeye_tail > lru_tail + 10

    def test_beats_lru_on_thrash_mix(self):
        hot = [0, 4, 8, 12, 16]  # 5 blocks in set 0 (4 sets, 4 ways)
        blocks, pcs = [], []
        for round_ in range(150):
            for b in hot:
                blocks.append(b)
                pcs.append(0x500 + 4 * (b % 4))
        lru_sim = LLCSimulator(LRUPolicy(4, 4))
        lru = lru_sim.run(stream(blocks, pcs))
        hawkeye_sim = LLCSimulator(HawkeyePolicy(4, 4))
        hawkeye = hawkeye_sim.run(stream(blocks, pcs))
        assert lru.stats.hits == 0
        assert hawkeye.stats.hits > 0
