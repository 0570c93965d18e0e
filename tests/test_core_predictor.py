"""Tests for weight tables, the multiperspective predictor, and sampler."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.access import AccessContext
from repro.core.features import (
    BiasFeature,
    InsertFeature,
    OffsetFeature,
    PCFeature,
    parse_feature_set,
)
from repro.core.predictor import (
    CONFIDENCE_MAX,
    CONFIDENCE_MIN,
    MultiperspectivePredictor,
)
from repro.core.presets import TABLE_1A_SPECS, table_1b_features
from repro.core.sampler import MultiperspectiveSampler
from repro.core.tables import WEIGHT_MAX, WEIGHT_MIN, WeightTable


def ctx(pc=0x401000, block=0x1000, **kwargs):
    return AccessContext(pc=pc, address=block << 6, block=block, offset=0,
                         **kwargs)


class TestWeightTable:
    def test_starts_zeroed(self):
        table = WeightTable(4)
        assert table.weights == [0, 0, 0, 0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightTable(0)

    def test_increment_saturates_at_31(self):
        table = WeightTable(1)
        for _ in range(100):
            table.increment(0)
        assert table.read(0) == WEIGHT_MAX == 31

    def test_decrement_saturates_at_minus_32(self):
        table = WeightTable(1)
        for _ in range(100):
            table.decrement(0)
        assert table.read(0) == WEIGHT_MIN == -32

    def test_reset(self):
        table = WeightTable(2)
        table.increment(1)
        table.reset()
        assert table.weights == [0, 0]

    def test_storage_bits(self):
        assert WeightTable(256).storage_bits() == 1536

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 3)), max_size=200))
    def test_weights_always_in_range(self, operations):
        table = WeightTable(4)
        for up, index in operations:
            (table.increment if up else table.decrement)(index)
        assert all(WEIGHT_MIN <= w <= WEIGHT_MAX for w in table.weights)


class TestMultiperspectivePredictor:
    def _simple(self):
        return MultiperspectivePredictor([
            BiasFeature(16, False),
            InsertFeature(16, False),
            OffsetFeature(10, False, begin=0, end=5),
        ])

    def test_rejects_empty_features(self):
        with pytest.raises(ValueError):
            MultiperspectivePredictor([])

    def test_tables_sized_per_feature(self):
        predictor = self._simple()
        assert [len(t) for t in predictor.tables] == [1, 2, 64]

    def test_initial_prediction_is_zero(self):
        predictor = self._simple()
        assert predictor.predict(predictor.indices(ctx())) == 0

    def test_prediction_sums_weights(self):
        predictor = self._simple()
        indices = predictor.indices(ctx(is_insert=True))
        predictor.tables[0].weights[indices[0]] = 5
        predictor.tables[1].weights[indices[1]] = -2
        predictor.tables[2].weights[indices[2]] = 7
        assert predictor.predict(indices) == 10

    def test_confidence_saturates_to_9_bits(self):
        features = parse_feature_set(TABLE_1A_SPECS)
        predictor = MultiperspectivePredictor(features)
        sample = ctx()
        indices = predictor.indices(sample)
        for table, index in zip(predictor.tables, indices):
            table.weights[index] = WEIGHT_MAX
        assert predictor.predict(indices) == CONFIDENCE_MAX == 255
        for table, index in zip(predictor.tables, indices):
            table.weights[index] = WEIGHT_MIN
        assert predictor.predict(indices) == CONFIDENCE_MIN == -256

    def test_train_live_and_dead(self):
        predictor = self._simple()
        predictor.train_dead(0, 0)
        assert predictor.tables[0].read(0) == 1
        predictor.train_live(0, 0)
        assert predictor.tables[0].read(0) == 0

    def test_associativities_exposed(self):
        predictor = self._simple()
        assert predictor.associativities == (16, 16, 10)

    def test_reset(self):
        predictor = self._simple()
        predictor.train_dead(1, 1)
        predictor.reset()
        assert all(w == 0 for t in predictor.tables for w in t.weights)

    def test_storage_accounting_table_1b(self):
        """Sanity-check the Section 4.4 budget: tables are a few KB."""
        predictor = MultiperspectivePredictor(table_1b_features())
        kib = predictor.storage_bits() / 8 / 1024
        assert 1.0 < kib < 4.0   # the paper reports 2.64 KB for 1(b)


class TestMultiperspectiveSampler:
    def _setup(self, features=None, theta=40, ways=18, sampler_sets=4):
        predictor = MultiperspectivePredictor(features or [
            BiasFeature(16, False),
            InsertFeature(4, False),
            PCFeature(18, False, begin=0, end=9, depth=0),
        ])
        sampler = MultiperspectiveSampler(
            predictor, llc_sets=64, sampler_sets=sampler_sets,
            ways=ways, theta=theta)
        return predictor, sampler

    def _observe(self, sampler, set_idx, sample):
        indices = sampler.predictor.indices(sample)
        confidence = sampler.predictor.predict(indices)
        sampler.observe(set_idx, sample, indices, confidence)

    def test_unsampled_set_ignored(self):
        predictor, sampler = self._setup()
        self._observe(sampler, 1, ctx(block=5))  # set 1 is unsampled
        assert all(not entries for entries in sampler._sets)

    def test_insertion_fills_sampler(self):
        predictor, sampler = self._setup()
        self._observe(sampler, 0, ctx(block=5))
        assert len(sampler._sets[0]) == 1

    def test_reuse_trains_live_within_associativity(self):
        predictor, sampler = self._setup()
        sample = ctx(block=5, pc=0x400)
        self._observe(sampler, 0, sample)
        self._observe(sampler, 0, sample)  # immediate reuse at position 0
        # All three features have A > 0, so all train live (decrement).
        assert all(any(w < 0 for w in t.weights) for t in predictor.tables)
        assert sampler.trainings_live == 3

    def test_reuse_beyond_feature_associativity_not_trained_live(self):
        # insert has A=4: a reuse at position >= 4 must not train it.
        predictor, sampler = self._setup()
        target = ctx(block=99, pc=0x500)
        self._observe(sampler, 0, target)
        for filler in range(5):  # demote target to position 5
            self._observe(sampler, 0, ctx(block=200 + filler, pc=0x600))
        live_before = sampler.trainings_live
        self._observe(sampler, 0, target)  # reuse at position 5
        # bias (A=16) and pc (A=18) train live; insert (A=4) must not.
        assert sampler.trainings_live == live_before + 2

    def test_demotion_past_associativity_trains_dead(self):
        # insert has A=4; pushing a block from position 3 to 4 trains it dead.
        predictor, sampler = self._setup()
        self._observe(sampler, 0, ctx(block=1, pc=0x700, is_insert=True))
        dead_before = sampler.trainings_dead
        for filler in range(4):
            self._observe(sampler, 0, ctx(block=50 + filler, pc=0x710))
        assert sampler.trainings_dead > dead_before
        # The insert table's "1" weight took the dead increments.
        insert_table = predictor.tables[1]
        assert insert_table.read(1) > 0

    def test_eviction_equals_demotion_to_ways(self):
        predictor, sampler = self._setup(ways=4, features=[
            BiasFeature(4, False)])  # A == sampler ways
        dead_before = sampler.trainings_dead
        for block in range(5):  # fifth insertion evicts the first
            self._observe(sampler, 0, ctx(block=block, pc=0x720))
        assert sampler.trainings_dead == dead_before + 1
        assert len(sampler._sets[0]) == 4

    def test_theta_gates_confident_correct_predictions(self):
        predictor, sampler = self._setup(theta=5)
        # Saturate the bias weight to "dead" far beyond theta.
        predictor.tables[0].weights[0] = 31
        predictor.tables[1].weights[0] = 31
        predictor.tables[1].weights[1] = 31
        pc_table = predictor.tables[2]
        for i in range(len(pc_table)):
            pc_table.weights[i] = 31
        snapshot = [list(t.weights) for t in predictor.tables]
        # Stream of dead blocks, confidently predicted dead: no training.
        for block in range(30):
            self._observe(sampler, 0, ctx(block=1000 + block, pc=0x730))
        assert [list(t.weights) for t in predictor.tables] == snapshot

    def test_occupancy_capped_at_ways(self):
        predictor, sampler = self._setup(ways=6)
        for block in range(50):
            self._observe(sampler, 0, ctx(block=block))
        assert len(sampler._sets[0]) == 6

    def test_lru_order_maintained(self):
        predictor, sampler = self._setup()
        a, b = ctx(block=1), ctx(block=2)
        self._observe(sampler, 0, a)
        self._observe(sampler, 0, b)
        self._observe(sampler, 0, a)  # a back to MRU
        from repro.predictors.base import partial_tag
        tags = [e.tag for e in sampler._sets[0]]
        assert tags == [partial_tag(1), partial_tag(2)]

    def test_storage_bits_positive(self):
        predictor, sampler = self._setup()
        assert sampler.storage_bits() > 0

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300))
    def test_weights_bounded_under_random_traffic(self, blocks):
        predictor, sampler = self._setup()
        for i, block in enumerate(blocks):
            sample = ctx(block=block, pc=0x400 + 4 * (block % 7))
            self._observe(sampler, 0, sample)
        for table in predictor.tables:
            assert all(WEIGHT_MIN <= w <= WEIGHT_MAX for w in table.weights)
