"""Tests for the feature design-space exploration (Section 5.1)."""

import random

import pytest

from repro.core.features import random_feature_set
from repro.core.presets import table_1a_features
from repro.policies import policy_factory
from repro.search import evaluator as evaluator_mod
from repro.search.evaluator import FeatureSetEvaluator
from repro.search.hillclimb import hill_climb
from repro.search.random_search import mpki_distribution, random_search
from repro.sim.hierarchy import HierarchyConfig
from repro.traces.workloads import all_segments

SMALL = HierarchyConfig(l1_kib=4, l1_ways=4, l2_kib=16, l2_ways=8,
                        llc_kib=64, llc_ways=16)


@pytest.fixture(scope="module")
def evaluator():
    segments = all_segments(SMALL.llc_bytes, accesses=2500,
                            names=["soplex", "lbm"])
    return FeatureSetEvaluator(segments, SMALL)


class TestEvaluator:
    def test_rejects_empty_segments(self):
        with pytest.raises(ValueError):
            FeatureSetEvaluator([], SMALL)

    def test_returns_positive_mpki(self, evaluator):
        mpki = evaluator.evaluate(table_1a_features())
        assert mpki > 0

    def test_deterministic_and_cached(self, evaluator):
        features = table_1a_features()
        first = evaluator.evaluate(features)
        count = evaluator.evaluations
        second = evaluator.evaluate(features)
        assert first == second
        assert evaluator.evaluations == count  # cache hit, no rerun

    def test_baseline_mpki(self, evaluator):
        lru = evaluator.baseline_mpki(policy_factory("lru"))
        opt = evaluator.baseline_mpki(policy_factory("min"))
        assert opt <= lru


class TestBatchedEvaluation:
    """evaluate_many routes through the shared-context batch engine."""

    def _fresh(self, **kwargs):
        segments = all_segments(SMALL.llc_bytes, accesses=2500,
                                names=["soplex", "lbm"])
        return FeatureSetEvaluator(segments, SMALL, **kwargs)

    def _candidates(self, seed, count):
        rng = random.Random(seed)
        return [random_feature_set(rng) for _ in range(count)]

    def test_batch_on_off_identical(self):
        """A batched generation scores exactly like candidates evaluated
        one at a time."""
        candidates = self._candidates(11, 5)
        single = self._fresh()
        sequential = [single.evaluate(features) for features in candidates]
        batched = self._fresh().evaluate_many(candidates)
        assert batched == sequential

    def test_batch_size_limits_replay_width(self, monkeypatch):
        monkeypatch.setattr(evaluator_mod, "SEARCH_BATCH", 2)
        evaluator = self._fresh()
        widths = []
        original = evaluator.runner.run_segment_batch

        def spy(segment, configs):
            widths.append(len(configs))
            return original(segment, configs)

        evaluator.runner.run_segment_batch = spy
        values = evaluator.evaluate_many(self._candidates(3, 5))
        assert len(values) == 5
        assert evaluator.evaluations == 5
        # 5 candidates -> two batches of 2 and a batch of one, each
        # replayed once per segment; a lone candidate takes the same
        # path as a batch.
        segments = len(evaluator.segments)
        assert widths == [2] * segments + [2] * segments + [1] * segments

    def test_evaluate_batch_memoizes(self):
        evaluator = self._fresh()
        candidates = self._candidates(5, 3)
        first = evaluator.evaluate_batch(candidates)
        count = evaluator.evaluations
        assert evaluator.evaluate_batch(candidates) == first
        assert evaluator.evaluations == count
        # evaluate() sees the same memo the batch path filled.
        assert evaluator.evaluate(candidates[0]) == first[0]
        assert evaluator.evaluations == count


class TestRandomSearch:
    def test_sorted_ascending(self, evaluator):
        candidates = random_search(evaluator, num_sets=4, seed=3)
        mpkis = [c.mpki for c in candidates]
        assert mpkis == sorted(mpkis)
        assert all(len(c.features) == 16 for c in candidates)

    def test_rejects_zero(self, evaluator):
        with pytest.raises(ValueError):
            random_search(evaluator, num_sets=0)

    def test_distribution_descending(self, evaluator):
        candidates = random_search(evaluator, num_sets=4, seed=3)
        series = mpki_distribution(candidates)
        assert series == sorted(series, reverse=True)

    def test_deterministic(self, evaluator):
        a = random_search(evaluator, num_sets=3, seed=9)
        b = random_search(evaluator, num_sets=3, seed=9)
        assert [c.mpki for c in a] == [c.mpki for c in b]


class TestHillClimb:
    def test_never_worse_than_start(self, evaluator):
        start = random_feature_set(random.Random(5))
        start_mpki = evaluator.evaluate(start)
        result = hill_climb(evaluator, start, steps=6, seed=7)
        assert result.mpki <= start_mpki

    def test_history_monotone_nonincreasing(self, evaluator):
        start = random_feature_set(random.Random(6))
        result = hill_climb(evaluator, start, steps=6, seed=8)
        assert all(a >= b for a, b in zip(result.history, result.history[1:]))

    def test_zero_steps(self, evaluator):
        start = table_1a_features()
        result = hill_climb(evaluator, start, steps=0)
        assert result.features == start
        assert result.steps_taken == 0

    def test_patience_stops_early(self, evaluator):
        start = table_1a_features()
        result = hill_climb(evaluator, start, steps=50, seed=1, patience=2)
        assert result.steps_taken <= 50

    def test_rejects_negative_steps(self, evaluator):
        with pytest.raises(ValueError):
            hill_climb(evaluator, table_1a_features(), steps=-1)
