"""Bit-identity tests for the batched Stage-2 replay engine.

The batched kernel path must be a pure strength reduction over K
sequential :class:`~repro.sim.llc.LLCSimulator` replays: identical outcomes,
stats, policy counters, sampler training, and final perceptron
weights, for any mix of feature families (XOR'd and plain, history
depths, single-bit state features) and both default policies.
"""

import random

import pytest

from repro.config import TINY
from repro.core.features import (
    parse_feature_set,
    perturb_feature,
    random_feature_set,
)
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.core.presets import TABLE_1A_SPECS, TABLE_1B_SPECS
from repro.sim.batch import BatchLLCSimulator
from repro.sim.hierarchy import UpperLevels
from repro.sim.llc import LLCSimulator
from repro.sim.single import SingleThreadRunner
from repro.traces.workloads import build_segments

LLC_BYTES = TINY.hierarchy.llc_bytes
WAYS = TINY.hierarchy.llc_ways
NUM_SETS = TINY.hierarchy.llc_sets
ACCESSES = 2_500


@pytest.fixture(scope="module")
def stage1():
    """Stage-1 stream + PC trace for one benchmark segment."""
    segment = build_segments("soplex", LLC_BYTES, ACCESSES)[0]
    upper = UpperLevels(TINY.hierarchy).run(segment.trace)
    return upper, segment.trace


def _configs(seed=7, k=4, default_policy="mdpp"):
    """K candidate configs: two published tables plus random sets."""
    rng = random.Random(seed)
    feature_sets = [
        parse_feature_set(TABLE_1A_SPECS),
        parse_feature_set(TABLE_1B_SPECS),
    ]
    while len(feature_sets) < k:
        feature_sets.append(random_feature_set(rng))
    placements = (15, 13, 10) if default_policy == "mdpp" else (3, 2, 1)
    return [
        MPPPBConfig(features=features, default_policy=default_policy,
                    placements=placements)
        for features in feature_sets[:k]
    ]


def _sequential(upper, trace, config, warmup):
    policy = MPPPBPolicy(NUM_SETS, WAYS, config)
    sim = LLCSimulator(LLC_BYTES, WAYS, policy)
    result = sim.run(upper.llc_stream, pc_trace=trace.pcs, warmup=warmup)
    return result, policy


def _assert_identical(batch_result, batch_policy, seq_result, seq_policy):
    assert batch_result.outcomes == seq_result.outcomes
    assert batch_result.stats == seq_result.stats
    assert batch_result.warm_stats == seq_result.warm_stats
    assert batch_policy.bypasses == seq_policy.bypasses
    assert (batch_policy.promotions_suppressed
            == seq_policy.promotions_suppressed)
    assert (batch_policy.sampler.trainings_live
            == seq_policy.sampler.trainings_live)
    assert (batch_policy.sampler.trainings_dead
            == seq_policy.sampler.trainings_dead)
    assert batch_policy.predictor._weights == seq_policy.predictor._weights


@pytest.mark.parametrize("default_policy", ["mdpp", "srrip"])
@pytest.mark.parametrize("warmup_fraction", [0.0, 0.25])
def test_batch_matches_sequential(stage1, default_policy, warmup_fraction):
    upper, trace = stage1
    warmup = int(len(upper.llc_stream) * warmup_fraction)
    configs = _configs(default_policy=default_policy)
    policies = [MPPPBPolicy(NUM_SETS, WAYS, c) for c in configs]
    batch = BatchLLCSimulator(LLC_BYTES, WAYS, policies)
    results = batch.run(upper.llc_stream, pc_trace=trace.pcs, warmup=warmup)
    assert len(results) == len(configs)
    for config, policy, result in zip(configs, policies, results):
        seq_result, seq_policy = _sequential(upper, trace, config, warmup)
        _assert_identical(result, policy, seq_result, seq_policy)


def test_batch_of_one_and_duplicates(stage1):
    """K=1 and repeated candidates are legal and still exact."""
    upper, trace = stage1
    config = _configs(k=1)[0]
    for k in (1, 3):
        policies = [MPPPBPolicy(NUM_SETS, WAYS, config) for _ in range(k)]
        batch = BatchLLCSimulator(LLC_BYTES, WAYS, policies)
        results = batch.run(upper.llc_stream, pc_trace=trace.pcs, warmup=10)
        seq_result, seq_policy = _sequential(upper, trace, config, 10)
        for policy, result in zip(policies, results):
            _assert_identical(result, policy, seq_result, seq_policy)


def test_batch_many_random_candidates(stage1):
    """A hill-climb-shaped neighborhood: base set plus perturbations."""
    upper, trace = stage1
    rng = random.Random(2017)
    base = list(parse_feature_set(TABLE_1A_SPECS))
    feature_sets = [tuple(base)]
    for _ in range(5):
        mutated = list(base)
        victim = rng.randrange(len(mutated))
        mutated[victim] = perturb_feature(mutated[victim], rng)
        feature_sets.append(tuple(mutated))
    configs = [MPPPBConfig(features=fs) for fs in feature_sets]
    policies = [MPPPBPolicy(NUM_SETS, WAYS, c) for c in configs]
    batch = BatchLLCSimulator(LLC_BYTES, WAYS, policies)
    results = batch.run(upper.llc_stream, pc_trace=trace.pcs, warmup=50)
    for config, policy, result in zip(configs, policies, results):
        seq_result, seq_policy = _sequential(upper, trace, config, 50)
        _assert_identical(result, policy, seq_result, seq_policy)


def test_batch_rejects_non_mpppb():
    from repro.cache.replacement.lru import LRUPolicy

    with pytest.raises(TypeError):
        BatchLLCSimulator(LLC_BYTES, WAYS, [LRUPolicy(NUM_SETS, WAYS)])


def test_batch_rejects_mismatched_geometry():
    config = _configs(k=1)[0]
    wrong = MPPPBPolicy(NUM_SETS * 2, WAYS, config)
    with pytest.raises(ValueError):
        BatchLLCSimulator(LLC_BYTES, WAYS, [wrong])


def test_run_segment_batch_matches_run_segment():
    """The runner-level batch path returns identical SegmentResults."""
    hierarchy = TINY.hierarchy
    runner = SingleThreadRunner(hierarchy, warmup_fraction=0.25)
    segment = build_segments("lbm", LLC_BYTES, ACCESSES)[0]
    configs = _configs(seed=11, k=4)
    batched = runner.run_segment_batch(segment, configs)
    for config, result in zip(configs, batched):
        sequential = runner.run_segment(
            segment, lambda num_sets, ways, c=config: MPPPBPolicy(
                num_sets, ways, c)
        )
        assert result == sequential
