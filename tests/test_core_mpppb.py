"""Tests for the MPPPB policy: bypass, placement, promotion, end-to-end."""

import pytest

from repro.cache.access import AccessContext
from repro.cache.replacement.lru import LRUPolicy
from repro.core.features import BiasFeature, parse_feature_set
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.core.presets import (
    TABLE_1A_SPECS,
    multi_programmed_config,
    single_thread_config,
)
from repro.sim.llc import LLCAccess, LLCSimulator


def stream(blocks, pcs=None):
    pcs = pcs or [0x400] * len(blocks)
    return [
        LLCAccess(pc=pcs[i], block=b, offset=0, is_write=False,
                  is_prefetch=False, mem_index=i, instr_index=4 * i)
        for i, b in enumerate(blocks)
    ]


def minimal_config(**overrides):
    defaults = dict(
        features=(BiasFeature(18, False),),
        default_policy="mdpp",
        tau_bypass=20,
        taus=(15, 10, 5),
        placements=(15, 13, 10),
        tau_no_promote=18,
        sampler_sets=4,
        theta=40,
    )
    defaults.update(overrides)
    return MPPPBConfig(**defaults)


class TestMPPPBConfig:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            minimal_config(taus=(5, 10, 15))

    def test_bypass_must_dominate(self):
        with pytest.raises(ValueError):
            minimal_config(tau_bypass=0, taus=(15, 10, 5))

    def test_default_policy_validated(self):
        with pytest.raises(ValueError):
            minimal_config(default_policy="fifo")

    def test_from_specs(self):
        config = MPPPBConfig(features=parse_feature_set(TABLE_1A_SPECS))
        assert len(config.features) == 16

    def test_with_features(self):
        config = minimal_config()
        other = config.with_features([BiasFeature(6, False)])
        assert other.features[0].associativity == 6
        assert other.tau_bypass == config.tau_bypass

    def test_placements_validated_against_policy(self):
        config = minimal_config(default_policy="srrip", placements=(15, 13, 10))
        with pytest.raises(ValueError):
            MPPPBPolicy(16, 16, config)


class TestMPPPBPolicyMechanics:
    def _policy(self, **overrides):
        return MPPPBPolicy(16, 16, minimal_config(**overrides))

    def _ctx(self, block=0, pc=0x400, **kwargs):
        return AccessContext(pc=pc, address=block << 6, block=block, offset=0,
                             **kwargs)

    def test_bypass_above_tau0(self):
        policy = self._policy()
        policy._confidence = 25
        assert policy.should_bypass(0, self._ctx()) is True
        assert policy.bypasses == 1

    def test_no_bypass_below_tau0(self):
        policy = self._policy()
        policy._confidence = 15
        assert policy.should_bypass(0, self._ctx()) is False

    def test_placement_cascade(self):
        policy = self._policy()
        expectations = [(18, 15), (12, 13), (7, 10), (0, 0), (-50, 0)]
        for confidence, position in expectations:
            policy._confidence = confidence
            policy.on_fill(0, 3, self._ctx())
            assert policy.default.position(0, 3) == position, confidence

    def test_promotion_suppressed_above_tau4(self):
        policy = self._policy()
        policy._confidence = 0
        policy.on_fill(0, 3, self._ctx())       # placed at MRU = 0
        policy.default.place(0, 3, 12)           # pretend it drifted down
        policy._confidence = 19                  # > tau_no_promote = 18
        policy.on_hit(0, 3, self._ctx())
        assert policy.default.position(0, 3) == 12
        assert policy.promotions_suppressed == 1

    def test_promotion_applies_below_tau4(self):
        policy = self._policy()
        policy.default.place(0, 3, 12)
        policy._confidence = 0
        policy.on_hit(0, 3, self._ctx())
        assert policy.default.position(0, 3) <= 1  # MDPP promote target

    def test_srrip_variant_places_rrpv(self):
        config = minimal_config(default_policy="srrip", placements=(3, 3, 2))
        policy = MPPPBPolicy(16, 16, config)
        policy._confidence = 18
        policy.on_fill(0, 5, self._ctx())
        assert policy.default.rrpvs[0][5] == 3
        policy._confidence = -10
        policy.on_fill(0, 6, self._ctx())
        assert policy.default.rrpvs[0][6] == 0

    def test_storage_bits_reported(self):
        policy = self._policy()
        assert policy.storage_bits() > 0


class TestMPPPBEndToEnd:
    def _run(self, blocks, pcs=None, config=None, sets=16, ways=16):
        config = config or minimal_config(sampler_sets=8)
        policy = MPPPBPolicy(sets, ways, config)
        sim = LLCSimulator(policy)
        return sim.run(stream(blocks, pcs)), policy

    def test_published_config_runs(self):
        config = single_thread_config("a", sampler_sets=8)
        blocks = [i % 64 for i in range(500)]
        result, policy = self._run(blocks, config=config)
        assert result.stats.accesses == 500

    def test_multi_programmed_config_runs(self):
        config = multi_programmed_config(sampler_sets=8)
        blocks = [i % 64 for i in range(500)]
        result, policy = self._run(blocks, config=config)
        assert result.stats.accesses == 500

    def test_learns_to_bypass_streaming(self):
        """A pure stream (no reuse) must eventually be bypassed."""
        config = single_thread_config("a", sampler_sets=16, theta=40)
        blocks = list(range(4000))
        pcs = [0x400] * len(blocks)
        result, policy = self._run(blocks, pcs, config=config)
        assert result.stats.bypasses > 100

    def test_does_not_bypass_hot_loop(self):
        """A small loop that always hits must never be bypassed."""
        config = single_thread_config("a", sampler_sets=16)
        blocks = [i % 32 for i in range(3000)]
        result, policy = self._run(blocks, config=config)
        tail_hits = sum(result.outcomes[-500:])
        assert tail_hits == 500

    def test_beats_lru_on_scan_plus_loop(self):
        """The headline behavior: protect the loop, sacrifice the scan."""
        blocks = []
        pcs = []
        scan_cursor = 10_000
        # Loop of 20 blocks/set-group + interleaved one-shot scan.
        for round_ in range(120):
            for k in range(24):
                blocks.append(k * 16)         # 24 blocks over 16 sets... set 0
                pcs.append(0x400 + 4 * (k % 8))
            for _ in range(10):
                blocks.append(scan_cursor * 16)
                pcs.append(0x900)
                scan_cursor += 1
        config = single_thread_config("a", sampler_sets=16)
        mp_result, _ = self._run(blocks, pcs, config=config)
        lru_policy = LRUPolicy(16, 16)
        lru_sim = LLCSimulator(lru_policy)
        lru_result = lru_sim.run(stream(blocks, pcs))
        assert mp_result.stats.misses < lru_result.stats.misses
