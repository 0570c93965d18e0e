"""Tests for the SHiP extension baseline."""

from repro.cache.access import AccessContext
from repro.cache.replacement.lru import LRUPolicy
from repro.predictors.ship import SHCT, SHiPPolicy
from repro.sim.llc import LLCAccess, LLCSimulator


def stream(blocks, pcs):
    return [
        LLCAccess(pc=pcs[i], block=b, offset=0, is_write=False,
                  is_prefetch=False, mem_index=i, instr_index=4 * i)
        for i, b in enumerate(blocks)
    ]


class TestSHCT:
    def test_initial_counters_predict_reuse(self):
        shct = SHCT()
        assert shct.predicts_reuse(0x400)

    def test_train_dead_flips_prediction(self):
        shct = SHCT()
        shct.train_dead(0x400)
        assert not shct.predicts_reuse(0x400)

    def test_counters_saturate(self):
        shct = SHCT(counter_max=7)
        idx = shct.index(0x400)
        for _ in range(20):
            shct.train_hit(0x400)
        assert shct.counters[idx] == 7
        for _ in range(20):
            shct.train_dead(0x400)
        assert shct.counters[idx] == 0

    def test_index_in_range(self):
        shct = SHCT(table_bits=10)
        assert 0 <= shct.index(0xDEADBEEF) < 1024


class TestSHiPPolicy:
    def test_dead_signature_inserted_distant(self):
        policy = SHiPPolicy(4, 4, sampler_sets=4)
        for _ in range(10):
            policy.shct.train_dead(0x900)
        ctx = AccessContext(pc=0x900, address=0, block=0, offset=0)
        policy.on_fill(0, 1, ctx)
        assert policy._srrip.rrpvs[0][1] == policy._srrip.rrpv_max

    def test_reused_signature_inserted_long(self):
        policy = SHiPPolicy(4, 4, sampler_sets=4)
        ctx = AccessContext(pc=0x500, address=0, block=0, offset=0)
        policy.on_fill(0, 1, ctx)
        assert policy._srrip.rrpvs[0][1] == policy._srrip.insert_rrpv

    def test_learns_streaming_pc(self):
        policy = SHiPPolicy(4, 4, sampler_sets=4)
        sim = LLCSimulator(policy)
        blocks = list(range(400))
        sim.run(stream(blocks, [0x900] * len(blocks)))
        assert not policy.shct.predicts_reuse(0x900)

    def test_hot_pc_stays_reused(self):
        policy = SHiPPolicy(4, 4, sampler_sets=4)
        sim = LLCSimulator(policy)
        blocks = [0, 4, 8] * 200
        sim.run(stream(blocks, [0x500] * len(blocks)))
        assert policy.shct.predicts_reuse(0x500)

    def test_beats_lru_on_mixed_traffic(self):
        # Hot loop + cold stream through the same sets: SHiP keeps the
        # loop resident by inserting the stream distant.
        blocks, pcs = [], []
        cold = iter(range(100, 100_000))
        for _ in range(300):
            for b in (0, 4, 8):
                blocks.append(b)
                pcs.append(0x500)
            for _ in range(2):
                blocks.append(next(cold) * 4)
                pcs.append(0x900)
        ship_sim = LLCSimulator(SHiPPolicy(4, 4, sampler_sets=4))
        ship = ship_sim.run(stream(blocks, pcs))
        lru_sim = LLCSimulator(LRUPolicy(4, 4))
        lru = lru_sim.run(stream(blocks, pcs))
        assert ship.stats.hits > lru.stats.hits

    def test_registry_exposes_ship(self):
        from repro.policies import make_policy

        policy = make_policy("ship", 64, 16)
        assert isinstance(policy, SHiPPolicy)
