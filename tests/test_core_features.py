"""Tests for the seven parameterized features and their parsing."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.access import AccessContext
from repro.core.features import (
    AddressFeature,
    BiasFeature,
    BurstFeature,
    InsertFeature,
    LastMissFeature,
    OffsetFeature,
    PCFeature,
    parse_feature,
    parse_feature_set,
    perturb_feature,
    random_feature,
    random_feature_set,
    with_associativity,
)
from repro.core.predictor import MultiperspectivePredictor
from repro.core.presets import TABLE_1A_SPECS, TABLE_1B_SPECS, TABLE_2_SPECS
from repro.core.sampler import MultiperspectiveSampler
from repro.sim.batch import _build_programs
from repro.sim.llc import LLCAccess
from repro.sim.roc import _column_indices


def ctx(pc=0x401000, address=0x1234, history=(), history_index=0, **kwargs):
    return AccessContext(
        pc=pc, address=address, block=address >> 6, offset=address & 63,
        pc_history=history, history_index=history_index, **kwargs)


class TestFeatureValidation:
    def test_associativity_range_enforced(self):
        with pytest.raises(ValueError):
            BiasFeature(0, False)
        with pytest.raises(ValueError):
            BiasFeature(19, False)

    def test_pc_depth_range_enforced(self):
        with pytest.raises(ValueError):
            PCFeature(5, False, begin=0, end=7, depth=18)


class TestTableSizes:
    def test_bias_plain_single_weight(self):
        assert BiasFeature(16, False).table_size == 1

    def test_bias_xor_full_table(self):
        assert BiasFeature(6, True).table_size == 256

    def test_single_bit_features(self):
        assert BurstFeature(6, False).table_size == 2
        assert InsertFeature(16, False).table_size == 2
        assert LastMissFeature(9, False).table_size == 2

    def test_offset_size_follows_bits(self):
        assert OffsetFeature(13, False, begin=0, end=4).table_size == 32
        assert OffsetFeature(16, False, begin=0, end=1).table_size == 4

    def test_offset_clamped_to_six_bits(self):
        # offset(15,3,7,0): E=7 exceeds the 6-bit block offset.
        feature = OffsetFeature(15, False, begin=3, end=7)
        assert feature.value_bits == 3  # bits 3..5

    def test_pc_always_256(self):
        assert PCFeature(10, False, begin=1, end=53, depth=10).table_size == 256

    def test_wide_range_folds_to_8_bits(self):
        feature = AddressFeature(9, False, begin=12, end=29)
        assert feature.value_bits == 8


class TestFeatureValues:
    def test_bias_is_zero(self):
        assert BiasFeature(16, False).index(ctx()) == 0

    def test_burst_reads_mru_flag(self):
        feature = BurstFeature(6, False)
        assert feature.index(ctx(is_mru_hit=True)) == 1
        assert feature.index(ctx(is_mru_hit=False)) == 0

    def test_insert_reads_insert_flag(self):
        feature = InsertFeature(16, False)
        assert feature.index(ctx(is_insert=True)) == 1
        assert feature.index(ctx(is_insert=False)) == 0

    def test_lastmiss_reads_set_bit(self):
        feature = LastMissFeature(9, False)
        assert feature.index(ctx(last_was_miss=True)) == 1

    def test_offset_extracts_bits(self):
        feature = OffsetFeature(15, False, begin=1, end=3)
        assert feature.index(ctx(address=0b1010)) == 0b101

    def test_address_extracts_bits(self):
        feature = AddressFeature(11, False, begin=8, end=11)
        assert feature.index(ctx(address=0xA00)) == 0xA

    def test_reversed_range_equivalent(self):
        fwd = AddressFeature(9, False, begin=7, end=11)
        rev = AddressFeature(9, False, begin=11, end=7)
        sample = ctx(address=0xDEAD40)
        assert fwd.index(sample) == rev.index(sample)

    def test_pc_depth_zero_uses_current_pc(self):
        feature = PCFeature(17, False, begin=2, end=9, depth=0)
        a = feature.index(ctx(pc=0x1004))
        b = feature.index(ctx(pc=0x10F0))
        assert a != b

    def test_pc_depth_reads_history(self):
        history = [0x100, 0x200, 0x300, 0x400]
        feature = PCFeature(17, False, begin=0, end=9, depth=2)
        # Current access is history[3]; depth 2 reaches history[1].
        value = feature.index(ctx(pc=0x400, history=history, history_index=3))
        expected = feature.index(ctx(pc=0x200, history=[0x200], history_index=0,
                                     ), )
        # depth-2 on index 3 reads history[1] == 0x200; compare against
        # a depth-0 read of that PC with identical bit slicing.
        depth0 = PCFeature(17, False, begin=0, end=9, depth=0)
        assert value == depth0.index(ctx(pc=0x200))

    def test_pc_history_underflow_yields_zero_pc(self):
        feature = PCFeature(17, False, begin=0, end=9, depth=5)
        value = feature.index(ctx(pc=0x400, history=[0x400], history_index=0))
        depth0 = PCFeature(17, False, begin=0, end=9, depth=0)
        assert value == depth0.index(ctx(pc=0))

    def test_prefetch_history_offset(self):
        # A prefetch's "most recent instruction" is the trigger itself.
        history = [0x100, 0x200]
        feature = PCFeature(17, False, begin=0, end=9, depth=1)
        value = feature.index(ctx(pc=0xFA4E, history=history, history_index=1,
                                  is_prefetch=True))
        depth0 = PCFeature(17, False, begin=0, end=9, depth=0)
        assert value == depth0.index(ctx(pc=0x200))

    def test_xor_mixes_pc(self):
        plain = OffsetFeature(10, False, begin=0, end=5)
        xored = OffsetFeature(10, True, begin=0, end=5)
        sample_a = ctx(pc=0x400, address=0x15)
        sample_b = ctx(pc=0x999C, address=0x15)
        assert plain.index(sample_a) == plain.index(sample_b)
        assert xored.index(sample_a) != xored.index(sample_b)

    def test_indices_within_table(self):
        rng = random.Random(5)
        for _ in range(200):
            feature = random_feature(rng)
            sample = ctx(pc=rng.randrange(1 << 30), address=rng.randrange(1 << 40),
                         history=[rng.randrange(1 << 30) for _ in range(20)],
                         history_index=19,
                         is_insert=bool(rng.random() < 0.5),
                         is_mru_hit=bool(rng.random() < 0.5),
                         last_was_miss=bool(rng.random() < 0.5))
            assert 0 <= feature.index(sample) < feature.table_size


class TestSpecRoundtrip:
    @pytest.mark.parametrize("spec", TABLE_1A_SPECS + TABLE_1B_SPECS + TABLE_2_SPECS)
    def test_published_specs_parse(self, spec):
        feature = parse_feature(spec)
        assert 1 <= feature.associativity <= 18

    def test_roundtrip_canonical(self):
        assert parse_feature("pc(10,1,53,10,0)").spec() == "pc(10,1,53,10,0)"
        assert parse_feature("bias(16,0)").spec() == "bias(16,0)"
        assert parse_feature("offset(15,1,6,1)").spec() == "offset(15,1,6,1)"

    def test_table2_address_quirk(self):
        feature = parse_feature("address(9,9,14,5,1)")
        assert feature.family == "address"
        assert feature.associativity == 9
        assert feature.xor_pc is True
        assert (feature.begin, feature.end) == (9, 14)

    def test_malformed_specs_rejected(self):
        for bad in ("pc", "pc()", "nope(1,0)", "pc(1,2,3,4,5,6,7)", "bias(1,2,3)"):
            with pytest.raises(ValueError):
                parse_feature(bad)

    def test_parse_feature_set_counts(self):
        assert len(parse_feature_set(TABLE_1A_SPECS)) == 16
        assert len(parse_feature_set(TABLE_1B_SPECS)) == 16
        assert len(parse_feature_set(TABLE_2_SPECS)) == 16


class TestSearchHelpers:
    def test_random_feature_set_size(self):
        rng = random.Random(1)
        assert len(random_feature_set(rng)) == 16

    def test_random_features_deterministic(self):
        a = random_feature_set(random.Random(3))
        b = random_feature_set(random.Random(3))
        assert a == b

    def test_with_associativity(self):
        feature = parse_feature("pc(10,1,53,10,0)")
        changed = with_associativity(feature, 3)
        assert changed.associativity == 3
        assert changed.begin == feature.begin

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_perturb_preserves_validity(self, seed):
        rng = random.Random(seed)
        feature = random_feature(rng)
        perturbed = perturb_feature(feature, rng)
        assert 1 <= perturbed.associativity <= 18
        assert perturbed.family == feature.family
        # And the perturbed feature still produces in-range indices.
        assert 0 <= perturbed.index(ctx()) < perturbed.table_size


def _random_ctx(rng):
    history = tuple(rng.getrandbits(48) for _ in range(rng.randint(0, 24)))
    address = rng.getrandbits(48)
    return AccessContext(
        pc=rng.getrandbits(48), address=address,
        block=address >> 6, offset=address & 63,
        is_write=rng.random() < 0.3, is_prefetch=rng.random() < 0.2,
        stream_index=rng.randint(0, 10_000),
        pc_history=history,
        history_index=rng.randint(-2, len(history) + 2),
        is_insert=rng.random() < 0.5, is_mru_hit=rng.random() < 0.5,
        last_was_miss=rng.random() < 0.5,
    )


# One exemplar per family, covering narrow and wide bit ranges, PC
# history depths, and both X settings.
_FAMILY_EXEMPLARS = [
    PCFeature(10, False, begin=1, end=53, depth=0),   # wide, folds
    PCFeature(4, True, begin=2, end=7, depth=3),      # narrow, history
    PCFeature(18, False, begin=0, end=63, depth=17),  # deepest history
    AddressFeature(5, False, begin=6, end=30),
    AddressFeature(12, True, begin=50, end=12),       # reversed range
    BiasFeature(3, False),
    BiasFeature(3, True),
    BurstFeature(7, True),
    InsertFeature(2, False),
    LastMissFeature(9, True),
    OffsetFeature(6, False, begin=1, end=5),
    OffsetFeature(6, True, begin=0, end=5),
]


def _random_stream(rng, n):
    """``n`` random access contexts of one stream, sharing its PC
    history; PCs span all 64 bits, kernel-space ones included."""
    history = tuple(rng.getrandbits(64) for _ in range(rng.randint(0, 24)))
    samples = []
    for i in range(n):
        sample = _random_ctx(rng)
        sample.pc = rng.getrandbits(64)
        sample.stream_index = i
        sample.pc_history = history
        sample.history_index = rng.randint(-2, len(history) + 2)
        samples.append(sample)
    return samples


def _fused(features, samples):
    """The Stage-2 kernel's index path over ``samples``: the static
    slots lowered to columns once for the whole stream, then composed
    with each access's dynamic bits (what ``measure_roc`` reads)."""
    stream = [LLCAccess(pc=c.pc, block=c.block, offset=c.offset,
                        is_write=c.is_write, is_prefetch=c.is_prefetch,
                        mem_index=c.history_index, instr_index=0)
              for c in samples]
    sampler = MultiperspectiveSampler(MultiperspectivePredictor(features),
                                      llc_sets=64, sampler_sets=8)
    return _column_indices(features, sampler, stream,
                           samples[0].pc_history if samples else ())


class TestFusedPipeline:
    """The kernel fuses a feature set into shared lowered columns plus
    per-access dynamic bits; for every feature family and
    parameterization that must produce exactly the indices the
    per-feature ``compile()`` closures produce."""

    @pytest.mark.parametrize(
        "feature", _FAMILY_EXEMPLARS, ids=lambda f: f.spec()
    )
    def test_each_family_matches_compile(self, feature):
        rng = random.Random(hash(feature.spec()) & 0xFFFF)
        samples = _random_stream(rng, 300)
        fused = _fused([feature], samples)
        closure = feature.compile()
        for sample in samples:
            assert fused(sample) == [closure(sample)]

    @pytest.mark.parametrize("specs", [TABLE_1A_SPECS, TABLE_1B_SPECS,
                                       TABLE_2_SPECS],
                             ids=["1a", "1b", "2"])
    def test_published_tables_match_compile(self, specs):
        features = parse_feature_set(specs)
        samples = _random_stream(random.Random(2017), 300)
        fused = _fused(features, samples)
        closures = [f.compile() for f in features]
        for sample in samples:
            assert fused(sample) == [fn(sample) for fn in closures]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_sets_match_compile(self, seed):
        rng = random.Random(seed)
        features = random_feature_set(rng, size=rng.randint(1, 16))
        samples = _random_stream(rng, 50)
        fused = _fused(features, samples)
        closures = [f.compile() for f in features]
        for sample in samples:
            assert fused(sample) == [fn(sample) for fn in closures]

    def test_duplicate_features_share_extractors(self):
        feature = PCFeature(10, True, begin=1, end=53, depth=0)
        [entries], needs_h, slots = _build_programs([[feature] * 3])
        assert needs_h and len(slots) == 1
        assert entries == (("slot", 1),) * 3
        samples = _random_stream(random.Random(5), 20)
        fused = _fused([feature] * 3, samples)
        for sample in samples:
            index = feature.compile()(sample)
            assert fused(sample) == [index, index, index]
