"""Unit and property tests for repro.util.hashing."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.features import _hashed_pc
from repro.util.hashing import combine, hash_to, mix64, skewed_hashes


class TestMix64:
    def test_deterministic(self):
        assert mix64(12345) == mix64(12345)

    def test_distinct_for_nearby_inputs(self):
        outputs = {mix64(i) for i in range(1000)}
        assert len(outputs) == 1000

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_in_64_bit_range(self, value):
        assert 0 <= mix64(value) < (1 << 64)


class TestHashTo:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=20))
    def test_in_range(self, value, width):
        assert 0 <= hash_to(value, width) < (1 << width)

    def test_spreads_aligned_values(self):
        # Cache-block-aligned addresses must not all collide.
        indices = {hash_to(i << 6, 8) for i in range(512)}
        assert len(indices) > 200


class TestCombine:
    def test_order_sensitive(self):
        assert combine(1, 2) != combine(2, 1)

    def test_arity_sensitive(self):
        assert combine(1) != combine(1, 0)

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 32) - 1),
                    min_size=1, max_size=5))
    def test_deterministic(self, values):
        assert combine(*values) == combine(*values)


class TestPcHash:
    """The features' PC hash (``hash_to(pc >> 2, INDEX_BITS)``)."""

    def test_default_width(self):
        assert 0 <= _hashed_pc(0x401234) < 256

    def test_nearby_pcs_spread(self):
        # Memory PCs are typically 4-byte aligned and clustered.
        indices = {_hashed_pc(0x400000 + 4 * i) for i in range(256)}
        assert len(indices) > 150


class TestSkewedHashes:
    def test_count_and_range(self):
        hashes = skewed_hashes(0xABCD, 3, 12)
        assert len(hashes) == 3
        assert all(0 <= h < (1 << 12) for h in hashes)

    def test_tables_disagree(self):
        # The three skewed tables must not use identical index functions.
        a = [skewed_hashes(v, 3, 12) for v in range(100)]
        same01 = sum(1 for h in a if h[0] == h[1])
        same02 = sum(1 for h in a if h[0] == h[2])
        assert same01 < 10 and same02 < 10
