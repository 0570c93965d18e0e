"""Unit and property tests for the bit-level operations of the model.

``repro.util.bits`` keeps :func:`saturate`.  The other operations have
one owner each, tested here on that owner: a feature's bit-range read
(range normalization, slicing, xor-folding) is
:mod:`repro.core.features`', and the block/offset split of an address
is Stage 1's (:class:`repro.sim.hierarchy.UpperLevels`).
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.config import TINY
from repro.core.features import (
    BLOCK_OFFSET_BITS,
    _normalize_range,
    _slice_and_fold,
)
from repro.sim.hierarchy import UpperLevels
from repro.traces.trace import Trace
from repro.util.bits import saturate


def extract_range(value, begin, end, bits=64):
    """Bits ``begin``..``end`` of ``value`` as a pc/address feature reads
    them: the published range normalized to 0..63, sliced, folded to
    ``bits``."""
    return _slice_and_fold(*_normalize_range(begin, end, 63), bits)(value)


def fold(value, width):
    """``value`` xor-folded down to ``width`` bits."""
    return _slice_and_fold(0, 63, width)(value)


def llc_demands(addresses):
    """``(address, block, offset)`` of every demand LLC access Stage 1
    emits for a load trace over ``addresses``."""
    trace = Trace.from_accesses(
        "bits", [(0x400, address, False, 0) for address in addresses])
    stream = UpperLevels(TINY.hierarchy, prefetch=False).run(trace).llc_stream
    return [(addresses[mem], block, offset)
            for mem, block, offset in zip(stream.mem_index.tolist(),
                                          stream.block.tolist(),
                                          stream.offset.tolist())]


class TestBit:
    def test_low_bit(self):
        assert extract_range(0b1011, 0, 0, bits=8) == 1
        assert extract_range(0b1011, 2, 2, bits=8) == 0

    def test_high_bit(self):
        assert extract_range(1 << 63, 63, 63, bits=8) == 1


class TestExtractBits:
    def test_simple_range(self):
        assert extract_range(0b11010110, 1, 3) == 0b011

    def test_single_bit_range(self):
        assert extract_range(0b100, 2, 2) == 1

    def test_reversed_endpoints_normalized(self):
        # The published feature tables contain ranges with begin > end,
        # e.g. pc(9,11,7,16,0); both orders must agree.
        assert extract_range(0xDEADBEEF, 11, 7) == extract_range(0xDEADBEEF, 7, 11)

    def test_clamped_to_64_bits(self):
        assert extract_range(0xFFFF, 0, 200) == 0xFFFF

    def test_negative_lo_clamped(self):
        assert extract_range(0b101, -3, 2) == 0b101

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=63),
           st.integers(min_value=0, max_value=63))
    def test_extract_matches_shift_mask(self, value, a, b):
        lo, hi = min(a, b), max(a, b)
        expected = (value >> lo) & ((1 << (hi - lo + 1)) - 1)
        assert extract_range(value, a, b) == expected


class TestFold:
    def test_identity_when_value_fits(self):
        assert fold(0b101, 8) == 0b101

    def test_folds_high_bits(self):
        # 0x1_00 folded to 8 bits XORs the carry bit back in.
        assert fold(0x100, 8) == 0x1

    def test_width_one(self):
        # Parity of all bits.
        assert fold(0b1011, 1) == 1
        assert fold(0b1111, 1) == 0

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=16))
    def test_result_in_range(self, value, width):
        assert 0 <= fold(value, width) < (1 << width)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=1, max_value=16))
    def test_deterministic(self, value, width):
        # The second read is the extractor's memo hit.
        extract = _slice_and_fold(0, 63, width)
        assert extract(value) == extract(value)


class TestSaturate:
    def test_within(self):
        assert saturate(5, -32, 31) == 5

    def test_clamps_low(self):
        assert saturate(-100, -32, 31) == -32

    def test_clamps_high(self):
        assert saturate(100, -32, 31) == 31

    @given(st.integers(), st.integers(min_value=-64, max_value=0),
           st.integers(min_value=1, max_value=64))
    def test_always_in_range(self, value, lo, hi):
        assert lo <= saturate(value, lo, hi) <= hi


class TestBlockAddressing:
    def test_block_address_strips_offset(self):
        [(_, block, _)] = llc_demands([0x1234])
        assert block == 0x1234 >> 6

    def test_block_offset(self):
        [(_, _, offset)] = llc_demands([0x1234])
        assert offset == 0x34

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 48) - 1),
                    min_size=1, max_size=20))
    def test_reconstruction(self, addresses):
        demands = llc_demands(addresses)
        assert demands
        for address, block, offset in demands:
            assert (block << BLOCK_OFFSET_BITS) | offset == address
