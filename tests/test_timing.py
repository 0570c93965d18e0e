"""Tests for the analytic out-of-order timing model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.timing import TimingConfig, TimingModel, TimingResult


def simulate(events, instructions, **cfg):
    return TimingModel(TimingConfig(**cfg)).simulate(events, instructions)


class TestTimingConfig:
    def test_defaults_match_paper(self):
        config = TimingConfig()
        assert config.width == 4
        assert config.window == 128
        assert config.dram_latency == 200

    def test_llc_miss_latency(self):
        assert TimingConfig().llc_miss_latency == 230

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            TimingConfig(width=0)


class TestTimingModel:
    def test_compute_bound_ipc_equals_width(self):
        result = simulate([], instructions=4000)
        assert result.ipc == pytest.approx(4.0)

    def test_single_miss_adds_latency(self):
        result = simulate([(0, 230)], instructions=400)
        assert result.cycles == pytest.approx(230.0)

    def test_hit_hidden_under_frontend(self):
        # A 3-cycle L1 hit at instruction 0 finishes long before the
        # front end retires 4000 instructions.
        result = simulate([(0, 3)], instructions=4000)
        assert result.cycles == pytest.approx(1000.0)

    def test_independent_misses_within_window_overlap(self):
        # Two misses 10 instructions apart: second dispatches before the
        # first completes, so total is ~one latency, not two.
        result = simulate([(0, 230), (10, 230)], instructions=300)
        assert result.cycles < 300

    def test_misses_beyond_window_serialize(self):
        # Misses 200 instructions apart (window 128): the second cannot
        # dispatch until the first retires.
        result = simulate([(0, 230), (200, 230)], instructions=300)
        assert result.cycles >= 460

    def test_window_boundary_exact(self):
        # A 128-entry window holds instructions 0..127 together, so a
        # load at index 127 overlaps with one at index 0, while a load
        # at index 128 must wait for instruction 0 to retire.
        cycles_inside = simulate([(0, 230), (127, 230)], instructions=200).cycles
        cycles_outside = simulate([(0, 230), (128, 230)], instructions=200).cycles
        assert cycles_outside > cycles_inside

    def test_mlp_chain_of_overlapping_misses(self):
        # 8 misses each 16 instructions apart all fit in one window.
        events = [(16 * i, 230) for i in range(8)]
        result = simulate(events, instructions=400)
        assert result.cycles < 2 * 230 + 100

    def test_ipc_zero_cycles_guard(self):
        assert TimingResult(cycles=0.0, instructions=0).ipc == 0.0

    def test_more_misses_never_faster(self):
        base_events = [(i * 50, 12) for i in range(10)]
        slow_events = [(i * 50, 230) for i in range(10)]
        fast = simulate(base_events, instructions=1000)
        slow = simulate(slow_events, instructions=1000)
        assert slow.cycles >= fast.cycles

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=10_000),
                              st.sampled_from([3, 12, 30, 230])),
                    max_size=50))
    def test_cycles_at_least_frontend_bound(self, raw_events):
        events = sorted(raw_events)
        instructions = 10_001
        result = simulate(events, instructions=instructions)
        assert result.cycles >= instructions / 4

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=40))
    def test_latency_monotonicity(self, indices):
        """Raising any access latency never reduces total cycles."""
        indices = sorted(indices)
        fast = simulate([(i, 30) for i in indices], instructions=5001)
        slow = simulate([(i, 230) for i in indices], instructions=5001)
        assert slow.cycles >= fast.cycles


class TestSimulatePacked:
    def test_empty_columns(self):
        model = TimingModel(TimingConfig())
        assert (model.simulate_packed([], [], [], 400)
                == model.simulate([], 400))
