"""Tests for the holdout (SPEC CPU 2017 analog) suite and ShuffledLoop."""

import random

import pytest

from repro.traces.holdout import (
    build_holdout_segments,
    build_holdout_suite,
    holdout_names,
)
from repro.traces.synth import ShuffledLoop
from repro.traces.workloads import benchmark_names, build_segments

LLC = 512 * 1024


class TestShuffledLoop:
    def _take(self, kernel, n, seed=1):
        columns = ([], [], [], [], [])
        writer = kernel.writer(random.Random(seed), columns)
        next(writer)
        writer.send(n)
        return list(zip(*columns[:4]))

    def test_covers_whole_loop(self):
        kernel = ShuffledLoop(base=0, size=64 * 64, touches_per_block=1)
        records = self._take(kernel, 64)
        blocks = {rec[1] >> 6 for rec in records}
        assert len(blocks) == 64

    def test_same_order_every_pass(self):
        kernel = ShuffledLoop(base=0, size=32 * 64, touches_per_block=1)
        records = self._take(kernel, 64)
        first = [rec[1] >> 6 for rec in records[:32]]
        second = [rec[1] >> 6 for rec in records[32:]]
        assert first == second

    def test_order_is_shuffled(self):
        kernel = ShuffledLoop(base=0, size=256 * 64, touches_per_block=1)
        records = self._take(kernel, 256)
        blocks = [rec[1] >> 6 for rec in records]
        deltas = [b - a for a, b in zip(blocks, blocks[1:])]
        sequential = sum(1 for d in deltas if d == 1)
        assert sequential < 32  # a stream prefetcher cannot latch on

    def test_addresses_stay_in_region(self):
        kernel = ShuffledLoop(base=0x1000, size=16 * 64)
        for rec in self._take(kernel, 200):
            assert 0x1000 <= rec[1] < 0x1000 + 16 * 64

    def test_deterministic_across_rngs_with_same_seed(self):
        kernel = ShuffledLoop(base=0, size=32 * 64)
        assert self._take(kernel, 50, seed=9) == self._take(kernel, 50, seed=9)


class TestHoldoutSuite:
    def test_names_disjoint_from_main_suite(self):
        assert not set(holdout_names()) & set(benchmark_names())

    def test_has_twelve_benchmarks(self):
        assert len(holdout_names()) == 12

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_holdout_segments("nope", LLC, 100)

    def test_segments_materialize(self):
        segments = build_holdout_segments("mcf_17", LLC, accesses=500)
        assert len(segments) == 1
        assert len(segments[0].trace) == 500

    def test_deterministic(self):
        a = build_holdout_segments("gcc_17", LLC, 300)[0].trace
        b = build_holdout_segments("gcc_17", LLC, 300)[0].trace
        assert a.addresses == b.addresses

    def test_address_space_disjoint_from_main_suite(self):
        holdout = build_holdout_segments("mcf_17", LLC, 300)[0].trace
        main = build_segments("mcf", LLC, 300)[0].trace
        holdout_regions = {a >> 40 for a in holdout.addresses}
        main_regions = {a >> 40 for a in main.addresses}
        assert not holdout_regions & main_regions

    def test_build_suite_subset(self):
        suite = build_holdout_suite(LLC, 200, names=["lbm_17", "xz_17"])
        assert set(suite) == {"lbm_17", "xz_17"}

    def test_streaming_holdout_exceeds_llc(self):
        trace = build_holdout_segments("lbm_17", LLC, 20_000)[0].trace
        footprint = len({a >> 6 for a in trace.addresses}) * 64
        assert footprint > LLC
