"""Tests for the result-formatting module."""

import pytest

from repro.report import (
    format_table,
    mpki_table,
    speedup_table,
    weighted_speedup_summary,
)
from repro.sim.single import BenchmarkResult, SegmentResult


def bench_result(name, ipc, mpki):
    segment = SegmentResult(
        segment_name=f"{name}.p0", weight=1.0, ipc=ipc, mpki=mpki,
        llc_accesses=100, llc_hits=50, llc_misses=50, llc_bypasses=0,
        demand_misses=50, instructions=1000,
    )
    return BenchmarkResult(benchmark=name, segments=(segment,))


class TestFormatTable:
    def test_alignment(self):
        table = format_table(["name", "value"], [["x", 1.5], ["long", 2.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_precision(self):
        table = format_table(["v"], [[1.23456]], precision=2)
        assert "1.23" in table

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table and "b" in table


class TestSpeedupTable:
    def _results(self):
        return {
            "lru": {"x": bench_result("x", 1.0, 10.0),
                    "y": bench_result("y", 2.0, 5.0)},
            "mpppb": {"x": bench_result("x", 1.2, 8.0),
                      "y": bench_result("y", 2.2, 4.0)},
        }

    def test_contains_speedups_and_geomean(self):
        table = speedup_table(self._results())
        assert "1.200" in table
        assert "1.100" in table
        assert "geomean" in table

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError):
            speedup_table({"mpppb": {}}, baseline="lru")

    def test_ragged_benchmark_sets_rejected(self):
        # Previously a bare KeyError from inside the row loop.
        results = self._results()
        del results["mpppb"]["y"]
        with pytest.raises(ValueError, match="speedup_table.*mpppb"):
            speedup_table(results)


class TestMpkiTable:
    def test_contains_means(self):
        results = {
            "lru": {"x": bench_result("x", 1.0, 10.0),
                    "y": bench_result("y", 1.0, 20.0)},
        }
        table = mpki_table(results)
        assert "15.000" in table  # mean of 10 and 20
        assert "mean" in table

    def test_empty_results_rejected(self):
        # Previously surfaced as StopIteration from next(iter(...)).
        with pytest.raises(ValueError, match="empty results"):
            mpki_table({})

    def test_ragged_benchmark_sets_rejected(self):
        # Previously a bare KeyError from inside the row loop.
        results = {
            "lru": {"x": bench_result("x", 1.0, 10.0),
                    "y": bench_result("y", 1.0, 20.0)},
            "srrip": {"x": bench_result("x", 1.0, 9.0)},
        }
        with pytest.raises(ValueError, match="mpki_table.*srrip"):
            mpki_table(results)


class TestMultiSummaries:
    def test_weighted_speedup_summary(self):
        table = weighted_speedup_summary({"mpppb": [1.1, 0.9, 1.2]})
        assert "mpppb" in table
        assert "1" in table  # below-LRU count column
