"""Tests for the multi-programmed (shared-LLC) runner."""

import pytest

from repro import obs
from repro.policies import policy_factory
from repro.sim.hierarchy import HierarchyConfig
from repro.sim.multi import MultiProgrammedRunner, normalized_weighted_speedups
from repro.sim.single import SingleThreadRunner
from repro.traces.mixes import generate_mixes
from repro.traces.workloads import all_segments

SMALL = HierarchyConfig(l1_kib=4, l1_ways=4, l2_kib=16, l2_ways=8,
                        llc_kib=128, llc_ways=16)
LLC = SMALL.llc_bytes


@pytest.fixture(scope="module")
def mixes():
    segments = all_segments(LLC, accesses=2500,
                            names=["mcf", "lbm", "gamess", "soplex", "astar"])
    return generate_mixes(segments, count=3, seed=11)


@pytest.fixture(scope="module")
def runner():
    return MultiProgrammedRunner(SMALL, warmup_fraction=0.25)


@pytest.mark.parametrize("runner_cls",
                         [SingleThreadRunner, MultiProgrammedRunner])
@pytest.mark.parametrize("fraction", [1.0, 1.5, -0.5])
def test_rejects_warmup_fraction_outside_unit_interval(runner_cls, fraction):
    with pytest.raises(ValueError,
                       match=r"warmup_fraction must be in \[0, 1\)"):
        runner_cls(SMALL, warmup_fraction=fraction)


class TestThreadData:
    def test_memoized(self, runner, mixes):
        segment = mixes[0].segments[0]
        assert runner.thread_data(segment) is runner.thread_data(segment)

    def test_single_ipc_positive(self, runner, mixes):
        data = runner.thread_data(mixes[0].segments[0])
        assert data.single_ipc > 0
        assert data.single_cycles > 0

    def test_timestamps_monotone(self, runner, mixes):
        data = runner.thread_data(mixes[0].segments[0])
        assert all(a <= b for a, b in zip(data.timestamps, data.timestamps[1:]))


class TestRunMix:
    def test_result_shape(self, runner, mixes):
        result = runner.run_mix(mixes[0], policy_factory("lru"))
        assert len(result.ipcs) == 4
        assert len(result.single_ipcs) == 4
        assert result.mpki >= 0
        assert result.weighted_speedup > 0

    def test_weighted_speedup_at_most_ncores(self, runner, mixes):
        # Sharing a cache can only hurt relative to standalone runs.
        result = runner.run_mix(mixes[0], policy_factory("lru"))
        assert result.weighted_speedup <= 4.0 + 1e-6

    def test_deterministic(self, runner, mixes):
        a = runner.run_mix(mixes[0], policy_factory("lru"))
        b = runner.run_mix(mixes[0], policy_factory("lru"))
        assert a == b

    def test_all_threads_contribute(self, runner, mixes):
        result = runner.run_mix(mixes[0], policy_factory("lru"))
        assert all(ipc > 0 for ipc in result.ipcs)

    def test_mpppb_multiprogrammed_runs(self, runner, mixes):
        result = runner.run_mix(mixes[0], policy_factory("mpppb-mp"))
        assert result.weighted_speedup > 0

    def test_interleave_span_on_every_call(self, runner, mixes):
        """The merge has its own span, emitted whether or not the
        threads were already prepared."""
        obs.enable()
        try:
            with obs.capture() as ctx:
                for _ in range(2):
                    runner.run_mix(mixes[1], policy_factory("lru"))
                paths = [r.path for r in ctx.collector.snapshot()]
        finally:
            obs.disable()
        assert paths.count("interleave") == 2
        assert paths.count("stage2") == 2
        assert paths.count("stage1") == 8


class TestNormalization:
    def test_lru_normalizes_to_one(self, runner, mixes):
        results = {
            "lru": [runner.run_mix(m, policy_factory("lru")) for m in mixes],
            "srrip": [runner.run_mix(m, policy_factory("srrip")) for m in mixes],
        }
        normalized = normalized_weighted_speedups(results, baseline="lru")
        assert all(v == pytest.approx(1.0) for v in normalized["lru"])
        assert len(normalized["srrip"]) == len(mixes)

    def test_missing_baseline_rejected(self):
        with pytest.raises(ValueError):
            normalized_weighted_speedups({"srrip": []}, baseline="lru")

    def test_mismatched_counts_rejected(self, runner, mixes):
        results = {
            "lru": [runner.run_mix(m, policy_factory("lru")) for m in mixes],
            "srrip": [runner.run_mix(mixes[0], policy_factory("srrip"))],
        }
        with pytest.raises(ValueError):
            normalized_weighted_speedups(results, baseline="lru")
