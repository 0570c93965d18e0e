"""Tests for the multi-programmed (shared-LLC) runner."""

from collections import Counter

import pytest

from repro import obs
from repro.config import TINY
from repro.exec import MixCell, ParallelRunner, SuiteSpec
from repro.exec.store import ResultStore
from repro.obs.events import read_events
from repro.policies import policy_factory
from repro.sim.hierarchy import HierarchyConfig, UpperLevels
from repro.sim.multi import MultiProgrammedRunner, normalized_weighted_speedups
from repro.sim.single import SingleThreadRunner
from repro.traces.mixes import generate_mixes
from repro.traces.workloads import all_segments
from tests.test_multi_edge_cases import _fig4_tiny_mixes

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


@pytest.fixture(scope="module")
def fig4_tiny_mixes():
    return _fig4_tiny_mixes()


class _CountingStore:
    """A Stage-1 artifact store stand-in that counts its traffic."""

    def __init__(self, saved=None):
        self.saved = dict(saved or {})
        self.loads = 0
        self.saves = 0

    def load(self, segment):
        self.loads += 1
        return self.saved.get(segment.name)

    def save(self, segment, upper):
        self.saves += 1
        self.saved[segment.name] = upper


class TestSingleThreadPreparation:
    """A mix thread is a segment of the single-thread runner."""

    def test_single_ipc_is_the_lru_run_segment_ipc(self, fig4_tiny_mixes):
        multi = MultiProgrammedRunner(TINY.multi_hierarchy,
                                      warmup_fraction=0.25)
        single = SingleThreadRunner(TINY.multi_hierarchy,
                                    warmup_fraction=0.25)
        segments = [s for mix in fig4_tiny_mixes for s in mix.segments]
        assert len(segments) == 16
        for segment in segments:
            data = multi.thread_data(segment)
            lru = single.run_segment(segment, policy_factory("lru"))
            assert data.single_ipc == lru.ipc, segment.name
            assert data.measured_instr == lru.instructions, segment.name

    @pytest.mark.parametrize("preloaded", [False, True])
    def test_one_stage1_lookup_per_segment(self, mixes, monkeypatch,
                                           preloaded):
        """thread_data and upper_result share the Stage-1 memo: the
        store is asked once, and Stage 1 runs at most once."""
        segment = mixes[0].segments[0]
        saved = ({segment.name: UpperLevels(SMALL).run(segment.trace)}
                 if preloaded else {})
        store = _CountingStore(saved)
        runs = []
        real_run = UpperLevels.run
        monkeypatch.setattr(UpperLevels, "run",
                            lambda self, trace: runs.append(trace)
                            or real_run(self, trace))
        runner = MultiProgrammedRunner(SMALL, warmup_fraction=0.25,
                                       stage1_store=store)
        data = runner.thread_data(segment)
        assert runner.upper_result(segment) is data.upper
        assert store.loads == 1
        assert len(runs) == store.saves == (0 if preloaded else 1)

    def test_mix_cell_span_paths(self, fig4_tiny_mixes, tmp_path):
        """A telemetry-on mix cell's span paths: one Stage-1 span per
        thread with nothing nested under it, the second cell's (all
        memo hits) the same as the first's."""
        mix = fig4_tiny_mixes[0]
        cells = [
            MixCell(suite=SuiteSpec(TINY.hierarchy.llc_bytes, 4_000),
                    mix_name=mix.name,
                    segment_names=tuple(s.name for s in mix.segments),
                    policy=policy, hierarchy=TINY.multi_hierarchy,
                    warmup_fraction=TINY.warmup_fraction)
            for policy in ("lru", "mpppb-mp")]
        obs.enable()
        try:
            engine = ParallelRunner(jobs=1, verbose=False,
                                    store=ResultStore(tmp_path / "store"))
            engine.run(cells, label="spans")
            events = read_events(engine.last_events_path)
        finally:
            obs.disable()
        paths = {}
        for event in events:
            if event["type"] == "span" and event["cell"] is not None:
                paths.setdefault(event["cell"], Counter())[event["path"]] += 1
        assert len(paths) == 2
        for counts in paths.values():
            assert counts == {"cell": 1, "cell/trace-gen": 4,
                              "cell/stage1": 4, "cell/interleave": 1,
                              "cell/stage2": 1, "cell/stage3-timing": 1}


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
