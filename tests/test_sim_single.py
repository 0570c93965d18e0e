"""Tests for the single-thread runner, policy registry, and config."""

import pytest

from repro.config import get_scale
from repro.core.mpppb import MPPPBPolicy
from repro.policies import make_policy, policy_factory, policy_names
from repro.sim.hierarchy import HierarchyConfig
from repro.sim.single import (
    SingleThreadRunner,
    cross_validated_configs,
    speedups_over_lru,
)
from repro.traces.workloads import build_segments, build_suite

SMALL = HierarchyConfig(l1_kib=4, l1_ways=4, l2_kib=16, l2_ways=8,
                        llc_kib=64, llc_ways=16)
LLC = SMALL.llc_bytes


class TestPolicyRegistry:
    def test_names_cover_paper_policies(self):
        names = policy_names()
        for expected in ("lru", "srrip", "mdpp", "min", "hawkeye",
                         "perceptron", "sdbp", "mpppb-1a", "mpppb-mp"):
            assert expected in names

    @pytest.mark.parametrize("name", ["lru", "srrip", "drrip", "mdpp", "plru",
                                      "random", "min", "sdbp", "perceptron",
                                      "hawkeye", "mpppb-1a", "mpppb-1b",
                                      "mpppb-mp"])
    def test_constructs_with_geometry(self, name):
        policy = make_policy(name, 64, 16)
        assert policy.num_sets == 64
        assert policy.ways == 16

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("clock", 64, 16)

    def test_mpppb_requires_config(self):
        with pytest.raises(ValueError):
            make_policy("mpppb", 64, 16)

    def test_mpppb_with_config(self):
        from repro.core.presets import single_thread_config
        config = single_thread_config("b")
        policy = make_policy("mpppb", 64, 16, mpppb_config=config)
        assert isinstance(policy, MPPPBPolicy)

    def test_factory_curries(self):
        factory = policy_factory("lru")
        assert factory(8, 4).num_sets == 8


class TestScaleConfig:
    def test_named_scales(self):
        assert get_scale("tiny").name == "tiny"
        assert get_scale("small").name == "small"
        assert get_scale("paper").name == "paper"

    def test_paper_scale_matches_paper_geometry(self):
        paper = get_scale("paper")
        assert paper.hierarchy.llc_kib == 2048      # 2 MB single-thread
        assert paper.multi_hierarchy.llc_kib == 8192  # 8 MB 4-core
        assert paper.hierarchy.l1_kib == 32
        assert paper.hierarchy.l2_kib == 256
        assert paper.mix_count == 1000
        assert paper.train_mix_count == 100
        assert paper.random_feature_sets == 4000

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError):
            get_scale("huge")

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "tiny")
        assert get_scale().name == "tiny"


class TestSingleThreadRunner:
    @pytest.fixture(scope="class")
    def runner(self):
        return SingleThreadRunner(SMALL, warmup_fraction=0.25)

    @pytest.fixture(scope="class")
    def segments(self):
        return build_segments("gamess", LLC, accesses=4000)

    def test_rejects_bad_warmup(self):
        with pytest.raises(ValueError):
            SingleThreadRunner(SMALL, warmup_fraction=1.0)

    def test_stage1_memoized(self, runner, segments):
        first = runner.upper_result(segments[0])
        second = runner.upper_result(segments[0])
        assert first is second

    def test_segment_result_fields(self, runner, segments):
        result = runner.run_segment(segments[0], policy_factory("lru"))
        assert result.ipc > 0
        assert result.mpki >= 0
        assert result.instructions > 0
        assert result.llc_accesses == result.llc_hits + result.llc_misses

    def test_same_policy_deterministic(self, runner, segments):
        a = runner.run_segment(segments[0], policy_factory("lru"))
        b = runner.run_segment(segments[0], policy_factory("lru"))
        assert a == b

    def test_benchmark_weighted_aggregation(self, runner):
        segments = build_segments("gcc", LLC, accesses=3000)
        result = runner.run_benchmark("gcc", segments, policy_factory("lru"))
        ipcs = [s.ipc for s in result.segments]
        assert min(ipcs) <= result.ipc <= max(ipcs)

    def test_min_never_slower_than_lru(self, runner):
        for name in ("soplex", "mcf", "lbm"):
            segments = build_segments(name, LLC, accesses=6000)
            lru = runner.run_benchmark(name, segments, policy_factory("lru"))
            opt = runner.run_benchmark(name, segments, policy_factory("min"))
            assert opt.mpki <= lru.mpki + 1e-9

    def test_run_suite(self, runner):
        suite = build_suite(LLC, accesses=1500, names=["lbm", "gamess"])
        results = runner.run_suite(suite, policy_factory("lru"))
        assert set(results) == {"lbm", "gamess"}

    def test_speedups_over_lru(self, runner):
        suite = build_suite(LLC, accesses=3000, names=["soplex"])
        lru = runner.run_suite(suite, policy_factory("lru"))
        opt = runner.run_suite(suite, policy_factory("min"))
        speedups = speedups_over_lru(opt, lru)
        assert speedups["soplex"] >= 1.0

    def test_speedups_skip_missing_baselines(self, runner):
        suite = build_suite(LLC, accesses=3000, names=["soplex", "lbm"])
        lru = runner.run_suite({"soplex": suite["soplex"]},
                               policy_factory("lru"))
        opt = runner.run_suite(suite, policy_factory("min"))
        speedups = speedups_over_lru(opt, lru)
        # lbm has no LRU baseline: filtered out, not a KeyError.
        assert set(speedups) == {"soplex"}


class TestStage3Vector:
    """The numpy Stage-3 event columns must equal the reference
    generator, :func:`~repro.sim.single.demand_load_events`."""

    @pytest.fixture(scope="class")
    def runner(self):
        return SingleThreadRunner(SMALL, warmup_fraction=0.25)

    @pytest.fixture(scope="class")
    def segment(self):
        return build_segments("soplex", LLC, accesses=4000)[0]

    def test_arrays_match_generator(self, runner, segment):
        from repro.sim.llc import LLCSimulator
        from repro.sim.single import (
            build_stage3_events,
            demand_load_arrays,
            demand_load_events,
        )

        upper = runner.upper_result(segment)
        trace = segment.trace
        warm_mem = int(len(trace.pcs) * 0.25)
        policy = policy_factory("lru")(SMALL.llc_sets, 16)
        llc = LLCSimulator(policy).run(
            upper.llc_stream, pc_trace=trace.pcs,
            warmup=upper.llc_warmup_boundary(warm_mem),
        )
        timing = runner.timing
        events = build_stage3_events(trace, upper, timing,
                                     start_mem=warm_mem)
        instr, latencies, depends = demand_load_arrays(
            events, llc.outcomes, timing)
        expected = list(demand_load_events(trace, upper, llc.outcomes,
                                           timing, start_mem=warm_mem))
        assert list(zip(instr, latencies, depends)) == expected


class TestCrossValidation:
    def test_halves_get_opposite_tables(self):
        names = ["a", "b", "c", "d"]
        configs = cross_validated_configs(names)
        # First half evaluates with set (b), second with set (a).
        from repro.core.presets import table_1a_features, table_1b_features
        assert configs["a"].features == table_1b_features()
        assert configs["d"].features == table_1a_features()

    def test_all_names_assigned(self):
        from repro.traces.workloads import benchmark_names
        configs = cross_validated_configs(benchmark_names())
        assert set(configs) == set(benchmark_names())

    def test_odd_suite_sorts_then_splits(self):
        from repro.core.presets import table_1a_features, table_1b_features
        # Unsorted odd-length input: assignment follows alphabetical
        # order, and the middle name lands in the (a)-trained half.
        configs = cross_validated_configs(["e", "a", "c"])
        assert configs["a"].features == table_1b_features()
        assert configs["c"].features == table_1a_features()
        assert configs["e"].features == table_1a_features()
