"""Tests for the parallel experiment engine (``repro.exec``).

Covers the tentpole guarantees: parallel results equal serial results
cell-for-cell, the serial path equals the direct (pre-engine) runner
entry points, and warm-cache invocations return identical results
while reporting hits.
"""

import math

import pytest

from repro.config import TINY
from repro.core.presets import single_thread_config, table_1b_features
from repro.exec import (
    MixCell,
    ParallelRunner,
    SearchCell,
    SingleCell,
    SuiteSpec,
    TraceSpec,
)
from repro.policies import policy_factory
from repro.search import evaluator as evaluator_mod
from repro.search.evaluator import FeatureSetEvaluator
from repro.sim.multi import MultiProgrammedRunner
from repro.sim.single import SingleThreadRunner
from repro.traces.mixes import generate_mixes
from repro.traces.workloads import build_segments, build_suite

ACCESSES = 2_500
BENCHMARKS = ("gamess", "soplex")
POLICIES = ("lru", "mpppb-1a")


def _single_cells():
    return [
        SingleCell(
            trace=TraceSpec(name, TINY.hierarchy.llc_bytes, ACCESSES),
            policy=policy,
            hierarchy=TINY.hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        for policy in POLICIES
        for name in BENCHMARKS
    ]


def _mix_cells():
    suite_spec = SuiteSpec(TINY.hierarchy.llc_bytes, ACCESSES)
    suite = build_suite(TINY.hierarchy.llc_bytes, ACCESSES)
    segments = [s for name in sorted(suite) for s in suite[name]]
    mixes = generate_mixes(segments, 2)
    return [
        MixCell(
            suite=suite_spec,
            mix_name=mix.name,
            segment_names=tuple(s.name for s in mix.segments),
            policy="lru",
            hierarchy=TINY.multi_hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        for mix in mixes
    ], mixes


class TestJobsResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert ParallelRunner(3, store=None).jobs == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert ParallelRunner(store=None).jobs == 5

    def test_zero_means_cpu_count(self):
        assert ParallelRunner(0, store=None).jobs >= 1

    def test_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            ParallelRunner(store=None)


class TestSingleCells:
    @pytest.fixture(scope="class")
    def serial_results(self):
        runner = ParallelRunner(jobs=1, store=None)
        return runner.run(_single_cells())

    def test_serial_matches_direct_runner(self, serial_results):
        runner = SingleThreadRunner(TINY.hierarchy,
                                    warmup_fraction=TINY.warmup_fraction)
        index = 0
        for policy in POLICIES:
            for name in BENCHMARKS:
                segments = build_segments(name, TINY.hierarchy.llc_bytes,
                                          ACCESSES)
                direct = runner.run_benchmark(name, segments,
                                              policy_factory(policy))
                assert serial_results[index] == direct
                index += 1

    def test_parallel_equals_serial_cell_for_cell(self, serial_results):
        parallel = ParallelRunner(jobs=2, store=None).run(_single_cells())
        assert parallel == serial_results

    def test_warm_cache_hits_and_identical_results(self, serial_results,
                                                   tmp_path_factory):
        from repro.exec import ResultStore

        root = tmp_path_factory.mktemp("cache")
        cold = ParallelRunner(jobs=1, store=ResultStore(root))
        first = cold.run(_single_cells())
        assert cold.last_report.misses == len(first)
        warm = ParallelRunner(jobs=1, store=ResultStore(root))
        second = warm.run(_single_cells())
        assert warm.last_report.hits == len(second)
        assert warm.last_report.misses == 0
        assert second == first == serial_results


class TestMixCells:
    def test_parallel_equals_serial_equals_direct(self):
        cells, mixes = _mix_cells()
        serial = ParallelRunner(jobs=1, store=None).run(cells)
        parallel = ParallelRunner(jobs=2, store=None).run(cells)
        assert parallel == serial

        runner = MultiProgrammedRunner(TINY.multi_hierarchy,
                                       warmup_fraction=TINY.warmup_fraction)
        direct = [runner.run_mix(mix, policy_factory("lru")) for mix in mixes]
        assert serial == direct

    def test_mix_cache_round_trip(self, tmp_path):
        from repro.exec import ResultStore

        cells, _ = _mix_cells()
        store = ResultStore(tmp_path)
        first = ParallelRunner(jobs=1, store=store).run(cells)
        second = ParallelRunner(jobs=1, store=store).run(cells)
        assert second == first
        assert store.stats.hits == len(cells)


class TestSearchCells:
    SPEC = SuiteSpec(TINY.hierarchy.llc_bytes, 2_000, names=("gamess",))

    def test_engine_evaluation_matches_plain_evaluator(self):
        features = (single_thread_config("a").features,
                    table_1b_features())
        plain = FeatureSetEvaluator.from_spec(self.SPEC, TINY.hierarchy,
                                              warmup_fraction=TINY.warmup_fraction)
        expected = [plain.evaluate(fs) for fs in features]

        engine = ParallelRunner(jobs=2, store=None)
        fanned = FeatureSetEvaluator.from_spec(
            self.SPEC, TINY.hierarchy,
            warmup_fraction=TINY.warmup_fraction, executor=engine,
        )
        assert fanned.evaluate_many(features) == expected
        # In-memory memoization still works on top of the engine.
        evaluations = fanned.evaluations
        assert fanned.evaluate_many(features) == expected
        assert fanned.evaluations == evaluations

    def test_search_cell_key_is_pinned(self):
        """A candidate's store key: results stored by earlier versions
        stay hits."""
        from repro.exec.cachekey import stable_hash

        cell = SearchCell(self.SPEC, table_1b_features(), TINY.hierarchy,
                          warmup_fraction=TINY.warmup_fraction)
        assert stable_hash(cell.key_payload()) == (
            "2eb7ac92283bb749b01a4503158defd42c7aa32f8588c6e156276f25b55e8fb4")

    def test_search_cell_runs_standalone(self):
        cell = SearchCell(
            suite=self.SPEC,
            features=table_1b_features(),
            hierarchy=TINY.hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        [value] = ParallelRunner(jobs=1, store=None).run([cell])
        assert value > 0

    def test_from_spec_builds_segments_on_first_use(self, monkeypatch):
        """An engine-backed search synthesizes no trace in the caller;
        baseline_mpki then builds the segments, to the eager value."""
        from repro.search import random_search

        lru = policy_factory("lru")
        eager = FeatureSetEvaluator(self.SPEC.build(), TINY.hierarchy,
                                    warmup_fraction=TINY.warmup_fraction)
        built = []
        build = TraceSpec.build

        def spy(spec):
            built.append(spec.benchmark)
            return build(spec)

        # Forked workers inherit the spy, but record into their own
        # copy of ``built``: only the parent's syntheses land here.
        monkeypatch.setattr(TraceSpec, "build", spy)
        lazy = FeatureSetEvaluator.from_spec(
            self.SPEC, TINY.hierarchy, warmup_fraction=TINY.warmup_fraction,
            executor=ParallelRunner(jobs=2, store=None))
        random_search(lazy, 4, seed=7)
        assert built == []
        assert lazy.baseline_mpki(lru) == eager.baseline_mpki(lru)
        assert built == ["gamess"]

    def test_evaluate_many_dedups_duplicates(self):
        plain = FeatureSetEvaluator.from_spec(self.SPEC, TINY.hierarchy,
                                              warmup_fraction=TINY.warmup_fraction)
        features = table_1b_features()
        values = plain.evaluate_many([features, features])
        assert values[0] == values[1]
        assert plain.evaluations == 1


class TestSearchBatches:
    """run_search_batches: batch execution, per-candidate cache keys."""

    SPEC = SuiteSpec(TINY.hierarchy.llc_bytes, 2_000, names=("gamess",))

    def _cells(self, k=4, seed=31):
        import random

        from repro.core.features import random_feature_set

        rng = random.Random(seed)
        feature_sets = [single_thread_config("a").features,
                        table_1b_features()]
        while len(feature_sets) < k:
            feature_sets.append(random_feature_set(rng))
        return [
            SearchCell(
                suite=self.SPEC,
                features=features,
                hierarchy=TINY.hierarchy,
                warmup_fraction=TINY.warmup_fraction,
            )
            for features in feature_sets[:k]
        ]

    @staticmethod
    def _clear_memos():
        # Evaluators memoize MPKI in process; clear so each engine run
        # genuinely computes instead of replaying the shared memo.
        from repro.exec import runner as exec_runner

        exec_runner._RUNNERS.clear()

    def test_batched_matches_plain_run(self):
        cells = self._cells()
        self._clear_memos()
        expected = ParallelRunner(jobs=1, store=None).run(cells)
        self._clear_memos()
        engine = ParallelRunner(jobs=1, store=None)
        assert engine.run_search_batches(cells, label="batch") == expected
        report = engine.last_report
        assert report.batches == 1
        assert report.batched == len(cells)
        assert report.misses == len(cells)
        assert "batched=" in report.summary()

    def test_store_interop_both_directions(self, tmp_path):
        from repro.exec.store import ResultStore

        cells = self._cells()
        self._clear_memos()
        store = ResultStore(tmp_path / "cache")
        engine = ParallelRunner(jobs=1, store=store)
        values = engine.run_search_batches(cells)
        # Batch results were stored per candidate: a plain run() is
        # served entirely from the cache, and so is a second batch run.
        self._clear_memos()
        warm = ParallelRunner(jobs=1, store=store)
        assert warm.run(cells) == values
        assert warm.last_report.hits == len(cells)
        assert warm.run_search_batches(cells) == values
        assert warm.last_report.hits == len(cells)
        assert warm.last_report.batches == 0

    def test_batch_size_chunks_and_singleton(self):
        cells = self._cells()
        self._clear_memos()
        baseline = ParallelRunner(jobs=1, store=None).run(cells)
        self._clear_memos()
        engine = ParallelRunner(jobs=1, store=None)
        values = engine.run_search_batches(cells, batch_size=3)
        assert values == baseline
        report = engine.last_report
        # 4 candidates at batch_size=3: one 3-wide batch plus one
        # plain single-cell task.
        assert report.batches == 1
        assert report.batched == 3
        assert report.cells == len(cells)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_generation_wider_than_search_batch_splits(self, jobs,
                                                       monkeypatch):
        monkeypatch.setattr(evaluator_mod, "SEARCH_BATCH", 3)
        cells = self._cells(k=5)
        self._clear_memos()
        expected = ParallelRunner(jobs=1, store=None).run(cells)
        self._clear_memos()
        engine = ParallelRunner(jobs=jobs, store=None)
        assert engine.run_search_batches(cells) == expected
        report = engine.last_report
        assert report.batches == math.ceil(len(cells) / 3)
        assert report.batched == len(cells)

    def test_parallel_matches_serial(self):
        cells = self._cells()
        self._clear_memos()
        serial = ParallelRunner(jobs=1, store=None).run_search_batches(
            cells, batch_size=2)
        self._clear_memos()
        parallel = ParallelRunner(jobs=2, store=None).run_search_batches(
            cells, batch_size=2)
        assert parallel == serial

    @pytest.mark.parametrize("n, slots, widths", [
        (8, 1, [8]),
        (8, 2, [4, 4]),
        (9, 2, [5, 4]),
        (40, 1, [32, 8]),
        (40, 2, [20, 20]),
        (70, 2, [32, 32, 6]),
        (3, 4, [1, 1, 1]),
    ])
    def test_chunks_spread_over_slots(self, n, slots, widths):
        """n misses cut into fill-first chunks of
        min(SEARCH_BATCH, ceil(n / slots))."""
        from repro.exec.cachekey import stable_hash
        from repro.exec.runner import _search_tasks

        misses = [(index, stable_hash(cell.key_payload()), cell)
                  for index, cell in enumerate(self._cells(k=n))]
        tasks = _search_tasks(misses, evaluator_mod.SEARCH_BATCH, slots)
        assert [len(task.context) for task in tasks] == widths
        assert [miss for task in tasks for miss in task.context] == misses
        assert [task.cell.kind for task in tasks] == [
            "search-batch" if width > 1 else "search" for width in widths]

    def test_each_scope_spreads_on_its_own(self):
        from dataclasses import replace

        from repro.exec.cachekey import stable_hash
        from repro.exec.runner import _search_tasks

        cells = self._cells(k=6)
        cells[3:] = [replace(cell, prefetch=False) for cell in cells[3:]]
        misses = [(index, stable_hash(cell.key_payload()), cell)
                  for index, cell in enumerate(cells)]
        tasks = _search_tasks(misses, evaluator_mod.SEARCH_BATCH, 2)
        assert [[index for index, _, _ in task.context]
                for task in tasks] == [[0, 1], [2], [3, 4], [5]]

    def test_generation_spreads_over_worker_slots(self):
        cells = self._cells(k=8)
        self._clear_memos()
        serial = ParallelRunner(jobs=1, store=None)
        expected = serial.run_search_batches(cells)
        assert serial.last_report.batches == 1
        self._clear_memos()
        engine = ParallelRunner(jobs=2, store=None)
        assert engine.run_search_batches(cells) == expected
        assert engine.last_report.batches == 2
        assert engine.last_report.batched == 8

    def test_narrow_generation_runs_as_single_cells(self):
        cells = self._cells(k=3)
        self._clear_memos()
        expected = ParallelRunner(jobs=1, store=None).run(cells)
        self._clear_memos()
        engine = ParallelRunner(jobs=4, store=None)
        assert engine.run_search_batches(cells) == expected
        # Three misses and no batch: three single search cells.
        assert engine.last_report.misses == 3
        assert engine.last_report.batches == 0

    def test_split_results_serve_plain_run(self, tmp_path):
        from repro.exec.store import ResultStore

        cells = self._cells(k=8)
        store = ResultStore(tmp_path / "cache")
        self._clear_memos()
        engine = ParallelRunner(jobs=2, store=store)
        values = engine.run_search_batches(cells)
        assert engine.last_report.batches == 2
        self._clear_memos()
        warm = ParallelRunner(jobs=1, store=store)
        assert warm.run(cells) == values
        assert warm.last_report.hits == len(cells)
        assert warm.last_report.misses == 0


class TestReport:
    def test_report_shape(self):
        runner = ParallelRunner(jobs=1, store=None)
        cells = _single_cells()[:1]
        runner.run(cells, label="unit")
        report = runner.last_report
        assert report.cells == 1
        assert report.misses == 1
        assert report.jobs == 1
        assert "unit" in report.summary()
        assert "computed" in report.table()

    def test_failed_cells_are_not_cache_misses(self, monkeypatch):
        """Regression: failed cells used to inflate ``misses`` (and so
        deflate ``hit_rate``) as if they had computed a result."""
        from repro.exec.cachekey import stable_hash

        cells = _single_cells()
        victim = stable_hash(cells[0].key_payload())
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"raise:key={victim},times=99")
        engine = ParallelRunner(jobs=1, store=None, verbose=False,
                                on_error="collect")
        engine.run(cells, label="unit")
        report = engine.last_report
        assert report.failed == 1
        assert report.computed == len(cells) - 1
        assert report.misses == len(cells) - 1
        assert report.hit_rate == 0.0
        assert report.hits == 0

    def test_hit_rate_excludes_failures(self, tmp_path, monkeypatch):
        from repro.exec.cachekey import stable_hash
        from repro.exec.store import ResultStore

        cells = _single_cells()
        store = ResultStore(tmp_path / "cache")
        ParallelRunner(jobs=1, store=store, verbose=False).run(cells)
        # Warm store, one cell poisoned: the failure must not drag the
        # hit rate below 100% of *resolved* cells.
        victim = stable_hash(cells[0].key_payload())
        for blob in list(store.root.glob("??/*.json")):
            if blob.stem == victim:
                blob.unlink()
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"raise:key={victim},times=99")
        engine = ParallelRunner(jobs=1, store=store, verbose=False,
                                on_error="collect")
        engine.run(cells, label="unit")
        report = engine.last_report
        assert report.failed == 1
        assert report.hits == len(cells) - 1
        assert report.computed == 0
        assert report.hit_rate == 1.0
