"""Fault-tolerance tests for the execution layer.

Exercises the deterministic fault-injection harness
(``REPRO_FAULT_INJECT``) end to end: per-cell failure isolation,
bounded retries, worker-crash (lost worker) recovery,
per-cell watchdog timeouts, batch degradation, and the
"corruption is a cache miss" contract.  The load-bearing invariant in
every recovery test: results after injected faults are identical to a
clean run's.
"""

import pytest

from repro.config import TINY
from repro.exec import (
    CellExecutionError,
    ParallelRunner,
    ResultStore,
    SearchCell,
    SingleCell,
    SuiteSpec,
    TraceSpec,
    stable_hash,
)
from repro.exec.faults import (
    ConfigError,
    FaultRule,
    corrupt_result_blob,
    parse_fault_spec,
)
from repro.exec import runner as exec_runner
from repro.exec.runner import SearchBatchCell

ACCESSES = 2_000
BENCHMARKS = ("gamess", "soplex")
POLICIES = ("lru", "mpppb-1a")


def _cells():
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


def _keys(cells):
    return [stable_hash(cell.key_payload()) for cell in cells]


@pytest.fixture()
def no_backoff(monkeypatch):
    monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)


@pytest.fixture(scope="module")
def clean_results():
    return ParallelRunner(jobs=1, store=None, verbose=False).run(_cells())


class TestFaultSpecParsing:
    def test_parses_kinds_and_options(self):
        rules = parse_fault_spec("raise:every=5,phase=2;hang:key=ab,seconds=9")
        assert rules == (
            FaultRule(kind="raise", every=5, phase=2),
            FaultRule(kind="hang", key="ab", seconds=9.0),
        )

    def test_times_bounds_attempts(self):
        [rule] = parse_fault_spec("raise:key=ab,times=2")
        assert rule.selects("abcd", 1)
        assert rule.selects("abcd", 2)
        assert not rule.selects("abcd", 3)
        assert not rule.selects("cdef", 1)

    @pytest.mark.parametrize("spec", [
        "explode",
        "raise:every",
        "raise:every=two",
        "raise:volume=11",
        "raise:every=0",
    ])
    def test_bad_specs_raise_config_error(self, spec):
        with pytest.raises(ConfigError):
            parse_fault_spec(spec)


class TestRetries:
    def test_retry_recovers_and_reproduces(self, monkeypatch, no_backoff,
                                           clean_results):
        # every=1 selects every cell on attempt 1 only (times=1), so a
        # single retry budget makes the whole batch succeed.
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=1")
        engine = ParallelRunner(jobs=1, store=None, verbose=False, retries=1)
        assert engine.run(_cells()) == clean_results
        report = engine.last_report
        assert report.retries == len(clean_results)
        assert report.failures == ()
        assert all(outcome.attempts == 2 for outcome in report.outcomes)

    def test_collect_mode_isolates_failures(self, monkeypatch, no_backoff,
                                            clean_results):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=1,times=99")
        engine = ParallelRunner(jobs=1, store=None, verbose=False, retries=1)
        results = engine.run(_cells())
        assert results == [None] * len(clean_results)
        report = engine.last_report
        assert report.failed == len(results)
        assert len(report.failures) == len(results)
        assert all(f.kind == "error" and f.attempts == 2
                   for f in report.failures)
        assert all(outcome.failed for outcome in report.outcomes)
        assert "failed" in report.failures_table()

    def test_raise_mode_raises_typed_error(self, monkeypatch, no_backoff):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=1,times=99")
        engine = ParallelRunner(jobs=1, store=None, verbose=False,
                                on_error="raise")
        with pytest.raises(CellExecutionError) as excinfo:
            engine.run(_cells())
        assert excinfo.value.failure is not None
        assert excinfo.value.failure.exc_type == "InjectedFault"


class TestCrashRecovery:
    def test_worker_crash_rebuilds_pool(self, monkeypatch, no_backoff,
                                        clean_results):
        cells = _cells()
        victim = _keys(cells)[0][:16]
        monkeypatch.setenv("REPRO_FAULT_INJECT", f"crash:key={victim}")
        engine = ParallelRunner(jobs=2, store=None, verbose=False)
        assert engine.run(cells) == clean_results
        report = engine.last_report
        assert report.pool_rebuilds >= 1
        assert report.requeued >= 1
        assert report.failures == ()

    def test_crash_loses_no_completed_results(self, monkeypatch, no_backoff,
                                              tmp_path, clean_results):
        cells = _cells()
        victim = _keys(cells)[-1][:16]
        monkeypatch.setenv("REPRO_FAULT_INJECT", f"crash:key={victim}")
        store = ResultStore(tmp_path / "cache")
        faulted = ParallelRunner(jobs=2, store=store, verbose=False)
        assert faulted.run(cells) == clean_results
        assert faulted.last_report.pool_rebuilds >= 1

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        warm = ParallelRunner(jobs=1, store=ResultStore(tmp_path / "cache"),
                              verbose=False)
        assert warm.run(cells) == clean_results
        # Every cell that completed before/after the worker death is a
        # store hit now: a crash loses zero completed results.
        assert warm.last_report.hits == len(cells)

    def test_serial_crash_degrades_to_raise(self, monkeypatch, no_backoff,
                                            clean_results):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:every=1")
        engine = ParallelRunner(jobs=1, store=None, verbose=False, retries=1)
        assert engine.run(_cells()) == clean_results
        assert engine.last_report.retries == len(clean_results)


class TestWatchdogTimeout:
    def test_straggler_is_timed_out_and_retried(self, monkeypatch, no_backoff,
                                                clean_results):
        cells = _cells()
        victim = _keys(cells)[0][:16]
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"hang:key={victim},seconds=30")
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                retries=1, cell_timeout=1.0)
        assert engine.run(cells) == clean_results
        report = engine.last_report
        assert report.timeouts >= 1
        assert report.retries >= 1
        assert report.pool_rebuilds >= 1
        assert report.failures == ()

    # One-cell drives and --jobs 1 run on a forked slot too, so the
    # watchdog holds whatever the drive's width.
    @pytest.mark.parametrize("jobs,count", [(2, 2), (2, 1), (1, 1)])
    def test_exhausted_timeout_is_recorded(self, jobs, count, monkeypatch,
                                           no_backoff):
        cells = _cells()[:count]
        victim = _keys(cells)[0][:16]
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"hang:key={victim},seconds=30,times=99")
        engine = ParallelRunner(jobs=jobs, store=None, verbose=False,
                                cell_timeout=0.5)
        results = engine.run(cells)
        report = engine.last_report
        assert results[0] is None
        assert all(result is not None for result in results[1:])
        [failure] = report.failures
        assert failure.kind == "timeout"
        assert failure.exc_type == "TimeoutError"


class TestCorruption:
    def test_corrupt_result_blob_is_a_miss(self, tmp_path, clean_results):
        cells = _cells()
        keys = _keys(cells)
        store = ResultStore(tmp_path / "cache")
        cold = ParallelRunner(jobs=1, store=store, verbose=False)
        assert cold.run(cells) == clean_results

        corrupt_result_blob(store, keys[0], cells[0].kind)
        warm = ParallelRunner(jobs=1, store=ResultStore(tmp_path / "cache"),
                              verbose=False)
        assert warm.run(cells) == clean_results
        assert warm.last_report.hits == len(cells) - 1
        assert warm.last_report.misses == 1

    def test_corrupt_fault_forces_recompute(self, monkeypatch, tmp_path,
                                            clean_results):
        cells = _cells()
        victim = _keys(cells)[1][:16]
        monkeypatch.setenv("REPRO_FAULT_INJECT", f"corrupt:key={victim}")
        store = ResultStore(tmp_path / "cache")
        # The faulted run still *returns* correct results; only the
        # stored blob is poisoned after the fact.
        assert ParallelRunner(jobs=1, store=store,
                              verbose=False).run(cells) == clean_results

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        warm = ParallelRunner(jobs=1, store=ResultStore(tmp_path / "cache"),
                              verbose=False)
        assert warm.run(cells) == clean_results
        assert warm.last_report.misses == 1


class TestBatchDegradation:
    SPEC = SuiteSpec(TINY.hierarchy.llc_bytes, 2_000, names=("gamess",))

    def _search_cells(self, k=3):
        from repro.core.presets import single_thread_config, table_1b_features

        import random as _random

        from repro.core.features import random_feature_set

        rng = _random.Random(7)
        feature_sets = [single_thread_config("a").features,
                        table_1b_features()]
        while len(feature_sets) < k:
            feature_sets.append(random_feature_set(rng))
        return [
            SearchCell(
                suite=self.SPEC,
                features=tuple(features),
                hierarchy=TINY.hierarchy,
                warmup_fraction=TINY.warmup_fraction,
            )
            for features in feature_sets
        ]

    def test_failed_batch_splits_into_singles(self, monkeypatch, no_backoff):
        cells = self._search_cells()
        plain = ParallelRunner(jobs=1, store=None,
                               verbose=False).run_search_batches(cells)

        batch_cell = SearchBatchCell(
            suite=self.SPEC,
            feature_sets=tuple(cell.features for cell in cells),
            hierarchy=TINY.hierarchy,
            base_config=None,
            prefetch=True,
            warmup_fraction=TINY.warmup_fraction,
        )
        batch_key = stable_hash(batch_cell.key_payload())
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"raise:key={batch_key[:16]},times=99")
        engine = ParallelRunner(jobs=1, store=None, verbose=False)
        assert engine.run_search_batches(cells) == plain
        report = engine.last_report
        # The batch failed, split into singletons, and every singleton
        # succeeded (their keys differ from the batch key).
        assert report.requeued == len(cells)
        assert report.failures == ()
        assert report.batches == 0
