"""Pinned-hash determinism regression tests.

The perf work (columnar Stage-2 kernel, artifact cache, array-backed
state) must never change simulation *results* — only how fast they
are produced.  These tests run a small reference workload and compare
a stable hash of the full result tables against hashes pinned when
the optimizations landed, across every execution mode: serial,
parallel, cold artifact cache, warm artifact cache, and with the
artifact layer disabled.

If a change legitimately alters simulation output (a modeling fix, a
new feature), re-pin the hashes below in the same commit and say why
in the commit message.  If you did not intend to change output, a
failure here means a bug.
"""

import hashlib
import time
from array import array

import pytest

from repro.config import TINY
from repro.exec import MixCell, ParallelRunner, SingleCell, SuiteSpec, TraceSpec
from repro.exec import runner as exec_runner
from repro.exec.cachekey import stable_hash
from repro.exec.store import ResultStore
from repro.traces.holdout import build_holdout_suite
from repro.traces.mixes import generate_mixes
from repro.traces.workloads import build_suite

ACCESSES = 2_500
BENCHMARKS = ("gamess", "soplex")
POLICIES = ("lru", "mpppb-1a", "srrip")

# Pinned on the tiny reference workload below.  Cold cache, warm
# cache, serial, parallel, and artifacts-off must all reproduce them.
SINGLE_HASH = "4f06a70f16f97bdb76676eef33c124e3b8115326498dff212deb7fd617cd5e75"
MIX_HASH = "bec8c2cfa975ef0b8cfff1a87c8ff4cb3e5bd2ef307d006b6c0d7e34e3c9426b"
# Feature-search pin: random search + hill climb on a fixed seed must
# produce these candidates and MPKIs whatever the batch width.
SEARCH_HASH = "25451957fce2529e70cc7ebc80843c0475e3e04242d942b9d72584574e9534aa"
# The paper's two baselines on the same workload, single-core cells and
# the same mixes replayed under each baseline on the shared LLC.
BASELINE_POLICIES = ("perceptron", "hawkeye")
BASELINE_SINGLE_HASH = \
    "4e626f56ab48d50d11ccc47e3af038b295ab568b43ab2655c585800105f6c61a"
BASELINE_MIX_HASH = \
    "4686c853d78f1453913b92cd84aa97442263e3c3c829fb960049a087d77d7561"

# The synthesized traces themselves: sha256 over the five columns of
# every segment of the 33-benchmark suite and the holdout suite, tiny
# scale, seed 2017.  Pinned on the tuple-at-a-time synthesizer
# (tests/synth_oracle.py) before the column writers replaced it.
TRACE_HASH = "ec34e7d83ddf3e47fd485c14b54a733fc2424a29a9a4d1c88bb7601e9e2f16d9"

# The two Stage-2 legs: "off" replays on the LLCSimulator reference,
# "numpy" on the columnar numpy kernel, the default path.
_KERNEL_BACKENDS = ["off", "numpy"]


def _select_stage2(monkeypatch, backend):
    if backend == "off":
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", "off")
    else:
        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)


def _single_cells(policies=POLICIES):
    return [
        SingleCell(
            trace=TraceSpec(benchmark, TINY.hierarchy.llc_bytes, ACCESSES),
            policy=policy,
            hierarchy=TINY.hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        for policy in policies
        for benchmark in BENCHMARKS
    ]


def _mix_cells(policies=("lru",)):
    suite_spec = SuiteSpec(TINY.hierarchy.llc_bytes, ACCESSES)
    suite = build_suite(TINY.hierarchy.llc_bytes, ACCESSES)
    segments = [s for name in sorted(suite) for s in suite[name]]
    mixes = generate_mixes(segments, 2)
    return [
        MixCell(
            suite=suite_spec,
            mix_name=mix.name,
            segment_names=tuple(s.name for s in mix.segments),
            policy=policy,
            hierarchy=TINY.multi_hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        for policy in policies
        for mix in mixes
    ]


def _hashes(engine, single_policies=POLICIES, mix_policies=("lru",)):
    singles = engine.run(_single_cells(single_policies), label="pin/single")
    mixes = engine.run(_mix_cells(mix_policies), label="pin/mix")
    return (
        stable_hash({"results": [r.to_dict() for r in singles]}),
        stable_hash({"results": [r.to_dict() for r in mixes]}),
    )


def _assert_pinned(engine):
    single_hash, mix_hash = _hashes(engine)
    assert single_hash == SINGLE_HASH
    assert mix_hash == MIX_HASH


class TestPinnedHashes:
    def test_serial_no_store(self):
        _assert_pinned(ParallelRunner(jobs=1, store=None, verbose=False))

    def test_parallel_no_store(self):
        _assert_pinned(ParallelRunner(jobs=2, store=None, verbose=False))

    def test_cold_then_warm_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        # Cold: every cell computes, artifacts are written.
        _assert_pinned(ParallelRunner(jobs=1, store=store, verbose=False))
        # Warm results: every cell replays from the result cache.
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        _assert_pinned(engine)
        assert engine.last_report.hits == engine.last_report.cells

    def test_warm_artifacts_cold_results(self, tmp_path):
        """Results recompute from cached trace/Stage-1 artifacts."""
        store = ResultStore(tmp_path / "cache")
        _assert_pinned(ParallelRunner(jobs=1, store=store, verbose=False))
        # Drop the result blobs but keep artifacts; clear in-process
        # memos so Stage 1 genuinely reloads from disk.
        for blob in list(store.root.glob("??/*.json")):
            blob.unlink()
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        _assert_pinned(engine)
        assert engine.last_report.hits == 0

    def test_artifacts_disabled(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        engine.artifact_root = None  # results cached, artifacts not
        assert engine.artifact_root is None
        _assert_pinned(engine)

    @pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
    def test_stage2_kernel_backends(self, backend, monkeypatch):
        """Both Stage-2 legs reproduce the pinned hashes."""
        _select_stage2(monkeypatch, backend)
        _assert_pinned(ParallelRunner(jobs=1, store=None, verbose=False))


class TestBaselinePins:
    """Perceptron and Hawkeye pin identically on either Stage-2 leg,
    serial or parallel, with telemetry on or off."""

    @pytest.mark.parametrize("telemetry", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
    def test_baseline_pins(self, backend, jobs, telemetry, tmp_path,
                           monkeypatch):
        from repro import obs

        _select_stage2(monkeypatch, backend)
        store = ResultStore(tmp_path / "cache") if telemetry else None
        if telemetry:
            obs.enable()
        try:
            engine = ParallelRunner(jobs=jobs, store=store, verbose=False)
            hashes = _hashes(engine, BASELINE_POLICIES, BASELINE_POLICIES)
        finally:
            obs.disable()
        assert hashes == (BASELINE_SINGLE_HASH, BASELINE_MIX_HASH)


class TestFaultedPins:
    """Injected faults + recovery must reproduce the clean pins bit-for-bit.

    Cell seeding depends only on the cache key — never the attempt
    number, worker identity, or scheduling — so retried, requeued, and
    serially-degraded executions are exact reruns.
    """

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retried_raises_reproduce_pins(self, jobs, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=2")
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        engine = ParallelRunner(jobs=jobs, store=None, verbose=False,
                                retries=2)
        _assert_pinned(engine)
        assert engine.last_report.retries > 0
        assert engine.last_report.failures == ()

    def test_worker_crashes_reproduce_pins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:every=3")
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        engine = ParallelRunner(jobs=2, store=None, verbose=False, retries=1)
        _assert_pinned(engine)
        # every=3 selects one mix cell, so the (last) mix run really
        # did lose a worker and rebuild its pool.
        assert engine.last_report.pool_rebuilds >= 1
        assert engine.last_report.failures == ()


class TestFleetPins:
    """Parallel drives run cells in framed, forked worker processes —
    the transport must never touch results.  Pins must reproduce
    serial vs parallel, cold vs warm, and through injected worker
    loss."""

    def test_fleet_matches_local_pins(self):
        engine = ParallelRunner(jobs=2, store=None, verbose=False)
        _assert_pinned(engine)

    def test_fleet_cold_then_warm_store(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        _assert_pinned(ParallelRunner(jobs=2, store=store, verbose=False))
        warm = ParallelRunner(jobs=2, store=store, verbose=False)
        _assert_pinned(warm)
        assert warm.last_report.hits == warm.last_report.cells

    def test_fleet_worker_loss_reproduces_pins(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:every=3")
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                retries=1)
        _assert_pinned(engine)
        # The crash killed a live worker mid-cell; the lost-frame
        # requeue + rebuild machinery recovered it exactly once.
        assert engine.last_report.pool_rebuilds >= 1
        assert engine.last_report.requeued >= 1
        assert engine.last_report.failures == ()


class TestTelemetryPins:
    """Telemetry reads ``perf_counter`` and its own counters — never the
    ``random`` module or simulator state — so every pin must reproduce
    bit-for-bit with instrumentation recording."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pins_unchanged_with_telemetry(self, jobs, tmp_path):
        from repro import obs
        from repro.exec.store import ResultStore as Store

        obs.enable()
        try:
            store = Store(tmp_path / "cache")
            engine = ParallelRunner(jobs=jobs, store=store, verbose=False)
            _assert_pinned(engine)
            assert engine.last_events_path is not None
            assert engine.last_events_path.exists()
        finally:
            obs.disable()

    def test_search_pin_unchanged_with_telemetry(self):
        from repro import obs

        obs.enable()
        try:
            assert _search_hash() == SEARCH_HASH
        finally:
            obs.disable()


def _search_hash():
    from repro.search.evaluator import FeatureSetEvaluator
    from repro.search.hillclimb import hill_climb
    from repro.search.random_search import random_search
    from repro.traces.workloads import all_segments

    segments = all_segments(TINY.hierarchy.llc_bytes, ACCESSES,
                            names=["gamess", "soplex"])
    evaluator = FeatureSetEvaluator(segments, TINY.hierarchy,
                                    warmup_fraction=TINY.warmup_fraction)
    candidates = random_search(evaluator, num_sets=6, seed=123)
    refined = hill_climb(evaluator, candidates[0].features, steps=4,
                         seed=123)
    return stable_hash({
        "random": [[f.spec() for f in c.features] for c in candidates],
        "random_mpki": [c.mpki for c in candidates],
        "refined": [f.spec() for f in refined.features],
        "refined_mpki": refined.mpki,
    })


class TestGraphPins:
    """Which worker computes a shared artifact, and whether two
    workers both do, never changes what any cell computes, so the pins
    must hold serial and parallel, cold and warm."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_pins_cold_and_warm(self, jobs, tmp_path):
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()
        store = ResultStore(tmp_path / "cache")
        # Cold: the store is empty, the cells build their inputs.
        _assert_pinned(ParallelRunner(jobs=jobs, store=store, verbose=False))
        # Warm: every result replays from the store.
        _assert_pinned(ParallelRunner(jobs=jobs, store=store, verbose=False))

    def test_search_pin_with_graph(self):
        assert _search_hash() == SEARCH_HASH


class TestChaosPins:
    """Network chaos (DESIGN.md §16) — dropped/duplicated/delayed/torn
    frames, one-way partitions and hung stragglers — must reproduce the
    clean pins bit-for-bit, and heartbeats must recover faster than
    the blunt instruments they augment."""

    def test_frame_drop_recovers_via_heartbeats(self, monkeypatch):
        # A dropped result frame leaves the slot busy-but-silent
        # forever: only the heartbeat timeout can notice (the worker
        # finished, so it is not even hung).
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "frame-drop:every=3")
        engine = ParallelRunner(jobs=2, store=None, verbose=False)
        _assert_pinned(engine)
        # every=3 selects at least one cell (the same selector the
        # crash:every=3 test relies on); its dropped frame was detected
        # by the heartbeat timeout and the cell requeued.
        report = engine.last_report
        assert report.hb_lost >= 1
        assert report.requeued >= 1
        assert report.failures == ()

    def test_torn_dup_and_delayed_frames_reproduce_pins(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.2")
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            "frame-dup:every=3;frame-delay:every=4,seconds=0.3;"
            "frame-trunc:every=5")
        engine = ParallelRunner(jobs=2, store=None, verbose=False)
        _assert_pinned(engine)
        assert engine.last_report.failures == ()

    def test_heartbeat_beats_the_watchdog_on_a_hung_worker(self,
                                                           monkeypatch):
        # Acceptance check: with heartbeats on, a hung worker is
        # recovered in a couple of seconds — the generous cell watchdog
        # (the only line of defense before §16) never has to fire.
        cells = _single_cells()
        victim = stable_hash(cells[0].key_payload())
        # A 0.4 s interval gives the 2 s timeout (5 silent intervals).
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.4")
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            f"hb-loss:key={victim[:16]};hang:key={victim[:16]},seconds=600")
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                cell_timeout=120)
        started = time.monotonic()
        results = engine.run(cells, label="pin/single")
        wall = time.monotonic() - started
        assert stable_hash({"results": [r.to_dict() for r in results]}) \
            == SINGLE_HASH
        report = engine.last_report
        # The hb-loss and hang rules select the victim's first attempt
        # only, so exactly one worker goes silent.
        assert report.hb_lost == 1
        assert "hb-lost=1" in report.summary()
        assert report.requeued >= 1
        assert report.timeouts == 0   # the watchdog never fired
        assert report.failures == ()
        assert wall < 60.0            # well under the 120s watchdog

    def test_timed_out_straggler_reproduces_pins(self, monkeypatch):
        cells = _single_cells()
        victim = stable_hash(cells[0].key_payload())
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"hang:key={victim[:16]},seconds=30")
        engine = ParallelRunner(jobs=2, store=None, verbose=False,
                                cell_timeout=1.0, retries=1)
        started = time.monotonic()
        results = engine.run(cells, label="pin/single")
        wall = time.monotonic() - started
        assert stable_hash({"results": [r.to_dict() for r in results]}) \
            == SINGLE_HASH
        report = engine.last_report
        # The watchdog abandoned the hung first attempt; the retry
        # (attempt 2, which the times=1 hang rule skips) ran clean.
        assert report.timeouts >= 1
        assert report.retries >= 1
        assert report.failures == ()
        assert wall < 20.0            # the watchdog cut a 30s straggler

    def test_search_pin_under_frame_chaos(self, monkeypatch):
        from repro.search.evaluator import FeatureSetEvaluator
        from repro.search.hillclimb import hill_climb
        from repro.search.random_search import random_search

        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        monkeypatch.setenv("REPRO_FAULT_INJECT", "frame-drop:every=6")
        engine = ParallelRunner(jobs=2, store=None, verbose=False)
        spec = SuiteSpec(TINY.hierarchy.llc_bytes, ACCESSES,
                         names=("gamess", "soplex"))
        evaluator = FeatureSetEvaluator.from_spec(
            spec, TINY.hierarchy, warmup_fraction=TINY.warmup_fraction,
            executor=engine)
        candidates = random_search(evaluator, num_sets=6, seed=123)
        refined = hill_climb(evaluator, candidates[0].features, steps=4,
                             seed=123)
        assert stable_hash({
            "random": [[f.spec() for f in c.features] for c in candidates],
            "random_mpki": [c.mpki for c in candidates],
            "refined": [f.spec() for f in refined.features],
            "refined_mpki": refined.mpki,
        }) == SEARCH_HASH


class TestIngestPins:
    """Ingested-trace runs must be bit-identical across decode chunk
    sizes, serial vs parallel execution, and cold vs warm stores —
    chunking bounds resident decode state, never results, and the
    digest-keyed caches must replay exactly (chunk is not keyed, so a
    warm run with a *different* chunk size still hits every cell)."""

    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        import gzip

        path = tmp_path_factory.mktemp("ingest") / "real.trace.gz"
        lines = []
        state = 0xDEADBEEF
        for _ in range(2_000):
            state = (state * 6364136223846793005
                     + 1442695040888963407) % (1 << 64)
            pc = 0x400 + 4 * (state % 97)
            addr = 0x10000 + 64 * ((state >> 16) % 512)
            rw = "w" if state % 5 == 0 else "r"
            lines.append(f"0x{pc:x} 0x{addr:x} {rw} {state % 3}")
        path.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode()))
        return str(path)

    def _cells(self, trace_file, chunk):
        from repro.traces.ingest import resolve_ingest

        spec = resolve_ingest(trace_file, accesses=600, segments=2,
                              chunk=chunk)
        trace = TraceSpec(spec.name, TINY.hierarchy.llc_bytes, ACCESSES,
                          ingest=spec)
        return [
            SingleCell(trace=trace, policy=policy, hierarchy=TINY.hierarchy,
                       warmup_fraction=TINY.warmup_fraction)
            for policy in POLICIES
        ]

    @staticmethod
    def _clear_memos():
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()

    def _hash(self, engine, cells):
        results = engine.run(cells, label="pin/ingest")
        assert all(result is not None for result in results)
        return stable_hash({"results": [r.to_dict() for r in results]})

    def test_chunk_sizes_and_parallelism_agree(self, trace_file):
        hashes = set()
        for chunk, jobs in ((512, 1), (65536, 1), (512, 2)):
            self._clear_memos()
            engine = ParallelRunner(jobs=jobs, store=None, verbose=False)
            hashes.add(self._hash(engine, self._cells(trace_file, chunk)))
        assert len(hashes) == 1

    def test_cold_then_warm_store_across_chunks(self, trace_file, tmp_path):
        store = ResultStore(tmp_path / "cache")
        self._clear_memos()
        cold = self._hash(ParallelRunner(jobs=1, store=store, verbose=False),
                          self._cells(trace_file, 512))
        self._clear_memos()
        warm_engine = ParallelRunner(jobs=1, store=store, verbose=False)
        warm = self._hash(warm_engine, self._cells(trace_file, 65536))
        assert cold == warm
        assert warm_engine.last_report.hits == warm_engine.last_report.cells

    def test_warm_artifacts_cold_results(self, trace_file, tmp_path):
        """Results recompute from digest-keyed trace/Stage-1 artifacts."""
        store = ResultStore(tmp_path / "cache")
        self._clear_memos()
        cold = self._hash(ParallelRunner(jobs=1, store=store, verbose=False),
                          self._cells(trace_file, 512))
        for blob in list(store.root.glob("??/*.json")):
            blob.unlink()
        self._clear_memos()
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        rebuilt = self._hash(engine, self._cells(trace_file, 65536))
        assert cold == rebuilt
        assert engine.last_report.hits == 0


class TestSearchPinned:
    @pytest.mark.parametrize("mode", ["on", "off"])
    def test_stage2_batch_modes(self, mode, monkeypatch):
        """The search pins identically whether a generation replays as
        one batch ("on") or one candidate at a time ("off")."""
        if mode == "off":
            from repro.search import evaluator as evaluator_mod

            monkeypatch.setattr(evaluator_mod, "SEARCH_BATCH", 1)
        assert _search_hash() == SEARCH_HASH

    @pytest.mark.parametrize("backend", _KERNEL_BACKENDS)
    def test_stage2_kernel_backends(self, backend, monkeypatch):
        """The batched search replay pins identically on both legs."""
        _select_stage2(monkeypatch, backend)
        assert _search_hash() == SEARCH_HASH


def _trace_hash():
    digest = hashlib.sha256()
    llc, accesses = TINY.hierarchy.llc_bytes, TINY.segment_accesses
    for suite in (build_suite(llc, accesses, 2017),
                  build_holdout_suite(llc, accesses, 2017)):
        for name in suite:
            for segment in suite[name]:
                trace = segment.trace
                digest.update(segment.name.encode() + b"\0")
                for column in (trace.pcs, trace.addresses, trace.gaps):
                    digest.update(array("Q", column).tobytes())
                for column in (trace.writes, trace.deps):
                    digest.update(bytes(column))
    return digest.hexdigest()


class TestTracePinned:
    def test_suite_traces(self):
        assert _trace_hash() == TRACE_HASH
