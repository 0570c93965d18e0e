"""Tests for the ``repro.obs`` observability layer.

Unit-level coverage of spans, metrics, and the JSONL event sink, plus
the engine-level contracts: serial and parallel drives emit the same
per-cell span sets, events land beside the run manifest, and the
disabled path stays a no-op.
"""

import json
import threading

import pytest

from repro import obs
from repro.config import TINY
from repro.exec import ParallelRunner, SingleCell, TraceSpec
from repro.exec.store import ResultStore
from repro.obs.events import (
    EVENT_SCHEMA,
    events_path,
    list_event_logs,
    read_events,
    write_events,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import NULL_SPAN, SpanCollector

ACCESSES = 1_500


@pytest.fixture(autouse=True)
def telemetry_off_after():
    """The obs switch is process-global: never leak it between tests."""
    yield
    obs.disable()


def _cells():
    return [
        SingleCell(
            trace=TraceSpec(name, TINY.hierarchy.llc_bytes, ACCESSES),
            policy=policy,
            hierarchy=TINY.hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        for policy in ("lru", "mpppb-1a")
        for name in ("gamess", "soplex")
    ]


class TestSpans:
    def test_nesting_builds_slash_paths(self):
        from repro.obs.spans import Span

        collector = SpanCollector()
        with Span(collector, "outer"):
            with Span(collector, "inner"):
                pass
        paths = [r.path for r in collector.snapshot()]
        assert paths == ["outer/inner", "outer"]  # inner closes first

    def test_sibling_spans_share_parent(self):
        from repro.obs.spans import Span

        collector = SpanCollector()
        with Span(collector, "cell"):
            with Span(collector, "stage1"):
                pass
            with Span(collector, "stage2"):
                pass
        assert [r.path for r in collector.snapshot()] == [
            "cell/stage1", "cell/stage2", "cell"]

    def test_durations_nonnegative_and_nested_fit(self):
        from repro.obs.spans import Span

        collector = SpanCollector()
        with Span(collector, "outer"):
            with Span(collector, "inner"):
                pass
        inner, outer = collector.snapshot()
        assert inner.dur_s >= 0.0
        assert outer.dur_s >= inner.dur_s

    def test_threads_keep_separate_stacks(self):
        from repro.obs.spans import Span

        collector = SpanCollector()

        def worker():
            with Span(collector, "thread-root"):
                pass

        with Span(collector, "main-root"):
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        paths = {r.path for r in collector.snapshot()}
        # The thread's span must not nest under the main thread's.
        assert paths == {"thread-root", "main-root"}

    def test_drain_cursor_yields_each_record_once(self):
        from repro.obs.spans import Span

        collector = SpanCollector()
        with Span(collector, "a"):
            pass
        assert [r.name for r in collector.drain_new()] == ["a"]
        assert collector.drain_new() == []
        with Span(collector, "b"):
            pass
        assert [r.name for r in collector.drain_new()] == ["b"]
        # snapshot is unaffected by draining
        assert [r.name for r in collector.snapshot()] == ["a", "b"]


class TestHistogram:
    def test_bucket_edges(self):
        hist = Histogram([0, 10])
        for value, bucket in ((-5, 0), (0, 0), (1, 1), (10, 1), (11, 2)):
            before = list(hist.counts)
            hist.observe(value)
            changed = [i for i, (a, b) in
                       enumerate(zip(before, hist.counts)) if a != b]
            assert changed == [bucket], f"value {value}"
        assert hist.count == 5
        assert hist.min == -5 and hist.max == 11
        # The vectorized fold the Stage-2 kernel uses lands identically.
        folded = Histogram([0, 10])
        folded.observe_many([])
        folded.observe_many([1, -5, 0])
        folded.observe_many([11, 10])
        assert folded.to_dict() == hist.to_dict()

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram([])
        with pytest.raises(ValueError):
            Histogram([3, 1, 2])

    def test_roundtrip_and_merge(self):
        a = Histogram([0, 10])
        b = Histogram([0, 10])
        for v in (-1, 5):
            a.observe(v)
        for v in (7, 20):
            b.observe(v)
        a.merge(b.to_dict())
        assert a.count == 4
        assert a.counts == [1, 2, 1]
        assert a.min == -1 and a.max == 20
        assert a.mean == pytest.approx((-1 + 5 + 7 + 20) / 4)
        again = Histogram.from_dict(a.to_dict())
        assert again.to_dict() == a.to_dict()

    def test_merge_ignores_mismatched_bounds(self):
        a = Histogram([0, 10])
        a.observe(5)
        other = Histogram([0, 100])
        other.observe(50)
        a.merge(other.to_dict())  # silently ignored, never raises
        assert a.count == 1


class TestRegistry:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("x")
        reg.inc("x", 4)
        assert reg.payload()["counters"] == {"x": 5}

    def test_histogram_get_or_create(self):
        reg = MetricsRegistry()
        first = reg.histogram("h", [0, 1])
        second = reg.histogram("h", [5, 6])  # first bounds win
        assert first is second
        assert first.bounds == [0, 1]


class TestSwitchboard:
    def test_disabled_is_noop(self):
        obs.disable()
        assert not obs.enabled()
        assert obs.span("anything") is NULL_SPAN
        obs.inc("nope")  # no context, no error
        assert obs.histogram("nope", [0]) is None
        with obs.capture() as ctx:
            assert ctx is None

    def test_enabled_records(self):
        ctx = obs.enable()
        assert obs.enabled()
        with obs.span("outer"):
            obs.inc("n", 2)
            obs.histogram("h", [0]).observe(1)
        payload = ctx.payload()
        assert payload["counters"] == {"n": 2}
        assert payload["hists"]["h"]["count"] == 1
        assert [s["path"] for s in payload["spans"]] == ["outer"]

    def test_capture_isolates_and_restores(self):
        outer = obs.enable()
        with obs.span("drive"):
            with obs.capture() as inner:
                assert inner is not outer
                assert obs.current() is inner
                with obs.span("cell"):
                    pass
        assert obs.current() is outer
        # The cell span belongs to the inner context only, and the
        # inner context never saw the outer's ancestry.
        assert [s["path"] for s in inner.payload()["spans"]] == ["cell"]
        assert [s["path"] for s in outer.payload()["spans"]] == ["drive"]

    @pytest.mark.parametrize("value,expected", [
        ("1", True), ("on", True), ("TRUE", True), ("yes", True),
        ("", False), ("0", False), ("off", False),
    ])
    def test_telemetry_default_env(self, value, expected, monkeypatch):
        from repro.config import resolve_config

        monkeypatch.setenv("REPRO_TELEMETRY", value)
        assert resolve_config().telemetry is expected


class TestEventSink:
    def test_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "runs" / "abc.events.jsonl"
        events = [{"type": "run", "schema": EVENT_SCHEMA, "run_id": "abc"},
                  {"type": "counter", "cell": None, "name": "x", "value": 1}]
        assert write_events(path, events) == path
        assert read_events(path) == events

    def test_reader_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "x.events.jsonl"
        path.write_text('{"type":"counter","name":"ok","value":1}\n'
                        "not json\n"
                        "[1,2,3]\n")
        assert [e["name"] for e in read_events(path)] == ["ok"]

    def test_reader_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "x.events.jsonl"
        path.write_text(json.dumps(
            {"type": "run", "schema": EVENT_SCHEMA + 999}) + "\n")
        assert read_events(path) == []

    def test_read_missing_file(self, tmp_path):
        assert read_events(tmp_path / "nope.jsonl") == []

    def test_list_event_logs(self, tmp_path):
        assert list(list_event_logs(tmp_path)) == []
        write_events(events_path(tmp_path, "aa"), [{"type": "run"}])
        write_events(events_path(tmp_path, "bb"), [{"type": "run"}])
        listed = dict(list_event_logs(tmp_path))
        assert set(listed) == {"aa", "bb"}


class TestEngineTelemetry:
    def _run(self, tmp_path, jobs):
        store = ResultStore(tmp_path / f"cache-{jobs}")
        engine = ParallelRunner(jobs=jobs, store=store, verbose=False)
        engine.run(_cells(), label="obs-test")
        return engine

    def test_no_events_when_disabled(self, tmp_path):
        obs.disable()
        engine = self._run(tmp_path, 1)
        assert engine.last_events_path is None

    def test_events_written_beside_manifest(self, tmp_path):
        obs.enable()
        engine = self._run(tmp_path, 1)
        path = engine.last_events_path
        assert path is not None and path.exists()
        assert path.parent == engine.last_manifest.path.parent
        events = read_events(path)
        assert events[0]["type"] == "run"
        assert events[0]["cells"] == len(_cells())

    def test_span_coverage_and_metrics(self, tmp_path):
        obs.enable()
        engine = self._run(tmp_path, 1)
        events = read_events(engine.last_events_path)
        wall = events[0]["wall_s"]
        [drive] = [e for e in events
                   if e["type"] == "span" and e["path"] == "drive"]
        assert drive["cell"] is None
        assert drive["dur_s"] >= 0.9 * wall
        counters = {e["name"]: e["value"] for e in events
                    if e["type"] == "counter" and e["cell"] is None}
        assert counters["exec/cells"] == len(_cells())
        per_cell = {e["name"] for e in events
                    if e["type"] == "counter" and e["cell"] is not None}
        assert {"llc/accesses", "llc/hits", "llc/misses",
                "llc/evictions"} <= per_cell
        hists = [e for e in events if e["type"] == "hist"]
        assert any(e["name"] == "mpppb/confidence" and e["count"] > 0
                   for e in hists)

    def test_baselines_stay_on_the_kernel_with_telemetry(self, tmp_path,
                                                          monkeypatch):
        """Telemetry does not fork the Stage-2 code path: with the
        kernel on, no MPPPB, LRU, Perceptron or Hawkeye replay — single
        cells, shared-LLC mixes and their threads' standalone-LRU
        baselines, or a search batch — reaches LLCSimulator.run, and
        each still records the same llc/*, sampler/* and mpppb/*
        counters and the same mpppb/confidence histogram as the
        reference replay."""
        import random

        from repro.core.features import random_feature_set
        from repro.exec import MixCell, SuiteSpec
        from repro.exec.runner import SearchCell
        from repro.sim.llc import LLCSimulator
        from repro.traces.mixes import generate_mixes
        from repro.traces.workloads import build_suite

        singles = [
            SingleCell(
                trace=TraceSpec("soplex", TINY.hierarchy.llc_bytes, ACCESSES),
                policy=policy,
                hierarchy=TINY.hierarchy,
                warmup_fraction=TINY.warmup_fraction,
            )
            for policy in ("lru", "perceptron", "hawkeye", "mpppb-1a")
        ]
        suite = SuiteSpec(TINY.hierarchy.llc_bytes, ACCESSES,
                          names=("gamess", "soplex", "mcf", "lbm"))
        built = build_suite(TINY.hierarchy.llc_bytes, ACCESSES,
                            names=suite.names)
        mix = generate_mixes([s for name in sorted(built)
                              for s in built[name]], 1)[0]
        mixes = [MixCell(suite=suite, mix_name=mix.name,
                         segment_names=tuple(s.name for s in mix.segments),
                         policy=policy, hierarchy=TINY.multi_hierarchy,
                         warmup_fraction=TINY.warmup_fraction)
                 for policy in ("lru", "mpppb-mp")]
        rng = random.Random(13)
        searches = [
            SearchCell(suite=suite, features=random_feature_set(rng),
                       hierarchy=TINY.hierarchy, base_config=None,
                       prefetch=True, warmup_fraction=TINY.warmup_fraction)
            for _ in range(3)
        ]

        def recorded(kernel):
            """(counters, confidence histograms) per cell on one leg."""
            if kernel == "off":
                monkeypatch.setenv("REPRO_STAGE2_KERNEL", "off")
            else:
                monkeypatch.delenv("REPRO_STAGE2_KERNEL")
            engine = ParallelRunner(jobs=1, verbose=False,
                                    store=ResultStore(tmp_path / kernel))
            events = []
            for drive in (lambda: engine.run(singles + mixes, label="obs"),
                          lambda: engine.run_search_batches(
                              searches, label="obs-search")):
                drive()
                events += read_events(engine.last_events_path)
            counters = sorted(
                (e["cell"], e["name"], e["value"]) for e in events
                if e["type"] == "counter"
                and e["name"].split("/")[0] in ("llc", "sampler", "mpppb"))
            hists = sorted(
                (e["cell"], e["counts"], e["count"], e["sum"], e["min"],
                 e["max"]) for e in events
                if e["type"] == "hist" and e["name"] == "mpppb/confidence")
            return counters, hists

        obs.enable()
        reference = recorded("off")
        counters, hists = reference
        assert {name for _, name, _ in counters} >= {
            "llc/accesses", "llc/hits", "llc/misses", "llc/fills",
            "llc/bypasses", "llc/evictions", "llc/demand-misses",
            "sampler/trainings", "mpppb/bypass-decisions",
            "mpppb/promotions-suppressed"}
        # One confidence histogram per MPPPB single, mix and search cell.
        assert len(hists) == 3 and all(h[2] > 0 for h in hists)
        # Every single and mix cell flushed its own llc/* counters.
        replayed = {cell for cell, name, _ in counters
                    if name == "llc/replays"}
        assert len(replayed) >= len(singles) + len(mixes)

        real_run = LLCSimulator.run
        refused = {"MPPPBPolicy", "LRUPolicy", "PerceptronPolicy",
                   "HawkeyePolicy"}

        def guarded(sim, *args, **kwargs):
            kind = type(sim.policy).__name__
            assert kind not in refused, f"{kind} replay reached LLCSimulator"
            return real_run(sim, *args, **kwargs)

        monkeypatch.setattr(LLCSimulator, "run", guarded)
        assert recorded("kernel") == reference

    def test_serial_and_parallel_span_sets_match(self, tmp_path):
        obs.enable()
        serial = self._run(tmp_path, 1)
        parallel = self._run(tmp_path, 2)

        def span_set(engine):
            return sorted(
                (e["cell"] or "", e["path"])
                for e in read_events(engine.last_events_path)
                if e["type"] == "span"
            )

        assert span_set(serial) == span_set(parallel)

    def test_warm_run_still_covers_cells(self, tmp_path):
        obs.enable()
        cold = self._run(tmp_path, 1)
        store = ResultStore(tmp_path / "cache-1")
        warm_engine = ParallelRunner(jobs=1, store=store, verbose=False)
        warm_engine.run(_cells(), label="obs-test")
        warm = read_events(warm_engine.last_events_path)
        # Cache hits skip compute, so no per-cell spans — but the run
        # event and drive span must still be there, and the hit total
        # must land in the run counters.
        counters = {e["name"]: e["value"] for e in warm
                    if e["type"] == "counter" and e["cell"] is None}
        assert counters["exec/result-cache-hits"] == len(_cells())
        # Same cells + label = same run identity: the warm drive
        # rewrote the cold run's log in place.
        assert warm_engine.last_events_path == cold.last_events_path
