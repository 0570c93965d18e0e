"""Hot-path performance harness.

Times the three pipeline stages in isolation and an end-to-end
policy compare against cold and warm artifact caches, producing the
``BENCH_hotpath.json`` report the CI perf-smoke job gates on.

Report schema (``REPORT_SCHEMA``)::

    {
      "schema": 11,               # REPORT_SCHEMA, not the cache schema
      "scale": "tiny",
      "benchmark": "soplex",      # hot-path micro-benchmark workload
      "accesses": 4000,
      "repeats": 3,               # best-of-N for every timing
      "hotpath": {
        "trace_gen_s": float,     # synthesize all segments once
        "stage1_s": float,        # upper-level hierarchy, all segments
        "stage2": {               # per policy: Stage 2+3 replay on the
          "<policy>": float       # default path (the columnar kernel
        }                         # for mpppb/perceptron/hawkeye)
      },
      "telemetry": {              # repro.obs instrumentation cost
        "benchmark": str,
        "disabled_s": float,      # replay, telemetry off (the default)
        "enabled_s": float,       # replay inside obs.capture()
        "enabled_overhead": float,    # enabled_s/disabled_s - 1
        "null_span_ns": float,    # one disabled obs.span() round trip
        "spans_per_replay": int,  # span records an enabled replay emits
        "disabled_overhead": float    # estimated disabled-path fraction
      },
      "compare": {                # end-to-end engine compare
        "benchmarks": [...], "policies": [...],
        "cold_s": float,          # empty artifact cache, empty memos
        "warm_s": float,          # artifact cache from the cold run
        "speedup": float          # cold_s / warm_s
      },
      "ingest": {                 # streaming trace-decode throughput
        "records": int,           # fixture size, records per format
        "formats": {              # per trace format (repro.traces.ingest)
          "<fmt>": {
            "decode_s": float,    # full streamed decode, best-of-N
            "records_per_s": float,
            "file_bytes": int     # on-disk fixture size (gz'd for text)
          }
        }
      }
    }

All timings are best-of-``repeats`` wall seconds: minimums are far more
stable than means on shared CI runners.  :func:`check_report` gates the
telemetry budgets (estimated instrumentation cost with telemetry off
must stay under 2% of a Stage-2 replay; the recording path, which runs
the instrumented kernel, under 15%) and trace-ingest throughput.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.config import ReproScale, get_scale
from repro.policies import policy_factory
from repro.sim.hierarchy import UpperLevels
from repro.sim.single import SingleThreadRunner
from repro.traces.trace import Segment
from repro.traces.workloads import build_segments

REPORT_SCHEMA = 11
# Instrumentation with telemetry disabled may cost at most this
# fraction of a Stage-2 replay (the obs layer's headline promise).
TELEMETRY_DISABLED_BUDGET = 0.02
# With telemetry *enabled*, the fully observed replay may cost at most
# this much over the disabled one.  The batched counter flush
# (``obs.inc_many``) and lock-free span append hold it near 7% on an
# idle host; the budget leaves headroom for shared CI runners.
TELEMETRY_ENABLED_BUDGET = 0.15
# Every streaming trace reader must decode at least this many records
# per second — a floor far under steady-state (the pure-Python text
# parser clears it by an order of magnitude on an idle host) chosen so
# only a genuine algorithmic regression, not CI-runner noise, trips it.
INGEST_MIN_RECORDS_PER_S = 20_000.0
DEFAULT_REPORT = "BENCH_hotpath.json"
DEFAULT_POLICIES = ("lru", "srrip", "mpppb-1a")
# Cache-friendly workloads whose LLC streams are short: the shared
# stages (trace synthesis + Stage 1) dominate the compare, which is
# exactly what the artifact cache removes on the warm run.
DEFAULT_COMPARE_BENCHMARKS = ("gamess", "hmmer", "povray")


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# -- stage micro-benchmarks ------------------------------------------------


def bench_hotpath(scale: ReproScale, benchmark: str,
                  policies: Sequence[str], repeats: int) -> Dict[str, Any]:
    """Per-stage timings for one benchmark at one scale."""
    hierarchy = scale.hierarchy
    accesses = scale.segment_accesses

    trace_gen_s = _best_of(repeats, lambda: build_segments(
        benchmark, hierarchy.llc_bytes, accesses))
    segments: List[Segment] = build_segments(benchmark, hierarchy.llc_bytes,
                                             accesses)

    upper = UpperLevels(hierarchy)
    stage1_s = _best_of(repeats, lambda: [upper.run(s.trace)
                                          for s in segments])

    # Stage 2+3 replay through the single-thread runner with Stage 1
    # pre-seeded, so each timing covers exactly the per-policy work a
    # compare pays after the shared stages are cached.
    runner = SingleThreadRunner(hierarchy,
                                warmup_fraction=scale.warmup_fraction)
    for segment in segments:
        runner.upper_result(segment)

    stage2 = {
        policy: _best_of(repeats, lambda: [
            runner.run_segment(s, policy_factory(policy, None))
            for s in segments
        ])
        for policy in policies
    }

    return {
        "trace_gen_s": round(trace_gen_s, 6),
        "stage1_s": round(stage1_s, 6),
        "stage2": {p: round(t, 6) for p, t in stage2.items()},
    }


# -- telemetry overhead (repro.obs disabled fast path) ---------------------


def bench_telemetry(scale: ReproScale, benchmark: str,
                    repeats: int) -> Dict[str, Any]:
    """Cost of the ``repro.obs`` instrumentation, on and off.

    ``disabled_s`` vs ``enabled_s`` time the same mpppb Stage-2/3
    replay (Stage 1 pre-seeded) with telemetry off and inside a fresh
    :func:`repro.obs.capture` context, both on the default path: the
    enabled run replays through the kernel's instrumented variant, so
    :data:`TELEMETRY_ENABLED_BUDGET` gates what ``--telemetry`` really
    costs.  The instrumented code cannot be
    compared against an un-instrumented build, so the disabled-path
    cost is *estimated*: one disabled :func:`repro.obs.span` round trip
    is micro-timed (``null_span_ns``), multiplied by the span count an
    enabled replay actually emits, and divided by the disabled replay
    time.  That fraction — ``disabled_overhead`` — is what
    :func:`check_report` holds under :data:`TELEMETRY_DISABLED_BUDGET`.
    """
    from repro import obs

    hierarchy = scale.hierarchy
    segments = build_segments(benchmark, hierarchy.llc_bytes,
                              scale.segment_accesses)
    runner = SingleThreadRunner(hierarchy,
                                warmup_fraction=scale.warmup_fraction)
    for segment in segments:
        runner.upper_result(segment)

    def replay() -> None:
        for segment in segments:
            runner.run_segment(segment, policy_factory("mpppb-1a", None))

    obs.disable()
    disabled_s = _best_of(repeats, replay)

    spans_per_replay = 0
    obs.enable()
    try:
        def enabled_replay() -> None:
            with obs.capture():
                replay()
        enabled_s = _best_of(repeats, enabled_replay)
        with obs.capture() as ctx:
            replay()
        spans_per_replay = len(ctx.payload()["spans"])
    finally:
        obs.disable()

    calls = 200_000
    started = time.perf_counter()
    for _ in range(calls):
        with obs.span("bench"):
            pass
    null_span_ns = (time.perf_counter() - started) / calls * 1e9

    disabled_overhead = (
        spans_per_replay * null_span_ns * 1e-9 / disabled_s
        if disabled_s > 0 else 0.0
    )
    return {
        "benchmark": benchmark,
        "disabled_s": round(disabled_s, 6),
        "enabled_s": round(enabled_s, 6),
        "enabled_overhead": round(enabled_s / disabled_s - 1.0, 4)
        if disabled_s > 0 else 0.0,
        "null_span_ns": round(null_span_ns, 1),
        "spans_per_replay": spans_per_replay,
        "disabled_overhead": round(disabled_overhead, 6),
    }


# -- end-to-end compare (cold vs warm artifact cache) ----------------------


def bench_compare(scale: ReproScale, benchmarks: Sequence[str],
                  policies: Sequence[str], cache_root: str,
                  repeats: int = 1) -> Dict[str, Any]:
    """Time a serial multi-policy compare, cold then artifact-warm.

    Both runs disable the *result* store (every cell computes) and
    clear the in-process segment/runner memos first, so the only
    difference between them is whether trace and Stage-1 artifacts are
    already on disk — exactly the state a fresh worker process or a
    second invocation sees.  The cold/warm pair repeats best-of-N
    (cache cleared between pairs) to keep the speedup ratio stable.
    """
    import shutil

    from repro.exec import runner as exec_runner
    from repro.exec.runner import ParallelRunner, SingleCell, TraceSpec

    def build_cells():
        return [
            SingleCell(
                trace=TraceSpec(name, scale.hierarchy.llc_bytes,
                                scale.segment_accesses),
                policy=policy,
                hierarchy=scale.hierarchy,
                warmup_fraction=scale.warmup_fraction,
            )
            for policy in policies for name in benchmarks
        ]

    def timed_run() -> float:
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()
        engine = ParallelRunner(jobs=1, store=None, verbose=False)
        # No result store, artifacts only: the harness measures the
        # shared-stage cache, not result-blob reuse.
        engine.artifact_root = cache_root
        started = time.perf_counter()
        engine.run(build_cells(), label="perf")
        return time.perf_counter() - started

    cold_s = warm_s = float("inf")
    for attempt in range(max(1, repeats)):
        if attempt:
            shutil.rmtree(cache_root, ignore_errors=True)
            os.makedirs(cache_root, exist_ok=True)
        cold_s = min(cold_s, timed_run())
        warm_s = min(warm_s, timed_run())
    return {
        "benchmarks": list(benchmarks),
        "policies": list(policies),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "speedup": round(cold_s / warm_s, 3) if warm_s > 0 else float("inf"),
    }


# -- streaming trace-decode throughput (repro.traces.ingest) ---------------


def bench_ingest(repeats: int, records: int = 50_000) -> Dict[str, Any]:
    """Streamed decode throughput for every real-trace reader.

    Writes one synthetic fixture per format (the text fixture is
    gzip'd, so that arm also pays decompression — the common case for
    real trace archives), then times a full streamed decode of each.
    The fixtures encode the *same* record sequence, so the per-format
    numbers are directly comparable.  :func:`check_report` holds every
    format above :data:`INGEST_MIN_RECORDS_PER_S`.
    """
    import gzip
    import struct
    import tempfile

    from repro.traces.ingest import open_source

    state = 0x2017
    rows = []
    for _ in range(records):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        rows.append((0x400 + 4 * (state % 251),
                     0x10000 + 64 * ((state >> 16) % 4096),
                     state % 5 == 0, state % 3, state % 11 == 0))

    formats: Dict[str, Dict[str, Any]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        champsim = os.path.join(tmp, "fixture.bin")
        pack = struct.Struct("<QQIB3x").pack
        with open(champsim, "wb") as handle:
            for pc, addr, write, gap, dep in rows:
                handle.write(pack(pc, addr, gap,
                                  (1 if write else 0) | (2 if dep else 0)))

        text = os.path.join(tmp, "fixture.trace.gz")
        body = "\n".join(
            f"0x{pc:x} 0x{addr:x} {'w' if write else 'r'} {gap} "
            f"{1 if dep else 0}"
            for pc, addr, write, gap, dep in rows
        ) + "\n"
        with open(text, "wb") as handle:
            handle.write(gzip.compress(body.encode()))

        csv_path = os.path.join(tmp, "fixture.csv")
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write("pc,addr,is_write,gap,dep\n")
            for pc, addr, write, gap, dep in rows:
                handle.write(f"{pc},{addr},{1 if write else 0},{gap},"
                             f"{1 if dep else 0}\n")

        for fmt, path in (("champsim", champsim), ("text", text),
                          ("csv", csv_path)):
            def decode() -> None:
                count = sum(1 for _ in open_source(path, fmt).records())
                assert count == records

            decode_s = _best_of(repeats, decode)
            formats[fmt] = {
                "decode_s": round(decode_s, 6),
                "records_per_s": (round(records / decode_s, 1)
                                  if decode_s > 0 else float("inf")),
                "file_bytes": os.path.getsize(path),
            }
    return {"records": records, "formats": formats}


# -- report ----------------------------------------------------------------


def build_report(scale_name: str = "", benchmark: str = "soplex",
                 benchmarks: Sequence[str] = DEFAULT_COMPARE_BENCHMARKS,
                 policies: Sequence[str] = DEFAULT_POLICIES,
                 repeats: int = 3,
                 cache_root: Optional[str] = None) -> Dict[str, Any]:
    """Run the full harness; returns the report payload."""
    import tempfile

    scale = get_scale(scale_name)
    report: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "scale": scale.name,
        "benchmark": benchmark,
        "accesses": scale.segment_accesses,
        "repeats": repeats,
        "hotpath": bench_hotpath(scale, benchmark, policies, repeats),
        "telemetry": bench_telemetry(scale, benchmark, repeats),
        "ingest": bench_ingest(repeats),
    }
    if cache_root is None:
        with tempfile.TemporaryDirectory() as tmp:
            report["compare"] = bench_compare(scale, benchmarks, policies,
                                              tmp, repeats=repeats)
    else:
        report["compare"] = bench_compare(scale, benchmarks, policies,
                                          cache_root, repeats=repeats)
    return report


def check_report(report: Dict[str, Any],
                 tolerance: float = 1.0) -> List[str]:
    """Regression gate on the report's budgets.

    * Telemetry must respect both budgets: the disabled path under
      :data:`TELEMETRY_DISABLED_BUDGET`, the fully enabled replay
      under :data:`TELEMETRY_ENABLED_BUDGET` overhead.
    * Every streaming trace reader must decode at least
      :data:`INGEST_MIN_RECORDS_PER_S` records per second.

    Returns a list of failure messages (empty = pass).
    """
    failures: List[str] = []
    telemetry = report.get("telemetry")
    if telemetry is not None:
        overhead = telemetry["disabled_overhead"]
        if overhead > TELEMETRY_DISABLED_BUDGET:
            failures.append(
                f"telemetry: disabled-path instrumentation costs "
                f"{overhead:.2%} of a Stage-2 replay "
                f"(budget {TELEMETRY_DISABLED_BUDGET:.0%})"
            )
        enabled = telemetry.get("enabled_overhead")
        if (enabled is not None
                and enabled > TELEMETRY_ENABLED_BUDGET * tolerance):
            failures.append(
                f"telemetry: enabled-path overhead {enabled:.2%} over "
                f"the uninstrumented replay (budget "
                f"{TELEMETRY_ENABLED_BUDGET:.0%}, tolerance x{tolerance})"
            )
    ingest = report.get("ingest")
    if ingest is not None:
        for fmt, stats in sorted(ingest["formats"].items()):
            rate = stats["records_per_s"]
            if rate * tolerance < INGEST_MIN_RECORDS_PER_S:
                failures.append(
                    f"ingest: {fmt} decode {rate:,.0f} records/s under "
                    f"the {INGEST_MIN_RECORDS_PER_S:,.0f} floor "
                    f"(tolerance x{tolerance})"
                )
    return failures


def format_report(report: Dict[str, Any]) -> str:
    hot = report["hotpath"]
    lines = [
        f"perf[{report['scale']}] {report['benchmark']} "
        f"({report['accesses']} accesses, best of {report['repeats']})",
        f"  trace gen {hot['trace_gen_s']:8.4f}s   "
        f"stage 1 {hot['stage1_s']:8.4f}s",
    ]
    for policy, seconds in hot["stage2"].items():
        lines.append(f"  stage 2 {policy:12s} {seconds:8.4f}s")
    telemetry = report.get("telemetry")
    if telemetry is not None:
        lines.append(
            f"  obs     {telemetry['benchmark']:12s} "
            f"off {telemetry['disabled_s']:8.4f}s   "
            f"on {telemetry['enabled_s']:9.4f}s   "
            f"(off-path {telemetry['disabled_overhead']:.2%}, "
            f"null span {telemetry['null_span_ns']:.0f}ns)"
        )
    ingest = report.get("ingest")
    if ingest is not None:
        rates = "  ".join(
            f"{fmt} {ingest['formats'][fmt]['records_per_s'] / 1e3:.0f}k/s"
            for fmt in sorted(ingest["formats"])
        )
        lines.append(
            f"  ingest  {ingest['records']} records: {rates}"
        )
    cmp_ = report["compare"]
    lines.append(
        f"  compare {len(cmp_['policies'])} policies x "
        f"{len(cmp_['benchmarks'])} benchmarks: "
        f"cold {cmp_['cold_s']:.3f}s  warm {cmp_['warm_s']:.3f}s  "
        f"({cmp_['speedup']:.2f}x with warm artifacts)"
    )
    return "\n".join(lines)


def write_report(report: Dict[str, Any],
                 path: str = DEFAULT_REPORT) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
