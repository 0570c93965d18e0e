"""Perf gates: the telemetry budgets and the trace-ingest floor.

``python -m repro.cli perf --scale S`` runs :func:`bench_telemetry`
and :func:`bench_ingest`, prints one line for each, and exits 1 when
:func:`check_report` finds a budget exceeded:

* with telemetry off, the estimated instrumentation cost must stay
  under :data:`TELEMETRY_DISABLED_BUDGET` of a Stage-2 replay;
* with telemetry on, the recorded replay may cost at most
  :data:`TELEMETRY_ENABLED_BUDGET` over the unrecorded one;
* every streaming trace reader must decode at least
  :data:`INGEST_MIN_RECORDS_PER_S` records per second.

Figure-level wall time, cold and warm, is measured by the end-to-end
benchmark (``benchmarks/e2e/``), not here.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Any, Dict, List, Tuple

from repro.config import ReproScale
from repro.policies import policy_factory
from repro.sim.single import SingleThreadRunner
from repro.traces.workloads import build_segments

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
# Workload of the telemetry replays.
BENCHMARK = "soplex"
# Best-of-N decodes per ingest format.
REPEATS = 5
# Disabled/enabled replay pairs behind the enabled-overhead median.
PAIRS = 21


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


# -- telemetry overhead (repro.obs, on and off) ----------------------------


def bench_telemetry(scale: ReproScale) -> Dict[str, Any]:
    """Cost of the ``repro.obs`` instrumentation, on and off.

    Times the same mpppb Stage-2/3 replay of :data:`BENCHMARK` (Stage 1
    pre-seeded) with telemetry off and inside a fresh
    :func:`repro.obs.capture` context, both on the default path: the
    enabled run replays through the kernel's instrumented variant, so
    :data:`TELEMETRY_ENABLED_BUDGET` gates what ``--telemetry`` really
    costs.

    A tiny-scale replay takes tens of milliseconds, and host drift
    between a block of disabled replays and a later block of enabled
    ones is larger than the budget.  So after one untimed warm-up
    replay the two sides run in :data:`PAIRS` adjacent pairs, the order
    flipping every pair, and ``enabled_overhead`` is the median of the
    per-pair ``enabled / disabled`` ratios, minus one.

    The instrumented code cannot be compared against an
    un-instrumented build, so the disabled-path cost is *estimated*:
    one disabled :func:`repro.obs.span` round trip is micro-timed
    (``null_span_ns``), multiplied by the span count an enabled replay
    emits, and divided by the fastest disabled replay.  That fraction
    is ``disabled_overhead``.
    """
    from repro import obs

    hierarchy = scale.hierarchy
    segments = build_segments(BENCHMARK, hierarchy.llc_bytes,
                              scale.segment_accesses)
    runner = SingleThreadRunner(hierarchy,
                                warmup_fraction=scale.warmup_fraction)
    for segment in segments:
        runner.upper_result(segment)

    def replay() -> float:
        started = time.perf_counter()
        for segment in segments:
            runner.run_segment(segment, policy_factory("mpppb-1a", None))
        return time.perf_counter() - started

    def recorded_replay() -> Tuple[float, int]:
        """One replay under a fresh capture: (seconds, spans emitted)."""
        obs.enable()
        try:
            with obs.capture() as ctx:
                seconds = replay()
        finally:
            obs.disable()
        return seconds, len(ctx.collector.snapshot())

    obs.disable()
    replay()  # untimed warm-up
    disabled: List[float] = []
    enabled: List[float] = []
    for pair in range(PAIRS):
        if pair % 2:
            enabled_s, spans_per_replay = recorded_replay()
            disabled_s = replay()
        else:
            disabled_s = replay()
            enabled_s, spans_per_replay = recorded_replay()
        disabled.append(disabled_s)
        enabled.append(enabled_s)
    enabled_overhead = statistics.median(
        on / off for on, off in zip(enabled, disabled)) - 1.0

    calls = 200_000
    started = time.perf_counter()
    for _ in range(calls):
        with obs.span("bench"):
            pass
    null_span_ns = (time.perf_counter() - started) / calls * 1e9

    fastest = min(disabled)
    return {
        "benchmark": BENCHMARK,
        "disabled_s": round(fastest, 6),
        "enabled_s": round(min(enabled), 6),
        "enabled_overhead": round(enabled_overhead, 4),
        "null_span_ns": round(null_span_ns, 1),
        "spans_per_replay": spans_per_replay,
        "disabled_overhead": round(
            spans_per_replay * null_span_ns * 1e-9 / fastest, 6),
    }


# -- streaming trace-decode throughput (repro.traces.ingest) ---------------


def bench_ingest() -> Dict[str, Any]:
    """Streamed decode throughput for every real-trace reader.

    Writes one 50,000-record synthetic fixture per format (the text
    fixture is gzip'd, so that arm also pays decompression — the common
    case for real trace archives), then times a full streamed decode of
    each, best of :data:`REPEATS`.  The fixtures encode the *same* record
    sequence, so the per-format numbers are directly comparable.
    :func:`check_report` holds every format above
    :data:`INGEST_MIN_RECORDS_PER_S`.
    """
    import gzip
    import struct
    import tempfile

    from repro.traces.ingest import open_source

    records = 50_000
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

            decode_s = _best_of(REPEATS, decode)
            formats[fmt] = {
                "decode_s": round(decode_s, 6),
                "records_per_s": (round(records / decode_s, 1)
                                  if decode_s > 0 else float("inf")),
                "file_bytes": os.path.getsize(path),
            }
    return {"records": records, "formats": formats}


# -- gate ------------------------------------------------------------------


def check_report(report: Dict[str, Any]) -> List[str]:
    """The budgets a ``{"telemetry": ..., "ingest": ...}`` report fails.

    * Telemetry must respect both budgets: the disabled path under
      :data:`TELEMETRY_DISABLED_BUDGET`, the fully enabled replay
      under :data:`TELEMETRY_ENABLED_BUDGET` overhead.
    * Every streaming trace reader must decode at least
      :data:`INGEST_MIN_RECORDS_PER_S` records per second.

    Returns one message per failed budget (empty = pass).
    """
    failures: List[str] = []
    telemetry = report["telemetry"]
    overhead = telemetry["disabled_overhead"]
    if overhead > TELEMETRY_DISABLED_BUDGET:
        failures.append(
            f"telemetry: disabled-path instrumentation costs "
            f"{overhead:.2%} of a Stage-2 replay "
            f"(budget {TELEMETRY_DISABLED_BUDGET:.0%})"
        )
    enabled = telemetry["enabled_overhead"]
    if enabled > TELEMETRY_ENABLED_BUDGET:
        failures.append(
            f"telemetry: enabled-path overhead {enabled:.2%} over "
            f"the uninstrumented replay (budget "
            f"{TELEMETRY_ENABLED_BUDGET:.0%})"
        )
    for fmt, stats in sorted(report["ingest"]["formats"].items()):
        rate = stats["records_per_s"]
        if rate < INGEST_MIN_RECORDS_PER_S:
            failures.append(
                f"ingest: {fmt} decode {rate:,.0f} records/s under "
                f"the {INGEST_MIN_RECORDS_PER_S:,.0f} floor"
            )
    return failures


def format_report(report: Dict[str, Any]) -> str:
    """One line per section."""
    telemetry = report["telemetry"]
    ingest = report["ingest"]
    rates = "  ".join(
        f"{fmt} {stats['records_per_s'] / 1e3:.0f}k/s"
        for fmt, stats in sorted(ingest["formats"].items())
    )
    return "\n".join([
        f"telemetry {telemetry['benchmark']}: "
        f"off {telemetry['disabled_s']:.4f}s  "
        f"on {telemetry['enabled_s']:.4f}s  "
        f"enabled {telemetry['enabled_overhead']:+.2%} "
        f"(median of {PAIRS} pairs)  "
        f"off-path {telemetry['disabled_overhead']:.2%} "
        f"(null span {telemetry['null_span_ns']:.0f}ns)",
        f"ingest {ingest['records']} records: {rates}",
    ])
