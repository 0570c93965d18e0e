"""Command-line interface.

Eight subcommands cover the library's main entry points::

    python -m repro.cli compare  --benchmarks soplex mcf --policies lru mpppb-1a
    python -m repro.cli roc      --benchmark sphinx3
    python -m repro.cli search   --candidates 20 --steps 10
    python -m repro.cli mix      --mixes 4 --policies lru mpppb-mp
    python -m repro.cli perf     --scale tiny
    python -m repro.cli cache    stats
    python -m repro.cli resume   [RUN_ID]
    python -m repro.cli stats    [RUN_ID]

The first five honor ``--scale`` (or the ``REPRO_SCALE`` environment
variable), and the first four print the same table layouts the bench
harness uses.  ``perf`` exits 1 when a telemetry or trace-ingest
budget (:mod:`repro.perf`) fails.

``compare``, ``search``, and ``mix`` run through the ``repro.exec``
engine: ``--jobs N`` (or ``REPRO_JOBS``) fans independent experiment
cells across worker processes, and ``--cache-dir`` (or
``REPRO_CACHE_DIR``; default ``.repro-cache``, ``off`` to disable)
reuses results across invocations via the on-disk cache.  :func:`main`
resolves every flag and ``REPRO_*`` setting into one run config
(:mod:`repro.config`) before dispatching, so a bad value is a one-line
error before any work.

Failure handling (DESIGN.md section 11): ``--retries`` re-runs failing
cells, ``--cell-timeout`` bounds per-cell wall time, and ``--on-error``
picks between completing with partial results (``collect``, the
default) and failing fast (``raise``).  Interrupted or failed runs are
recorded in run manifests; ``repro.cli resume`` lists them and
re-drives the unfinished cells.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro import obs
from repro import (
    TrainedMultiperspective,
    build_suite,
    generate_mixes,
    measure_roc,
    normalized_weighted_speedups,
    policy_names,
    single_thread_config,
)
from repro.config import SETTINGS, ConfigError, resolve_config
from repro.exec import (
    CellExecutionError,
    MixCell,
    ParallelRunner,
    ResultStore,
    SingleCell,
    SuiteSpec,
    TraceSpec,
    list_runs,
)
from repro.report import (
    mpki_table,
    speedup_table,
    weighted_speedup_summary,
)
from repro.search.evaluator import FeatureSetEvaluator
from repro.traces.ingest import (
    FORMATS,
    IngestSpec,
    parse_weights,
    resolve_ingest,
)
from repro.traces.workloads import benchmark_names


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="",
                        help="tiny / small / paper (default: $REPRO_SCALE)")


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-file", default=None, metavar="PATH",
                        help="ingest a real trace file as an extra workload "
                             "(gzip transparent)")
    parser.add_argument("--trace-format", default=None, choices=FORMATS,
                        help="trace format (default: inferred from the "
                             "file name)")
    parser.add_argument("--trace-name", default=None, metavar="NAME",
                        help="workload name for the ingested trace "
                             "(default: the file stem)")
    parser.add_argument("--trace-skip", type=int, default=0, metavar="N",
                        help="records to skip before the measured window "
                             "(default: 0)")
    parser.add_argument("--trace-accesses", type=int, default=None,
                        metavar="N",
                        help="records per segment window (default: the "
                             "--scale budget)")
    parser.add_argument("--trace-segments", type=int, default=1,
                        metavar="K",
                        help="consecutive SimPoint-style segment windows "
                             "(default: 1)")
    parser.add_argument("--trace-weights", default=None, metavar="W1,W2,...",
                        help="per-segment weights (default: equal)")


def _resolve_trace(args: argparse.Namespace,
                   default_accesses: int) -> Optional[IngestSpec]:
    """The --trace-* flags as an ingest spec (None without --trace-file).

    Resolution happens once, here: the content digest is computed (or
    revalidated from its sidecar) before any cell is scheduled, so
    workers, local or on ssh hosts, receive a finished recipe and only
    ever re-open the file to decode it.
    """
    if not args.trace_file:
        return None
    accesses = args.trace_accesses
    weights = parse_weights(args.trace_weights) if args.trace_weights else ()
    return resolve_ingest(
        args.trace_file, fmt=args.trace_format, name=args.trace_name,
        skip=args.trace_skip,
        accesses=default_accesses if accesses is None else accesses,
        segments=args.trace_segments, weights=weights,
        reserved=benchmark_names(),
    )


def _add_exec(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_JOBS or 1; "
                             "0 = one per CPU)")
    parser.add_argument("--cache-dir", default="", metavar="DIR",
                        help="on-disk result cache (default: $REPRO_CACHE_DIR "
                             "or .repro-cache; 'off' disables)")
    parser.add_argument("--on-error", default=None,
                        choices=("collect", "raise"),
                        help="on cell failure: finish with partial results "
                             "('collect', default) or fail fast ('raise')")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="re-run a failing cell up to N times "
                             "(default: 0)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="abandon cells running longer than this "
                             "(default: 0 = off)")
    parser.add_argument("--telemetry", action="store_true",
                        help="record spans and metrics to "
                             "<cache>/runs/<run-id>.events.jsonl "
                             "(also: REPRO_TELEMETRY=1); inspect with "
                             "'repro.cli stats'")
    parser.add_argument("--workers", default=None, metavar="SPEC",
                        help="run workers on ssh hosts, 'host[:slots],...' "
                             "(default: $REPRO_WORKERS; without it, --jobs "
                             "local workers)")
    parser.add_argument("--shared-store", default=None, metavar="DIR",
                        help="shared read-through result-store tier "
                             "(default: $REPRO_SHARED_STORE; 'off' "
                             "disables)")


#: Engine backing the currently dispatched command, so the top-level
#: KeyboardInterrupt handler can report partial progress.
_ACTIVE_ENGINE: Optional[ParallelRunner] = None


def _flags(args: argparse.Namespace) -> Dict[str, Any]:
    """This command's run-config flags, by field; absent ones are None."""
    flags = {setting.field: getattr(args, setting.field, None)
             for setting in SETTINGS if setting.flag}
    # --telemetry can only turn telemetry on; without it, the
    # variable decides.
    flags["telemetry"] = flags["telemetry"] or None
    return flags


def _engine(args: argparse.Namespace) -> ParallelRunner:
    global _ACTIVE_ENGINE
    # The telemetry switch is process-global; decide it both ways here
    # so back-to-back main() calls in one process never leak state.
    if args.config.telemetry:
        obs.enable()
    else:
        obs.disable()
    _ACTIVE_ENGINE = ParallelRunner(command=args.argv, **_flags(args))
    return _ACTIVE_ENGINE


def _cache_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """The result cache ``--cache-dir`` / ``REPRO_CACHE_DIR`` names."""
    cache_dir = args.config.cache_dir
    return None if cache_dir is None else ResultStore(cache_dir)


def _resume_hint(engine: Optional[ParallelRunner]) -> Optional[str]:
    manifest = engine.last_manifest if engine is not None else None
    if manifest is None or manifest.is_complete:
        return None
    return (f"resume with: python -m repro.cli resume "
            f"{manifest.run_id[:12]}")


def _report_failures(engine: ParallelRunner) -> bool:
    """Print terminal cell failures (if any); True when the run failed."""
    report = engine.last_report
    if report is None or not report.failures:
        return False
    print(report.failures_table(), file=sys.stderr)
    cached = ("; partial results were cached"
              if engine.store is not None else "")
    print(f"error: {len(report.failures)} cell(s) failed{cached}",
          file=sys.stderr)
    hint = _resume_hint(engine)
    if hint:
        print(hint, file=sys.stderr)
    return True


def cmd_compare(args: argparse.Namespace) -> int:
    _check_names(args, "benchmarks", "policies")
    scale = args.config.scale
    ingest = _resolve_trace(args, scale.segment_accesses)
    if args.benchmarks:
        names = list(args.benchmarks)
    elif ingest is not None:
        names = []  # --trace-file alone compares just the ingested workload
    else:
        names = ["soplex", "mcf", "lbm", "gamess"]
    unknown = set(names) - set(benchmark_names())
    if unknown:
        print(f"unknown benchmarks: {sorted(unknown)}", file=sys.stderr)
        return 2
    if ingest is not None:
        names.append(ingest.name)
    ordered = sorted(dict.fromkeys(names))

    def _trace_spec(name: str) -> TraceSpec:
        spec = TraceSpec(name, scale.hierarchy.llc_bytes,
                         scale.segment_accesses)
        if ingest is not None and name == ingest.name:
            spec = TraceSpec(name, scale.hierarchy.llc_bytes,
                             scale.segment_accesses, ingest=ingest)
        return spec

    engine = _engine(args)
    results = {}
    failed = False
    for policy in args.policies:
        cells = [
            SingleCell(
                trace=_trace_spec(name),
                policy=policy,
                hierarchy=scale.hierarchy,
                warmup_fraction=scale.warmup_fraction,
            )
            for name in ordered
        ]
        results[policy] = dict(
            zip(ordered, engine.run(cells, label=f"compare/{policy}"))
        )
        print(engine.last_report.summary())
        failed = _report_failures(engine) or failed
    if failed:
        return 1
    print(mpki_table(results))
    if "lru" in results and len(results) > 1:
        print()
        print(speedup_table(results, baseline="lru"))
    return 0


def cmd_roc(args: argparse.Namespace) -> int:
    from repro.predictors.perceptron import PerceptronPredictor
    from repro.predictors.sdbp import SDBPPredictor
    from repro.sim.hierarchy import UpperLevels
    from repro.traces.workloads import build_segments
    from repro.util.stats import auc

    scale = args.config.scale
    hierarchy = scale.hierarchy
    num_sets = hierarchy.llc_bytes // (hierarchy.llc_ways * 64)
    ingest = _resolve_trace(args, scale.segment_accesses)
    if ingest is not None:
        segment = ingest.build()[0]
    else:
        segment = build_segments(args.benchmark, hierarchy.llc_bytes,
                                 scale.segment_accesses)[0]
    upper = UpperLevels(hierarchy).run(segment.trace)
    predictors = {
        "sdbp": SDBPPredictor(num_sets),
        "perceptron": PerceptronPredictor(num_sets),
        "multiperspective": TrainedMultiperspective(
            single_thread_config("a"), llc_sets=num_sets),
    }
    print(f"{'predictor':18s} {'AUC':>6s}")
    for name, predictor in predictors.items():
        result = measure_roc(predictor, upper.llc_stream, segment.trace.pcs,
                             hierarchy.llc_bytes, hierarchy.llc_ways,
                             warmup=len(upper.llc_stream) // 4)
        points = result.curve(result.default_thresholds(49))
        print(f"{name:18s} {auc(points):6.3f}")
    return 0


def _check_counts(args: argparse.Namespace, **floors: int) -> None:
    """Fail a count flag under its floor as one line, before any work.

    ``floors`` maps argparse destinations to the least value each
    accepts; an unset (``None``) flag passes.
    """
    for dest, floor in floors.items():
        value = getattr(args, dest)
        if value is not None and value < floor:
            flag = "--" + dest.replace("_", "-")
            raise ConfigError(
                f"{flag} must be an integer >= {floor}, got {value}")


def _check_names(args: argparse.Namespace, *dests: str) -> None:
    """Fail an empty name list, or the bare ``mpppb`` policy, as one
    line, before any work.

    An unset (``None``) list passes: the command's default applies.
    ``mpppb`` is a registry name for an explicit feature config, which
    no command-line flag supplies.
    """
    for dest in dests:
        names = getattr(args, dest)
        if names is not None and not names:
            raise ConfigError(f"--{dest} needs at least one name")
    if "mpppb" in (getattr(args, "policies", None) or ()):
        raise ConfigError(
            "--policies: 'mpppb' needs an explicit feature config; use "
            "mpppb-1a, mpppb-1b or mpppb-mp")


def cmd_search(args: argparse.Namespace) -> int:
    from repro.search import hill_climb, random_search

    _check_counts(args, candidates=1, steps=0, batch_size=1)
    scale = args.config.scale
    accesses = max(2_000, scale.segment_accesses // 4)
    ingest = _resolve_trace(args, accesses)
    spec = SuiteSpec(
        scale.hierarchy.llc_bytes, accesses,
        names=("soplex", "lbm", "gamess"),
        ingest=() if ingest is None else (ingest,),
    )
    engine = _engine(args)
    evaluator = FeatureSetEvaluator.from_spec(
        spec, scale.hierarchy, warmup_fraction=scale.warmup_fraction,
        executor=engine, batch_size=args.batch_size,
    )
    candidates = random_search(evaluator, args.candidates, seed=args.seed)
    if engine.last_report is not None:
        print(engine.last_report.summary())
    print(f"best random set: {candidates[0].mpki:.3f} MPKI "
          f"(worst {candidates[-1].mpki:.3f})")
    refined = hill_climb(evaluator, candidates[0].features, steps=args.steps,
                         seed=args.seed)
    print(f"hill-climbed:    {refined.mpki:.3f} MPKI")
    for feature in refined.features:
        print(f"  {feature.spec()}")
    return 0


def cmd_mix(args: argparse.Namespace) -> int:
    _check_counts(args, mixes=1)
    _check_names(args, "policies")
    scale = args.config.scale
    accesses = max(2_000, scale.segment_accesses // 3)
    ingest = _resolve_trace(args, accesses)
    suite_spec = SuiteSpec(scale.hierarchy.llc_bytes, accesses,
                           ingest=() if ingest is None else (ingest,))
    if ingest is None:
        suite = build_suite(scale.hierarchy.llc_bytes, accesses)
        segments = [s for name in sorted(suite) for s in suite[name]]
    else:
        segments = suite_spec.build()
    mixes = generate_mixes(segments, args.mixes)
    engine = _engine(args)
    results = {}
    failed = False
    for policy in args.policies:
        cells = [
            MixCell(
                suite=suite_spec,
                mix_name=mix.name,
                segment_names=tuple(s.name for s in mix.segments),
                policy=policy,
                hierarchy=scale.multi_hierarchy,
                warmup_fraction=scale.warmup_fraction,
            )
            for mix in mixes
        ]
        results[policy] = engine.run(cells, label=f"mix/{policy}")
        print(engine.last_report.summary())
        failed = _report_failures(engine) or failed
    if failed:
        return 1
    if "lru" not in results:
        print("note: add 'lru' to --policies for normalized speedups")
        for policy, mix_results in results.items():
            ws = [r.weighted_speedup for r in mix_results]
            print(f"{policy}: raw weighted speedups {[round(v, 3) for v in ws]}")
        return 0
    normalized = normalized_weighted_speedups(results, baseline="lru")
    print(weighted_speedup_summary(
        {p: v for p, v in normalized.items() if p != "lru"}
    ))
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    from repro.perf import (
        bench_ingest,
        bench_telemetry,
        check_report,
        format_report,
    )

    report = {"telemetry": bench_telemetry(args.config.scale),
              "ingest": bench_ingest()}
    print(format_report(report))
    failures = check_report(report)
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _span_rows(events, wall_s: float, top: int):
    """Aggregate span events into tree-ordered table rows."""
    totals = {}
    for event in events:
        if event.get("type") != "span":
            continue
        path = event.get("path", event.get("name", "?"))
        count, total = totals.get(path, (0, 0.0))
        totals[path] = (count + 1, total + float(event.get("dur_s", 0.0)))
    rows = []
    for path in sorted(totals):
        count, total = totals[path]
        depth = path.count("/")
        name = "  " * depth + path.rsplit("/", 1)[-1]
        share = total / wall_s if wall_s > 0 else 0.0
        rows.append([name, count, total, 1000.0 * total / count,
                     f"{share:.0%}"])
    return rows[: top if top > 0 else None]


def _coverage(events, wall_s: float) -> float:
    """Fraction of run wall time covered by top-level spans."""
    drive = sum(float(e.get("dur_s", 0.0)) for e in events
                if e.get("type") == "span" and e.get("cell") is None
                and e.get("path") == "drive")
    if drive <= 0.0:
        drive = sum(float(e.get("dur_s", 0.0)) for e in events
                    if e.get("type") == "span" and e.get("path") == "cell")
    return min(1.0, drive / wall_s) if wall_s > 0 else 0.0


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.obs.events import list_event_logs, read_events
    from repro.obs.metrics import Histogram
    from repro.report import format_table

    store = _cache_store(args)
    if store is None:
        print("error: stats needs the result cache "
              "(--cache-dir / REPRO_CACHE_DIR is disabled)", file=sys.stderr)
        return 2
    logs = list(list_event_logs(store.root))
    if not args.run_id:
        if not logs:
            print("no recorded telemetry (run a command with --telemetry)")
            return 0
        rows = []
        for run_id, path in logs:
            events = read_events(path)
            run = events[0] if events and events[0].get("type") == "run" else {}
            spans = sum(1 for e in events if e.get("type") == "span")
            rows.append([run_id[:12], run.get("label", "?"),
                         run.get("cells", "?"), spans,
                         float(run.get("wall_s", 0.0))])
        print(format_table(["run id", "label", "cells", "spans", "wall s"],
                           rows))
        return 0

    matches = [(run_id, path) for run_id, path in logs
               if run_id.startswith(args.run_id)]
    if not matches:
        print(f"error: no telemetry matches {args.run_id!r}", file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(f"error: run id {args.run_id!r} is ambiguous "
              f"({len(matches)} matches); use more digits", file=sys.stderr)
        return 2
    run_id, path = matches[0]
    events = read_events(path)
    if not events:
        print(f"error: telemetry for {run_id[:12]} is unreadable",
              file=sys.stderr)
        return 2
    run = events[0] if events[0].get("type") == "run" else {}
    wall_s = float(run.get("wall_s", 0.0))
    print(f"run {run_id[:12]}  label={run.get('label', '?')}  "
          f"jobs={run.get('jobs', '?')}  "
          f"cells={run.get('cells', '?')}/{run.get('planned', '?')}  "
          f"wall={wall_s:.2f}s")
    print(f"span coverage: {_coverage(events, wall_s):.0%} of wall time")

    span_rows = _span_rows(events, wall_s, args.top)
    if span_rows:
        print()
        print(format_table(["span", "count", "total s", "mean ms", "wall"],
                           span_rows))

    counters = {}
    for event in events:
        if event.get("type") == "counter":
            name = event.get("name", "?")
            counters[name] = counters.get(name, 0) + int(event.get("value", 0))
    if counters:
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        print()
        print(format_table(["counter", "value"],
                           [[name, value] for name, value
                            in ranked[: args.top if args.top > 0 else None]]))

    hists = {}
    for event in events:
        if event.get("type") != "hist":
            continue
        name = event.get("name", "?")
        try:
            if name in hists:
                hists[name].merge(event)
            else:
                hists[name] = Histogram.from_dict(event)
        except (KeyError, ValueError, TypeError):
            continue
    if hists:
        rows = []
        for name in sorted(hists):
            hist = hists[name]
            rows.append([name, hist.count, hist.mean,
                         0.0 if hist.min is None else float(hist.min),
                         0.0 if hist.max is None else float(hist.max),
                         "/".join(str(c) for c in hist.counts)])
        print()
        print(format_table(
            ["histogram", "count", "mean", "min", "max", "buckets"], rows))
    return 0


def _parse_size(text: str) -> int:
    """``500M``/``2G``-style sizes to bytes (plain ints pass through).

    Malformed or negative sizes raise :class:`ValueError` (an infinite
    one, :class:`OverflowError`).
    """
    units = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
    text = text.strip().lower().rstrip("b")
    if text and text[-1] in units:
        size = int(float(text[:-1]) * units[text[-1]])
    else:
        size = int(text)
    if size < 0:
        raise ValueError(f"negative size: {text!r}")
    return size


def _format_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{size:.1f} GiB"


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.exec.artifacts import peek_kind
    from repro.obs.events import list_event_logs, read_events
    from repro.report import format_table

    store = _cache_store(args)
    if store is None:
        print("error: cache maintenance needs the result cache "
              "(--cache-dir / REPRO_CACHE_DIR is disabled)", file=sys.stderr)
        return 2

    if args.action == "clear":
        removed = store.clear()
        print(f"cleared {removed} blobs from {store.root}")
        return 0

    if args.action == "gc":
        if args.max_entries is None and args.max_bytes is None:
            print("error: cache gc needs --max-entries and/or --max-bytes",
                  file=sys.stderr)
            return 2
        _check_counts(args, max_entries=0)
        try:
            max_bytes = (None if args.max_bytes is None
                         else _parse_size(args.max_bytes))
        except (ValueError, OverflowError):
            raise ConfigError(
                f"--max-bytes must be a size >= 0 such as 512, 2K, 500M "
                f"or 1G, got {args.max_bytes!r}") from None
        before = store.usage()
        removed = store.gc(max_entries=args.max_entries, max_bytes=max_bytes)
        after = store.usage()
        print(f"gc: removed {removed} blobs "
              f"({_format_bytes(before['bytes'] - after['bytes'])}); "
              f"{after['entries']} blobs "
              f"({_format_bytes(after['bytes'])}) remain")
        return 0

    # stats: usage totals, per-kind breakdown, recorded hit counters.
    usage = store.usage()
    print(f"cache {store.root}")
    print(f"  {usage['entries']} blobs, {_format_bytes(usage['bytes'])}  "
          f"(results: {usage['results']} / "
          f"{_format_bytes(usage['result_bytes'])}, artifacts: "
          f"{usage['artifacts']} / {_format_bytes(usage['artifact_bytes'])})")

    kinds: dict = {}
    for path in store._blobs():
        if path.suffix == ".json":
            continue
        kind = peek_kind(path) or "?"
        count, total = kinds.get(kind, (0, 0))
        try:
            size = path.stat().st_size
        except OSError:
            size = 0
        kinds[kind] = (count + 1, total + size)
    if kinds:
        rows = [[kind, count, _format_bytes(total)]
                for kind, (count, total) in sorted(kinds.items())]
        print(format_table(["artifact kind", "blobs", "bytes"], rows))

    # Hit/miss counters live in per-run telemetry, not the store
    # itself (lookups must stay write-free): sum the recorded runs.
    counters: dict = {}
    runs = 0
    for _, path in list_event_logs(store.root):
        events = read_events(path)
        if not events:
            continue
        runs += 1
        for event in events:
            if event.get("type") == "counter" and event.get("cell") is None:
                name = event.get("name", "?")
                counters[name] = counters.get(name, 0) + int(
                    event.get("value", 0))
    wanted = [name for name in sorted(counters)
              if name.startswith(("exec/", "store/"))]
    if wanted:
        print(f"counters over {runs} recorded runs:")
        print(format_table(
            ["counter", "total"],
            [[name, counters[name]] for name in wanted]))
    elif runs == 0:
        print("no recorded telemetry (run a command with --telemetry "
              "to record hit counters)")
    return 0


def _drop_retired_flags(command: List[str]) -> List[str]:
    """Drop the exec flags older runs recorded that the CLI has retired.

    ``--backend X`` picked a transport, a bare-integer ``--workers N``
    sized a local worker fleet (``--jobs`` sizes the local workers
    now), and ``--hedge M`` duplicated straggling cells.  Exec flags
    never entered the run id, so the re-driven command still reopens
    the same manifest.
    """
    kept: List[str] = []
    parts = list(command)
    while parts:
        part = parts.pop(0)
        flag, eq, value = part.partition("=")
        if flag in ("--backend", "--hedge", "--workers"):
            if not eq and parts:
                value = parts[0]
            if flag != "--workers" or value.strip().isdigit():
                if not eq and parts:
                    parts.pop(0)
                continue
        kept.append(part)
    return kept


def _override_exec_args(command: List[str],
                        args: argparse.Namespace) -> List[str]:
    """Apply ``resume`` execution overrides to a recorded argv.

    Any override given to ``resume`` (``--jobs`` / ``--workers`` /
    ``--shared-store``) replaces the recorded flag,
    whether the original used the space or ``=`` form.  Flags not
    overridden pass through untouched.  Exec flags never enter the
    run id (see :data:`repro.exec.manifest.EXEC_FLAGS`), so the
    re-driven command reopens the same manifest.
    """
    overrides = {}
    if args.jobs is not None:
        overrides["--jobs"] = str(args.jobs)
    if args.workers is not None:
        overrides["--workers"] = args.workers
    if args.shared_store is not None:
        overrides["--shared-store"] = args.shared_store
    if not overrides:
        return list(command)
    rebuilt: List[str] = []
    skip = False
    for part in command:
        if skip:
            skip = False
            continue
        if part in overrides:
            skip = True
            continue
        if any(part.startswith(f"{flag}=") for flag in overrides):
            continue
        rebuilt.append(part)
    for flag, value in sorted(overrides.items()):
        rebuilt.extend([flag, value])
    return rebuilt


def cmd_resume(args: argparse.Namespace) -> int:
    store = _cache_store(args)
    if store is None:
        print("error: resume needs the result cache "
              "(--cache-dir / REPRO_CACHE_DIR is disabled)", file=sys.stderr)
        return 2
    manifests = list_runs(store.root)
    if not args.run_id:
        if not manifests:
            print("no recorded runs")
            return 0
        print(f"{'run id':12s} {'state':>10s} {'progress':>14s}  command")
        for manifest in manifests:
            state = "complete" if manifest.is_complete else "resumable"
            done = len(manifest.completed())
            command = " ".join(manifest.command) or f"<library: {manifest.label}>"
            print(f"{manifest.run_id[:12]:12s} {state:>10s} "
                  f"{done:>6d}/{len(manifest.cells):<7d}  {command}")
        return 0
    matches = [manifest for manifest in manifests
               if manifest.run_id.startswith(args.run_id)]
    if not matches:
        print(f"error: no recorded run matches {args.run_id!r}",
              file=sys.stderr)
        return 2
    if len(matches) > 1:
        print(f"error: run id {args.run_id!r} is ambiguous "
              f"({len(matches)} matches); use more digits", file=sys.stderr)
        return 2
    manifest = matches[0]
    if manifest.is_complete:
        print(f"run {manifest.run_id[:12]} is already complete "
              f"({manifest.progress()})")
        return 0
    if not manifest.command:
        print(f"error: run {manifest.run_id[:12]} was launched from the "
              f"library, not the CLI; re-run it from its caller",
              file=sys.stderr)
        return 2
    command = _override_exec_args(_drop_retired_flags(manifest.command),
                                  args)
    print(f"resuming {manifest.run_id[:12]} ({manifest.progress()}): "
          f"{' '.join(command)}")
    # Completed cells are store hits, so only unfinished cells recompute.
    return main(command)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Multiperspective Reuse Prediction reproduction CLI",
        epilog="Execution knob (results are bit-identical either way): "
               "REPRO_STAGE2_KERNEL=off replays Stage 2 on the reference "
               "simulator instead of the columnar kernel.  Real traces: "
               "--trace-file/--trace-format ingest a ChampSim-style "
               "binary, text, or CSV trace as a workload.  A REPRO_* "
               "variable the README's Configuration table does not list "
               "is an error.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compare = sub.add_parser("compare", help="compare policies on benchmarks")
    compare.add_argument("--benchmarks", nargs="*", default=None,
                         metavar="NAME")
    compare.add_argument("--policies", nargs="*",
                         default=["lru", "mpppb-1a", "min"],
                         choices=policy_names(), metavar="POLICY")
    _add_scale(compare)
    _add_trace(compare)
    _add_exec(compare)
    compare.set_defaults(func=cmd_compare)

    roc = sub.add_parser("roc", help="predictor ROC accuracy (Fig. 1/8)")
    roc.add_argument("--benchmark", default="sphinx3",
                     choices=benchmark_names())
    _add_scale(roc)
    _add_trace(roc)
    roc.set_defaults(func=cmd_roc)

    search = sub.add_parser("search", help="feature search (Section 5)")
    search.add_argument("--candidates", type=int, default=10)
    search.add_argument("--steps", type=int, default=10)
    search.add_argument("--seed", type=int, default=2017)
    search.add_argument("--batch-size", type=int, default=None, metavar="K",
                        help="candidates per shared-context Stage-2 replay "
                             "(default: whole generation)")
    _add_scale(search)
    _add_trace(search)
    _add_exec(search)
    search.set_defaults(func=cmd_search)

    mix = sub.add_parser("mix", help="4-core mixes (Fig. 4)")
    mix.add_argument("--mixes", type=int, default=3)
    mix.add_argument("--policies", nargs="*",
                     default=["lru", "mpppb-mp"],
                     choices=policy_names(), metavar="POLICY")
    _add_scale(mix)
    _add_trace(mix)
    _add_exec(mix)
    mix.set_defaults(func=cmd_mix)

    perf = sub.add_parser(
        "perf", help="telemetry and ingest budgets (exit 1 on a failure)")
    _add_scale(perf)
    perf.set_defaults(func=cmd_perf)

    cache = sub.add_parser(
        "cache", help="inspect or prune the on-disk result/artifact cache")
    cache.add_argument("action", choices=["stats", "gc", "clear"],
                       help="stats: entry/byte totals, artifact kinds, and "
                            "recorded hit counters; gc: LRU-evict to the "
                            "given targets; clear: remove every blob")
    cache.add_argument("--cache-dir", default="", metavar="DIR",
                       help="cache to operate on (default: $REPRO_CACHE_DIR "
                            "or .repro-cache)")
    cache.add_argument("--max-entries", type=int, default=None, metavar="N",
                       help="gc target: keep at most N blobs")
    cache.add_argument("--max-bytes", default=None, metavar="SIZE",
                       help="gc target: keep at most SIZE bytes "
                            "(suffixes K/M/G)")
    cache.set_defaults(func=cmd_cache)

    resume = sub.add_parser(
        "resume", help="list or re-drive interrupted runs")
    resume.add_argument("run_id", nargs="?", default="",
                        help="run-id prefix to resume (omit to list runs)")
    resume.add_argument("--cache-dir", default="", metavar="DIR",
                        help="result cache holding the run manifests "
                             "(default: $REPRO_CACHE_DIR or .repro-cache)")
    resume.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="override the recorded --jobs for this resume")
    resume.add_argument("--workers", default=None, metavar="SPEC",
                        help="override the recorded ssh worker spec")
    resume.add_argument("--shared-store", default=None, metavar="DIR",
                        help="override the recorded shared store tier")
    resume.set_defaults(func=cmd_resume)

    stats = sub.add_parser(
        "stats", help="inspect recorded run telemetry (events.jsonl)")
    stats.add_argument("run_id", nargs="?", default="",
                       help="run-id prefix to inspect (omit to list runs "
                            "with telemetry)")
    stats.add_argument("--cache-dir", default="", metavar="DIR",
                       help="result cache holding the event logs "
                            "(default: $REPRO_CACHE_DIR or .repro-cache)")
    stats.add_argument("--top", type=int, default=12, metavar="K",
                       help="rows per span/metric table (0 = all)")
    stats.set_defaults(func=cmd_stats)
    return parser


def _finish_telemetry(engine: Optional[ParallelRunner]) -> None:
    """Flush trailing engine-level spans and point at the event log."""
    if engine is None or not obs.enabled():
        return
    path = engine.flush_telemetry()
    if path is not None:
        run_id = path.name.split(".", 1)[0]
        print(f"telemetry: {path}\n"
              f"inspect with: python -m repro.cli stats {run_id[:12]}",
              file=sys.stderr)


def _handle_interrupt() -> int:
    engine = _ACTIVE_ENGINE
    print("\ninterrupted", file=sys.stderr)
    if engine is not None and engine.last_report is not None:
        report = engine.last_report
        print(report.summary(), file=sys.stderr)
        print(f"interrupted: {report.cells - report.failed} cells done, "
              f"{report.failed} failed, {report.pending} pending "
              f"(completed results are cached)", file=sys.stderr)
    hint = _resume_hint(engine)
    if hint:
        print(hint, file=sys.stderr)
    return 130


def main(argv: Optional[List[str]] = None) -> int:
    global _ACTIVE_ENGINE
    parser = build_parser()
    args = parser.parse_args(argv)
    # Record the launching argv (for run manifests / `resume`) exactly
    # as the subcommand received it.
    args.argv = list(argv) if argv is not None else list(sys.argv[1:])
    _ACTIVE_ENGINE = None
    try:
        args.config = resolve_config(_flags(args))
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CellExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        hint = _resume_hint(_ACTIVE_ENGINE)
        if hint:
            print(hint, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return _handle_interrupt()
    finally:
        _finish_telemetry(_ACTIVE_ENGINE)
        # The telemetry switch is process-global; a finished command
        # must never leave it on for whoever calls main() next.
        obs.disable()


if __name__ == "__main__":
    raise SystemExit(main())
