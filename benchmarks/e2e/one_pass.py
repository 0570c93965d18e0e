"""One cold or warm pass of one workload, in a fresh interpreter.

``run.py`` launches this script once per pass and reads the outcome
from the ``--result`` JSON file.  ``setup_s`` runs from the parent's
launch timestamp (``time.monotonic`` is system-wide on Linux) to the
first engine call; ``engine_s`` is the wall time of the engine and
evaluator calls.  With ``--trace`` the layer wrappers are installed
after imports and the pass reports per-layer spans as well.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import multiprocessing
import resource
import sys
import time


def _exec_counters(reports) -> dict:
    """Engine counters summed over every drive of the pass."""
    reports = [report for report in reports if report is not None]
    budget = sum(report.wall_seconds * max(1, report.jobs) for report in reports)
    return {
        "cells": sum(report.planned for report in reports),
        "failed": sum(report.failed for report in reports),
        "util": (sum(report.cell_seconds for report in reports) / budget
                 if budget > 0 else 0.0),
        "retries": sum(report.retries for report in reports),
        "requeued": sum(report.requeued for report in reports),
        "pool_rebuilds": sum(report.pool_rebuilds for report in reports),
        "batches": sum(report.batches for report in reports),
        "nodes": sum(report.graph_nodes for report in reports),
        "prelude": sum(report.graph_prelude for report in reports),
        "denied": sum(report.graph_denied for report in reports),
        "loads": sum(report.graph_loads for report in reports),
        "computes": sum(report.graph_computes for report in reports),
    }


def _peak_rss_mb() -> float:
    """Peak RSS of this process or any single reaped worker, in MiB."""
    deadline = time.monotonic() + 10.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--artifacts", default="")
    parser.add_argument("--launched", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import numpy

    import workloads
    from repro.config import get_scale
    from repro.exec import ResultStore

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        tracer.install()
    traced_from = time.perf_counter()

    plan = workloads.setup(args.workload, get_scale(args.scale), args.seed)
    engine = workloads.RecordingRunner(jobs=args.jobs,
                                       store=ResultStore(args.store),
                                       verbose=False)
    if args.artifacts:
        # Warm pass: a fresh result store, trace/Stage-1 artifacts from
        # the cold pass (the mechanism repro.perf.bench_compare uses).
        engine.artifact_root = args.artifacts
    setup_s = time.monotonic() - args.launched

    started = time.perf_counter()
    outcome = plan.execute(engine)
    engine_s = time.perf_counter() - started

    record = dict(outcome)
    record.update(
        setup_s=setup_s,
        engine_s=engine_s,
        exec=_exec_counters(engine.reports),
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        numba=importlib.util.find_spec("numba") is not None,
    )
    if tracer is not None:
        wall_s = time.perf_counter() - traced_from
        removed = tracer.uninstall()
        summary = tracer.summary(wall_s)
        summary["overhead_frac"] = (summary["wrapped_calls"]
                                    * layers.wrapper_cost_s() / wall_s)
        summary["wrappers_removed"] = removed
        record["trace"] = summary
    record["peak_rss_mb"] = _peak_rss_mb()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
