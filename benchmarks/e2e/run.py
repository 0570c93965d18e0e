"""End-to-end figure-regeneration benchmark.

Regenerates four paper figures (see ``workloads.py`` and README.md),
each as a cold pass (empty store) and a warm pass (fresh result store,
trace/Stage-1 artifacts from the cold pass).  Every pass runs in a
fresh interpreter with ``--jobs 2`` and a private store directory; a
repetition is one cold + one warm pass.  The traced repetition runs
the same passes at ``--jobs 1`` with per-layer wrappers installed.

Usage::

    python3 benchmarks/e2e/run.py                         # all, small scale
    python3 benchmarks/e2e/run.py --workload lru-sweep --scale tiny
    python3 benchmarks/e2e/run.py --workload fig3-search --seconds 20 --trace 0

Prints every metric by name with its unit, checks the outputs, and
ends with one JSON line: ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics only,
``--trace 1`` the per-layer metrics only, and neither reports both.
Exits non-zero when a pass fails or an output check does not hold.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("fig67-grid", "lru-sweep", "fig3-search", "fig4-mixes")
# Two workers, or fewer on a smaller host: load comes from one process
# with at most nproc workers.
JOBS = min(2, os.cpu_count() or 1)
PASS_TIMEOUT_S = 170.0

#: End-to-end metrics (lower is better for each).
END_TO_END = (("setup_s", "s"), ("cold_s", "s"), ("warm_s", "s"),
              ("peak_rss_mb", "MiB"))

#: Layers every workload reaches report calls, self time and share.
#: Layers only some workloads reach report their call count here; their
#: times (and the per-policy stage2.* split) are printed in the layer
#: table and written to ``--out``, so no reported time is a constant 0.
TRACED_LAYERS = ("traces", "stage1", "stage2", "stage3", "artifacts",
                 "store", "graph", "dispatch")
PARTIAL_LAYERS = ("multi", "search")
LAYER_EXTRAS = (
    ("stage1", "accesses", "count"), ("stage1", "llc_per_access", "ratio"),
    ("stage2", "accesses", "count"), ("stage2", "ns_per_access", "ns"),
    ("stage3", "loads", "count"), ("artifacts", "hit_ratio", "ratio"),
    ("store", "read_bytes", "bytes"), ("store", "write_bytes", "bytes"),
    ("store", "hit_ratio", "ratio"), ("search", "evaluations", "count"),
)
EXEC_EXTRAS = (
    ("graph", "nodes", "count"), ("graph", "prelude", "count"),
    ("graph", "denied", "count"), ("graph", "loads", "count"),
    ("graph", "computes", "count"), ("dispatch", "util", "ratio"),
    ("dispatch", "retries", "count"), ("dispatch", "requeued", "count"),
    ("dispatch", "pool_rebuilds", "count"), ("dispatch", "batches", "count"),
)


class PassFailed(RuntimeError):
    """A pass process exited non-zero or timed out."""


def quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def results_sha(results: List[Any]) -> str:
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def pass_env(workdir: Path) -> Dict[str, str]:
    """The caller's environment minus every ``REPRO_*`` knob, so ambient
    settings cannot change the measured program."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(workdir)
    return env


def run_pass(workload: str, args: argparse.Namespace, workdir: Path,
             store: Path, artifacts: Optional[Path], traced: bool
             ) -> Dict[str, Any]:
    result = workdir / f"{store.name}.json"
    command = [sys.executable, str(HERE / "one_pass.py"),
               "--workload", workload, "--scale", args.scale,
               "--seed", str(args.seed), "--jobs", str(1 if traced else JOBS),
               "--store", str(store), "--result", str(result)]
    if artifacts is not None:
        command += ["--artifacts", str(artifacts)]
    if traced:
        command.append("--trace")
    command += ["--launched", repr(time.monotonic())]
    # A session of its own, so a timed-out pass is stopped together
    # with its pool workers.
    process = subprocess.Popen(command, cwd=workdir, env=pass_env(workdir),
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        _, stderr = process.communicate(timeout=PASS_TIMEOUT_S)
    except BaseException as exc:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise PassFailed(f"{workload} pass timed out after "
                             f"{PASS_TIMEOUT_S:.0f} s") from None
        raise
    if process.returncode != 0:
        raise PassFailed(f"{workload} pass exited {process.returncode}:\n"
                         f"{stderr.strip()[-2000:]}")
    with open(result, encoding="utf-8") as handle:
        return json.load(handle)


def run_rep(workload: str, args: argparse.Namespace, workdir: Path,
            traced: bool) -> Dict[str, Any]:
    """One repetition: a cold pass, then a warm pass over its artifacts."""
    repdir = Path(tempfile.mkdtemp(prefix="rep-", dir=workdir))
    try:
        cold = run_pass(workload, args, repdir, repdir / "cold", None, traced)
        warm = run_pass(workload, args, repdir, repdir / "warm",
                        repdir / "cold", traced)
    finally:
        shutil.rmtree(repdir, ignore_errors=True)
    errors = []
    for name, record in (("cold", cold), ("warm", warm)):
        errors += [f"{name}: cell failed: {label}" for label in record["failed"]]
        errors += [f"{name}: {error}" for error in record["check_failed"]]
        if traced and not record["trace"]["wrappers_removed"]:
            errors.append(f"{name}: layer wrappers were not removed")
    mismatched = [label for (label, a), (_, b)
                  in zip(cold["results"], warm["results"]) if a != b]
    if len(cold["results"]) != len(warm["results"]):
        mismatched.append("result count")
    errors += [f"cold != warm: {label}" for label in mismatched]
    failed_cells = (len(cold["failed"]) + len(warm["failed"])
                    + len(cold["check_failed"]) + len(warm["check_failed"])
                    + len(mismatched))
    return {"cold": cold, "warm": warm, "errors": errors,
            "attempted": cold["exec"]["cells"] + warm["exec"]["cells"],
            "failed": failed_cells, "sha": results_sha(cold["results"])}


def run_reps(workload: str, args: argparse.Namespace, workdir: Path,
             traced: bool, repeats: int) -> List[Dict[str, Any]]:
    """``repeats`` repetitions, or as many as fit in ``--seconds``."""
    reps: List[Dict[str, Any]] = []
    started = time.monotonic()
    while True:
        rep_started = time.monotonic()
        reps.append(run_rep(workload, args, workdir, traced))
        rep_s = time.monotonic() - rep_started
        elapsed = time.monotonic() - started
        if args.seconds is None:
            if len(reps) >= repeats:
                return reps
        elif elapsed + rep_s > args.seconds:
            return reps


def end_to_end(reps: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    samples = {
        "setup_s": [rep[p]["setup_s"] for rep in reps for p in ("cold", "warm")],
        "cold_s": [rep["cold"]["engine_s"] for rep in reps],
        "warm_s": [rep["warm"]["engine_s"] for rep in reps],
        "peak_rss_mb": [max(rep["cold"]["peak_rss_mb"],
                            rep["warm"]["peak_rss_mb"]) for rep in reps],
    }
    return {name: quartiles(values) for name, values in samples.items()}


def per_layer(traced: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer metrics, cold + warm combined, median over repetitions.

    Span metrics come from the wrappers; the engine's own counters come
    from the same passes' ``ExecReport`` (at ``--jobs 1``, so
    ``dispatch.util`` is the share of drive wall time spent in cells).
    """
    samples: Dict[str, List[float]] = {}

    def add(name: str, value: float) -> None:
        samples.setdefault(name, []).append(value)

    for rep in traced:
        passes = [rep[p]["trace"] for p in ("cold", "warm")]
        wall = sum(trace["wall_s"] for trace in passes)
        add("trace.wall_s", wall)
        add("trace.overhead_frac", sum(trace["overhead_frac"] * trace["wall_s"]
                                       for trace in passes) / wall)
        add("unattributed_s", sum(trace["unattributed_s"] for trace in passes))
        # Counts add over the passes; ratios are recomputed from the sums.
        merged: Dict[str, Dict[str, float]] = {}
        for trace in passes:
            for layer, entry in trace["layers"].items():
                into = merged.setdefault(layer, {})
                for key, value in entry.items():
                    if key not in layers.DERIVED:
                        into[key] = into.get(key, 0) + value
        layers.derive(merged, wall)
        for layer in TRACED_LAYERS + PARTIAL_LAYERS:
            add(f"{layer}.calls", merged[layer]["calls"])
        for layer in TRACED_LAYERS:
            add(f"{layer}.self_s", merged[layer]["self_s"])
            add(f"{layer}.share", merged[layer]["share"])
        for layer, extra, _ in LAYER_EXTRAS:
            add(f"{layer}.{extra}", merged[layer].get(extra, 0))
        for layer, extra, _ in EXEC_EXTRAS:
            values = [rep[p]["exec"][extra] for p in ("cold", "warm")]
            add(f"{layer}.{extra}",
                statistics.mean(values) if extra == "util" else sum(values))
    return {name: statistics.median(values) for name, values in samples.items()}


def per_layer_units() -> Dict[str, str]:
    units = {"trace.wall_s": "s", "trace.overhead_frac": "ratio",
             "unattributed_s": "s"}
    for layer in TRACED_LAYERS + PARTIAL_LAYERS:
        units[f"{layer}.calls"] = "count"
    for layer in TRACED_LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.share": "ratio"})
    for layer, extra, unit in LAYER_EXTRAS + EXEC_EXTRAS:
        units[f"{layer}.{extra}"] = unit
    return units


# -- reporting ---------------------------------------------------------------


def print_layers(workload: str, rep: Dict[str, Any]) -> None:
    print(f"-- {workload}: traced repetition (--jobs 1), per layer and pass")
    print(f"{'layer':18s} {'pass':>5s} {'calls':>8s} {'self_s':>9s} "
          f"{'share':>7s}  extras")
    for name in ("cold", "warm"):
        trace = rep[name]["trace"]
        for layer, entry in trace["layers"].items():
            extras = "  ".join(
                f"{key}={value:.4g}" for key, value in sorted(entry.items())
                if key not in ("calls", "self_s", "share"))
            print(f"{layer:18s} {name:>5s} {entry['calls']:8d} "
                  f"{entry['self_s']:9.4f} {entry['share']:7.1%}  {extras}")
        print(f"{'unattributed_s':18s} {name:>5s} {'':8s} "
              f"{trace['unattributed_s']:9.4f} "
              f"{trace['unattributed_s'] / trace['wall_s']:7.1%}  "
              f"wall_s={trace['wall_s']:.4f} "
              f"wrapped_calls={trace['wrapped_calls']} "
              f"overhead_frac={trace['overhead_frac']:.4f}")


def print_headline(record: Dict[str, Any]) -> None:
    headline = record.get("headline") or {}
    if not headline:
        return
    print(f"-- {headline['title']}: simulated here vs. the paper.  The suite "
          "is synthetic and the model unvalidated; no error figure is claimed.")
    for policy, row in headline["rows"].items():
        paper = row["paper"]
        print(f"   {policy:12s} simulated={row['simulated']:.4f}  "
              f"paper={'n/a' if paper is None else f'{paper:.3f}'}")


def run_workload(workload: str, args: argparse.Namespace,
                 workdir: Path) -> Dict[str, Any]:
    untraced: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    if args.trace == 1:
        traced = run_reps(workload, args, workdir, True, args.repeats)
    else:
        untraced = run_reps(workload, args, workdir, False, args.repeats)
        if args.trace is None:
            traced = [run_rep(workload, args, workdir, True)]

    reps = untraced + traced
    first = reps[0]["cold"]
    errors = [error for rep in reps for error in rep["errors"]]
    shas = sorted({rep["sha"] for rep in reps})
    if len(shas) > 1:
        errors.append(f"results differ between repetitions: {shas}")
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps) + (len(shas) > 1)
    summary = {
        "workload": workload,
        "reps": len(untraced),
        "traced_reps": len(traced),
        "results_sha": shas[0],
        "shas": {"untraced": [rep["sha"] for rep in untraced],
                 "traced": [rep["sha"] for rep in traced]},
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "errors": errors,
        "end_to_end": end_to_end(untraced) if untraced else {},
        "engine": [{p: rep[p]["exec"] for p in ("cold", "warm")}
                   for rep in untraced],
        "per_layer": per_layer(traced) if traced else {},
        "layers": [{p: rep[p]["trace"] for p in ("cold", "warm")}
                   for rep in traced],
        "headline": first["headline"],
        "versions": {key: first[key] for key in ("python", "numpy", "numba")},
    }

    print(f"== {workload}: scale={args.scale} seed={args.seed} jobs={JOBS} "
          f"reps={len(untraced)} traced_reps={len(traced)}")
    units = dict(END_TO_END)
    for name, stats in summary["end_to_end"].items():
        print(f"   {name:14s} median={stats['median']:.4f} q1={stats['q1']:.4f} "
              f"q3={stats['q3']:.4f} n={stats['n']} {units[name]}")
    if untraced:
        util = statistics.median(rep[p]["exec"]["util"] for rep in untraced
                                 for p in ("cold", "warm"))
        print(f"   engine util    median={util:.4f} ratio (--jobs {JOBS})")
    print(f"   fail_frac      {failed}/{attempted} = {summary['fail_frac']:.4f} ratio")
    print(f"   results_sha    {summary['results_sha']}")
    for error in errors:
        print(f"   CHECK FAILED: {error}")
    print_headline(first)
    if traced:
        print_layers(workload, traced[0])
    return summary


def final_line(summaries: List[Dict[str, Any]], trace: Optional[int]) -> str:
    metrics: Dict[str, Dict[str, Any]] = {}
    units = per_layer_units()
    for summary in summaries:
        prefix = "" if len(summaries) == 1 else summary["workload"] + "/"
        if trace != 1:
            for name, unit in END_TO_END:
                metrics[prefix + name] = {
                    "value": summary["end_to_end"][name]["median"], "unit": unit}
        if trace != 0:
            for name, unit in units.items():
                metrics[prefix + name] = {
                    "value": summary["per_layer"][name], "unit": unit}
    return json.dumps({
        "correct": all(not summary["errors"] for summary in summaries),
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": sum(summary["failed"] for summary in summaries),
        "metrics": metrics,
    })


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", action="extend", choices=WORKLOADS,
                        help="workloads to run (default: all four)")
    parser.add_argument("--seed", type=int, default=2017,
                        help="workload seed: trace/suite and search seeds")
    parser.add_argument("--scale", default="small",
                        choices=("tiny", "small", "paper"),
                        help="repro scale preset (default: small)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="repetitions per workload when --seconds is unset")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload: repeat while the "
                             "next repetition fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only; 1: per-layer only")
    parser.add_argument("--no-trace", dest="trace", action="store_const",
                        const=0, help="skip the traced repetition")
    parser.add_argument("--out", default="",
                        help="write the full record as JSON to this path")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    args.workloads = list(dict.fromkeys(args.workloads or WORKLOADS))
    return args


def _terminate(signum, frame) -> None:
    # Unwind through run_pass, which stops the running pass's session.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".e2e-work"
    base.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=base))
    try:
        summaries = [run_workload(name, args, workdir)
                     for name in args.workloads]
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    config = {
        "git_sha": git_sha(), "nproc": os.cpu_count(), "jobs": JOBS,
        "scale": args.scale, "seed": args.seed,
        "scrubbed_env": sorted(key for key in os.environ
                               if key.startswith("REPRO_")),
        **summaries[0]["versions"],
    }
    print("config: " + json.dumps(config, sort_keys=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"config": config, "workloads": summaries}, handle,
                      indent=1, sort_keys=True)
    line = final_line(summaries, args.trace)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
