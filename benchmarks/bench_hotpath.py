"""Hot-path timing harness: stages in isolation, compare end-to-end.

Unlike the ``bench_fig*`` files (which reproduce paper figures), this
bench measures the *simulator itself*: trace synthesis, Stage-1
filtering, the per-policy Stage 2+3 replay, the telemetry on/off
replay cost, trace ingest, and a 3-policy compare against cold and
warm artifact caches.  It writes ``BENCH_hotpath.json``, which the CI
perf-smoke job uploads and gates on.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [tiny|small|paper]

or through the CLI (same engine, more knobs)::

    PYTHONPATH=src python -m repro.cli perf --scale tiny --check
"""

from __future__ import annotations

import sys

from repro.perf import (
    DEFAULT_POLICIES,
    build_report,
    check_report,
    format_report,
    write_report,
)


def run_experiment(scale_name: str = ""):
    return build_report(scale_name=scale_name, policies=DEFAULT_POLICIES)


def print_results(report) -> None:
    print()
    print("=" * 78)
    print("Hot-path timings (simulator performance, not paper metrics)")
    print("=" * 78)
    print(format_report(report))


def test_hotpath(capsys):
    report = run_experiment()
    write_report(report)
    with capsys.disabled():
        print_results(report)
    assert check_report(report) == []
    assert report["compare"]["speedup"] >= 1.0


def main(argv) -> int:
    report = run_experiment(argv[0] if argv else "")
    path = write_report(report)
    print_results(report)
    print(f"wrote {path}")
    failures = check_report(report)
    for failure in failures:
        print(f"PERF REGRESSION: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
