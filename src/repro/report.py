"""Result formatting: the tables and series the paper reports.

Turns runner outputs into aligned text tables (per-benchmark speedup
and MPKI, S-curve samples, geometric-mean summaries) so that examples,
benches, and downstream scripts share one formatting path instead of
each reinventing f-string layouts.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.sim.single import BenchmarkResult
from repro.util.stats import arithmetic_mean, geometric_mean


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    precision: int = 3,
) -> str:
    """Render an aligned text table; floats use ``precision`` digits."""

    def cell(value: object) -> str:
        if isinstance(value, float):
            return f"{value:.{precision}f}"
        return str(value)

    rendered = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(headers[col]), *(len(row[col]) for row in rendered))
        if rendered else len(headers[col])
        for col in range(len(headers))
    ]
    lines = [
        "  ".join(h.rjust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in rendered:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def speedup_table(
    results: Mapping[str, Dict[str, BenchmarkResult]], baseline: str = "lru"
) -> str:
    """Per-benchmark speedup-over-baseline table plus geomeans.

    ``results`` maps policy name to a suite-result dict; the baseline
    policy must be present.  This is the Figure 6 layout.
    """
    if baseline not in results:
        raise ValueError(f"baseline {baseline!r} missing")
    base = results[baseline]
    policies = [p for p in results if p != baseline]
    benchmarks = sorted(base)
    _check_benchmark_sets(results, benchmarks, "speedup_table")
    rows: List[List[object]] = []
    for name in benchmarks:
        row: List[object] = [name]
        for policy in policies:
            row.append(results[policy][name].ipc / base[name].ipc)
        rows.append(row)
    geomean_row: List[object] = ["geomean"]
    for policy in policies:
        geomean_row.append(geometric_mean([
            results[policy][n].ipc / base[n].ipc for n in benchmarks
        ]))
    rows.append(geomean_row)
    return format_table(["benchmark", *policies], rows)


def _check_benchmark_sets(
    results: Mapping[str, Dict[str, BenchmarkResult]],
    benchmarks: Sequence[str],
    table: str,
) -> None:
    """One-line ValueError when policies cover different benchmark sets.

    Without this, ragged inputs surface as a bare ``KeyError`` from
    deep inside the row loop (and an empty mapping as ``StopIteration``
    in ``mpki_table``) — useless at the CLI boundary.
    """
    expected = set(benchmarks)
    for policy, suite in results.items():
        if set(suite) != expected:
            raise ValueError(
                f"{table}: policy {policy!r} covers benchmarks "
                f"{sorted(suite)} but expected {sorted(expected)}")


def mpki_table(results: Mapping[str, Dict[str, BenchmarkResult]]) -> str:
    """Per-benchmark MPKI table plus arithmetic means (Figure 7 layout)."""
    if not results:
        raise ValueError("mpki_table: empty results mapping")
    policies = list(results)
    benchmarks = sorted(next(iter(results.values())))
    _check_benchmark_sets(results, benchmarks, "mpki_table")
    rows: List[List[object]] = []
    for name in benchmarks:
        rows.append([name, *(results[p][name].mpki for p in policies)])
    rows.append([
        "mean",
        *(arithmetic_mean([results[p][n].mpki for n in benchmarks])
          for p in policies),
    ])
    return format_table(["benchmark", *policies], rows)


def weighted_speedup_summary(
    normalized: Mapping[str, Sequence[float]]
) -> str:
    """Geomean / min / max / below-1 summary of Figure 4 S-curves."""
    rows = []
    for policy, values in normalized.items():
        rows.append([
            policy,
            geometric_mean(list(values)),
            min(values),
            max(values),
            sum(1 for v in values if v < 1.0),
        ])
    return format_table(
        ["policy", "geomean", "min", "max", "below LRU"], rows, precision=4
    )
