"""Shared, memoized experiment infrastructure for the bench harness.

Each ``bench_*.py`` file regenerates one table or figure of the paper.
Experiments that share inputs (the single-thread suite drives both
Figure 6 and Figure 7; the multi-programmed mixes drive Figures 4, 5,
9, and 10) are computed once per pytest session through the caches
below.

Scale is controlled by the ``REPRO_SCALE`` environment variable
(``tiny`` / ``small`` / ``paper``); benches additionally trim mix
counts and sweep granularity so a full ``pytest benchmarks/`` run
stays tractable on a laptop.  Every reduction is printed alongside the
results.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional, Sequence, Tuple

from repro import (
    SingleThreadRunner,
    build_suite,
    cross_validated_configs,
    get_scale,
    split_train_test,
)
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.exec import MixCell, ParallelRunner, SingleCell, SuiteSpec, TraceSpec
from repro.sim.multi import MixResult
from repro.sim.single import BenchmarkResult
from repro.traces.mixes import draw_mixes
from repro.traces.trace import Segment
from repro.traces.workloads import benchmark_names

SCALE = get_scale()

#: A mix as the harness names it: (mix name, segment names).
NamedMix = Tuple[str, Tuple[str, ...]]

# Bench-level reductions on top of the scale (documented in output).
MULTI_SEGMENT_ACCESSES = max(4_000, SCALE.segment_accesses // 3)
MULTI_TEST_MIXES = 8     # test mixes replayed by Figures 4 and 5
SWEEP_MIXES = 4          # mixes used by the Figure 9/10 ablation sweeps

# One engine per bench session: REPRO_JOBS workers (default serial) and
# the REPRO_CACHE_DIR on-disk result cache (default .repro-cache), so
# results survive process exit the way the lru_caches below survive a
# pytest session.
ENGINE = ParallelRunner()


def header(title: str, notes: str = "") -> None:
    print()
    print("=" * 78)
    print(title)
    if notes:
        print(notes)
    print(f"(scale={SCALE.name}, segment_accesses={SCALE.segment_accesses})")
    print("=" * 78)


@functools.lru_cache(maxsize=None)
def single_thread_suite() -> Dict[str, List[Segment]]:
    return build_suite(SCALE.hierarchy.llc_bytes, SCALE.segment_accesses)


@functools.lru_cache(maxsize=None)
def single_thread_runner() -> SingleThreadRunner:
    return SingleThreadRunner(
        SCALE.hierarchy, warmup_fraction=SCALE.warmup_fraction
    )


def mpppb_cv_factory(config: MPPPBConfig):
    return lambda num_sets, ways: MPPPBPolicy(num_sets, ways, config)


def _single_cell(benchmark: str, policy: str,
                 config: Optional[MPPPBConfig] = None) -> SingleCell:
    return SingleCell(
        trace=TraceSpec(benchmark, SCALE.hierarchy.llc_bytes,
                        SCALE.segment_accesses),
        policy=policy,
        hierarchy=SCALE.hierarchy,
        mpppb_config=config,
        warmup_fraction=SCALE.warmup_fraction,
    )


@functools.lru_cache(maxsize=None)
def single_thread_results(policy: str) -> Dict[str, BenchmarkResult]:
    """Suite results for one policy name (cross-validated for MPPPB)."""
    names = sorted(benchmark_names())
    if policy == "mpppb":
        configs = cross_validated_configs(names)
        cells = [_single_cell(name, "mpppb", configs[name]) for name in names]
    else:
        cells = [_single_cell(name, policy) for name in names]
    results = ENGINE.run(cells, label=f"single/{policy}")
    print(ENGINE.last_report.summary())
    return dict(zip(names, results))


# -- multi-programmed ------------------------------------------------------


@functools.lru_cache(maxsize=None)
def multi_mixes() -> Tuple[List[NamedMix], List[NamedMix]]:
    """(train, test) ``(mix name, segment names)`` pairs following the
    paper's leading-split rule; naming them builds no trace."""
    mixes = draw_mixes(_mix_suite_spec().segment_names(), SCALE.mix_count)
    return split_train_test(mixes, SCALE.train_mix_count)


def _mix_suite_spec() -> SuiteSpec:
    return SuiteSpec(SCALE.hierarchy.llc_bytes, MULTI_SEGMENT_ACCESSES)


def run_mixes(mixes: Sequence[NamedMix], policy: str,
              config: Optional[MPPPBConfig] = None) -> List[MixResult]:
    """Replay mixes under one policy through the experiment engine."""
    suite_spec = _mix_suite_spec()
    cells = [
        MixCell(
            suite=suite_spec,
            mix_name=mix_name,
            segment_names=members,
            policy=policy,
            hierarchy=SCALE.multi_hierarchy,
            mpppb_config=config,
            warmup_fraction=SCALE.warmup_fraction,
        )
        for mix_name, members in mixes
    ]
    results = ENGINE.run(cells, label=f"mix/{policy}")
    print(ENGINE.last_report.summary())
    return results


@functools.lru_cache(maxsize=None)
def multi_results(policy: str) -> List[MixResult]:
    """Test-mix results for one policy name (capped for bench runtime)."""
    _, test = multi_mixes()
    return run_mixes(test[:MULTI_TEST_MIXES], policy)


def run_mixes_with_config(config: MPPPBConfig,
                          mixes: Sequence[NamedMix]) -> List[MixResult]:
    return run_mixes(mixes, "mpppb", config)


def print_s_curve(name: str, values: Sequence[float], buckets: int = 12) -> None:
    """Print an S-curve as evenly sampled quantiles."""
    ordered = sorted(values)
    samples = []
    for i in range(buckets):
        idx = min(len(ordered) - 1, int(i * (len(ordered) - 1) / max(1, buckets - 1)))
        samples.append(ordered[idx])
    series = " ".join(f"{v:6.3f}" for v in samples)
    print(f"  {name:12s} {series}")
