"""The four figure-regeneration workloads the end-to-end benchmark runs.

Each workload splits into ``setup`` (everything before the first engine
call: cell construction, cross-validated configs, mix generation) and
``execute`` (the engine/evaluator calls a user waits for when a figure
is regenerated).  ``execute`` returns the outcome as plain JSON data so
the pass process can hand it to the parent, which compares cold, warm
and traced passes cell by cell.

Why these four: ``fig67-grid`` is the headline figure and is dominated
by Stage-2 predictors; ``lru-sweep`` is trace generation + Stage 1 cold
and artifact decode warm, with almost no predictor work; ``fig3-search``
is the only workload on the batched columnar kernel and issues one
engine call per hill-climb step; ``fig4-mixes`` is the only one through
``sim.multi``.  See README.md for the measured split behind each reason.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro import (
    build_suite,
    cross_validated_configs,
    generate_mixes,
    geometric_mean,
    split_train_test,
)
from repro.config import ReproScale
from repro.exec import (
    CellExecutionError,
    MixCell,
    ParallelRunner,
    SingleCell,
    SuiteSpec,
    TraceSpec,
)
from repro.search import hill_climb, random_search
from repro.search.evaluator import FeatureSetEvaluator
from repro.sim.multi import MixResult, normalized_weighted_speedups
from repro.sim.single import BenchmarkResult, speedups_over_lru
from repro.traces.workloads import benchmark_names

BENCH_DIR = Path(__file__).resolve().parent.parent

GRID_POLICIES = ("lru", "hawkeye", "perceptron", "mpppb", "min")
SEARCH_BENCHMARKS = ("gamess", "lbm", "soplex", "sphinx3")
MIX_POLICIES = ("lru", "hawkeye", "perceptron", "mpppb-mp")
MIX_COUNT = 4


class RecordingRunner(ParallelRunner):
    """Engine that keeps the report of every drive, not just the last.

    The evaluator drives the engine once per search generation, so the
    benchmark needs all reports to count cells attempted and failed.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.reports: List[Any] = []

    def run(self, cells, label: str = ""):
        try:
            return super().run(cells, label)
        finally:
            self.reports.append(self.last_report)

    def run_search_batches(self, cells, batch_size=None, label: str = ""):
        try:
            return super().run_search_batches(cells, batch_size, label)
        finally:
            self.reports.append(self.last_report)


def paper_geomeans(bench_file: str) -> Dict[str, float]:
    """``PAPER_GEOMEANS`` of a figure bench, read without importing it
    (importing a bench file builds the harness's default engine)."""
    tree = ast.parse((BENCH_DIR / bench_file).read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", "") == "PAPER_GEOMEANS"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    raise ValueError(f"no PAPER_GEOMEANS in {bench_file}")


def _run_cells(engine: ParallelRunner, cells: Sequence[Any], label: str,
               out: List[Tuple[str, Any]], failed: List[str]) -> List[Any]:
    results = engine.run(cells, label=label)
    failures = {failure.label for failure in engine.last_report.failures}
    for cell, result in zip(cells, results):
        name = f"{label}/{cell.label()}"
        if result is None or cell.label() in failures:
            failed.append(name)
            out.append((name, None))
        else:
            out.append((name, cell.encode(result)))
    return results


def _segment_errors(name: str, segment: Dict[str, Any]) -> List[str]:
    """Accounting identities every LLC replay must satisfy."""
    errors = []
    if segment["llc_hits"] + segment["llc_misses"] != segment["llc_accesses"]:
        errors.append(f"{name}: hits + misses != accesses")
    if segment["llc_bypasses"] > segment["llc_misses"]:
        errors.append(f"{name}: bypasses > misses")
    if segment["demand_misses"] > segment["llc_misses"]:
        errors.append(f"{name}: demand misses > misses")
    return errors


# -- fig67-grid / lru-sweep --------------------------------------------------


class SingleGrid:
    """Single-thread suite × policies, one engine drive per policy, as
    the Fig. 6/7 bench harness and ``compare`` issue them."""

    def __init__(self, policies: Sequence[str], scale: ReproScale,
                 seed: int) -> None:
        self.policies = tuple(policies)
        names = sorted(benchmark_names())
        configs = (cross_validated_configs(names)
                   if "mpppb" in self.policies else {})
        self.cells = {
            policy: [
                SingleCell(
                    trace=TraceSpec(bench, scale.hierarchy.llc_bytes,
                                    scale.segment_accesses, seed),
                    policy=policy,
                    hierarchy=scale.hierarchy,
                    mpppb_config=configs.get(bench) if policy == "mpppb" else None,
                    warmup_fraction=scale.warmup_fraction,
                )
                for bench in names
            ]
            for policy in self.policies
        }

    def execute(self, engine: ParallelRunner) -> Dict[str, Any]:
        out: List[Tuple[str, Any]] = []
        failed: List[str] = []
        decoded: Dict[str, Dict[str, BenchmarkResult]] = {}
        for policy, cells in self.cells.items():
            results = _run_cells(engine, cells, f"single/{policy}", out, failed)
            decoded[policy] = {cell.trace.benchmark: result
                               for cell, result in zip(cells, results)
                               if result is not None}
        return {"results": out, "failed": failed,
                "check_failed": self._check(out),
                "headline": self._headline(decoded)}

    def _check(self, out: List[Tuple[str, Any]]) -> List[str]:
        errors: List[str] = []
        misses: Dict[str, Dict[str, int]] = {}
        for name, payload in out:
            if payload is None:
                continue
            policy = name.rsplit("/", 1)[1]
            for segment in payload["segments"]:
                errors += _segment_errors(f"{name}:{segment['segment_name']}",
                                          segment)
                misses.setdefault(segment["segment_name"], {})[policy] = (
                    segment["llc_misses"])
        if "min" in self.policies:
            for segment, by_policy in sorted(misses.items()):
                bound = by_policy.get("min")
                for policy, count in sorted(by_policy.items()):
                    if bound is not None and count < bound:
                        errors.append(f"{segment}/{policy}: {count} misses "
                                      f"below MIN's {bound}")
        return errors

    def _headline(self, decoded) -> Dict[str, Any]:
        if "lru" not in decoded or len(self.policies) < 2:
            return {}
        paper = paper_geomeans("bench_fig6_single_speedup.py")
        return {
            "title": "Fig. 6 geomean speedup over LRU",
            "rows": {
                policy: {
                    "simulated": geometric_mean(list(
                        speedups_over_lru(decoded[policy],
                                          decoded["lru"]).values())),
                    "paper": paper.get(policy),
                }
                for policy in self.policies if policy != "lru"
            },
        }


# -- fig3-search ---------------------------------------------------------------


class FeatureSearch:
    """Fig. 3: random feature-set search, then hill-climbing, through
    the engine-backed evaluator (batched columnar Stage 2)."""

    def __init__(self, scale: ReproScale, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.spec = SuiteSpec(scale.hierarchy.llc_bytes,
                              scale.segment_accesses // 2, seed,
                              names=SEARCH_BENCHMARKS)

    def execute(self, engine: ParallelRunner) -> Dict[str, Any]:
        scale = self.scale
        evaluator = FeatureSetEvaluator.from_spec(
            self.spec, scale.hierarchy, warmup_fraction=scale.warmup_fraction,
            executor=engine)
        failed: List[str] = []
        out: List[Tuple[str, Any]] = []
        try:
            candidates = random_search(evaluator, scale.random_feature_sets,
                                       seed=self.seed)
            refined = hill_climb(evaluator, candidates[0].features,
                                 steps=scale.hillclimb_steps, seed=self.seed)
        except CellExecutionError as exc:
            failed.append(f"search: {exc}")
            return {"results": out, "failed": failed, "check_failed": [],
                    "headline": {}}
        out = [(f"random/{index}", candidate.mpki)
               for index, candidate in enumerate(candidates)]
        out.append(("hill-climb", {
            "mpki": refined.mpki,
            "improvements": refined.improvements,
            "features": [feature.spec() for feature in refined.features],
        }))
        errors = [f"{name}: MPKI {value!r} is not finite and >= 0"
                  for name, value in out[:-1]
                  if not (math.isfinite(value) and value >= 0)]
        if refined.mpki > candidates[0].mpki:
            errors.append(f"hill-climb: {refined.mpki} above best random "
                          f"{candidates[0].mpki}")
        return {"results": out, "failed": failed, "check_failed": errors,
                "headline": {}}


# -- fig4-mixes ---------------------------------------------------------------


class MixGrid:
    """Fig. 4: the first test mixes (leading-split rule) × policies on
    the shared LLC, one engine drive per policy like the bench harness."""

    def __init__(self, scale: ReproScale, seed: int) -> None:
        # Same per-segment budget as the Fig. 4/5 bench harness.
        accesses = max(4_000, scale.segment_accesses // 3)
        suite = build_suite(scale.hierarchy.llc_bytes, accesses, seed)
        segments = [s for name in sorted(suite) for s in suite[name]]
        _, test = split_train_test(generate_mixes(segments, scale.mix_count),
                                   scale.train_mix_count)
        spec = SuiteSpec(scale.hierarchy.llc_bytes, accesses, seed)
        self.cells = {
            policy: [
                MixCell(
                    suite=spec,
                    mix_name=mix.name,
                    segment_names=tuple(s.name for s in mix.segments),
                    policy=policy,
                    hierarchy=scale.multi_hierarchy,
                    warmup_fraction=scale.warmup_fraction,
                )
                for mix in test[:MIX_COUNT]
            ]
            for policy in MIX_POLICIES
        }

    def execute(self, engine: ParallelRunner) -> Dict[str, Any]:
        out: List[Tuple[str, Any]] = []
        failed: List[str] = []
        decoded: Dict[str, List[MixResult]] = {}
        for policy, cells in self.cells.items():
            results = _run_cells(engine, cells, f"mix/{policy}", out, failed)
            if all(result is not None for result in results):
                decoded[policy] = results
        errors = [f"{name}: bypasses > misses" for name, payload in out
                  if payload is not None
                  and payload["llc_bypasses"] > payload["llc_misses"]]
        return {"results": out, "failed": failed, "check_failed": errors,
                "headline": self._headline(decoded)}

    @staticmethod
    def _headline(decoded) -> Dict[str, Any]:
        if set(decoded) != set(MIX_POLICIES):
            return {}
        paper = paper_geomeans("bench_fig4_multi_speedup.py")
        normalized = normalized_weighted_speedups(decoded, baseline="lru")
        return {
            "title": "Fig. 4 geomean normalized weighted speedup",
            "rows": {policy: {"simulated": geometric_mean(normalized[policy]),
                              "paper": paper.get(policy)}
                     for policy in MIX_POLICIES if policy != "lru"},
        }


WORKLOADS = ("fig67-grid", "lru-sweep", "fig3-search", "fig4-mixes")


def setup(name: str, scale: ReproScale, seed: int):
    """Build one workload's cells and inputs (the timed set-up)."""
    if name == "fig67-grid":
        return SingleGrid(GRID_POLICIES, scale, seed)
    if name == "lru-sweep":
        return SingleGrid(("lru",), scale, seed)
    if name == "fig3-search":
        return FeatureSearch(scale, seed)
    if name == "fig4-mixes":
        return MixGrid(scale, seed)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
