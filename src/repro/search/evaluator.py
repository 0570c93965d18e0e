"""Fast MPKI-only evaluation of feature sets (Section 5.1).

The paper's design-space exploration evaluates thousands of candidate
feature sets "with a fast simulator that only measures average MPKI".
Our equivalent replays the cached, policy-invariant LLC streams of a
workload list under an MPPPB instance built from the candidate
features and averages the resulting MPKI.

Every evaluation goes through one path: :meth:`FeatureSetEvaluator.
evaluate_batch` replays candidates in chunks of :data:`SEARCH_BATCH`
through :meth:`~repro.sim.single.SingleThreadRunner.run_segment_batch`
(the shared-context :class:`~repro.sim.batch.BatchLLCSimulator`), a
lone candidate being a chunk of one.  Candidate evaluations are
independent of each other, which makes them ideal fan-out targets for
the ``repro.exec`` engine: an evaluator built by
:meth:`FeatureSetEvaluator.from_spec` with an ``executor`` sends each
generation through :meth:`~repro.exec.ParallelRunner.
run_search_batches`, whose workers run the same path and whose results
land in the on-disk result cache.  Without an executor the evaluator
runs in process, memoized in memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.features import Feature
from repro.core.mpppb import MPPPBConfig
from repro.sim.hierarchy import HierarchyConfig
from repro.sim.single import SingleThreadRunner
from repro.traces.trace import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.runner import ParallelRunner, SuiteSpec

#: Most candidates one shared-context Stage-2 replay carries.  Batching
#: pays the stream lowering once per chunk: on a small-scale soplex
#: segment it is 13% of a one-candidate replay, 5.6% per candidate at
#: 8 and 3.9% at 32, and wider chunks buy almost nothing more.  Every
#: candidate's cache, sampler and tables stay resident until its chunk
#: ends (about 4 MiB per candidate at small, 9 MiB at the paper's 2 MB
#: LLC), so the width also bounds a generation's memory.
SEARCH_BATCH = 32


class FeatureSetEvaluator:
    """Average-MPKI objective over a fixed set of workload segments."""

    def __init__(
        self,
        segments: Sequence[Segment],
        hierarchy: HierarchyConfig,
        base_config: Optional[MPPPBConfig] = None,
        warmup_fraction: float = 0.25,
        prefetch: bool = True,
        stage1_store=None,
    ) -> None:
        if not segments:
            raise ValueError("evaluator needs at least one segment")
        self.segments = list(segments)
        self.hierarchy = hierarchy
        self.base_config = base_config
        self.warmup_fraction = warmup_fraction
        self.prefetch = prefetch
        self.runner = SingleThreadRunner(
            hierarchy, prefetch=prefetch, warmup_fraction=warmup_fraction,
            stage1_store=stage1_store,
        )
        # Set by from_spec: the engine generations fan out over and the
        # recipe its workers rebuild the segments from.
        self.executor: Optional["ParallelRunner"] = None
        self.spec: Optional["SuiteSpec"] = None
        self.evaluations = 0
        self._cache: Dict[tuple, float] = {}
        # Telemetry: evaluate_many calls are the search's generations
        # (one per random-search round or hill-climb neighborhood).
        self._generation = 0

    @classmethod
    def from_spec(
        cls,
        spec: "SuiteSpec",
        hierarchy: HierarchyConfig,
        base_config: Optional[MPPPBConfig] = None,
        warmup_fraction: float = 0.25,
        prefetch: bool = True,
        executor: Optional["ParallelRunner"] = None,
    ) -> "FeatureSetEvaluator":
        """Build from a deterministic segment recipe so evaluations can
        be fanned out to worker processes (which rebuild identical
        segments from the spec) and cached on disk."""
        evaluator = cls(
            spec.build(),
            hierarchy,
            base_config=base_config,
            warmup_fraction=warmup_fraction,
            prefetch=prefetch,
        )
        evaluator.spec = spec
        evaluator.executor = executor
        return evaluator

    def _config(self, features: Sequence[Feature]) -> MPPPBConfig:
        if self.base_config is not None:
            return self.base_config.with_features(features)
        return MPPPBConfig(features=tuple(features))

    def _pending(self, keys: Sequence[Tuple[Feature, ...]]
                 ) -> List[Tuple[Feature, ...]]:
        """Unique uncached candidates of ``keys``, in first-seen order."""
        return list(dict.fromkeys(key for key in keys
                                  if key not in self._cache))

    def evaluate_batch(
        self, feature_sets: Sequence[Sequence[Feature]]
    ) -> List[float]:
        """In-process evaluation of candidates; MPKI in input order.

        Unique uncached candidates replay in chunks of at most
        :data:`SEARCH_BATCH`, each chunk sharing one Stage-2 stream
        lowering per segment.  Per-candidate MPKI sums in segment
        order, so a candidate's value does not depend on its chunk.
        """
        keys = [tuple(features) for features in feature_sets]
        pending = self._pending(keys)
        for start in range(0, len(pending), SEARCH_BATCH):
            chunk = pending[start:start + SEARCH_BATCH]
            configs = [self._config(features) for features in chunk]
            totals = [0.0] * len(chunk)
            for segment in self.segments:
                results = self.runner.run_segment_batch(segment, configs)
                for k, result in enumerate(results):
                    totals[k] += result.mpki
            for key, total in zip(chunk, totals):
                self._cache[key] = total / len(self.segments)
            self.evaluations += len(chunk)
        return [self._cache[key] for key in keys]

    def evaluate(self, features: Sequence[Feature]) -> float:
        """Average demand MPKI of MPPPB built on ``features``."""
        key = tuple(features)
        if key not in self._cache and self.executor is not None:
            return self.evaluate_many([key])[0]
        return self.evaluate_batch([key])[0]

    def evaluate_many(
        self, feature_sets: Sequence[Sequence[Feature]]
    ) -> List[float]:
        """Evaluate one generation of candidate sets; input order.

        With an executor, uncached candidates fan out across worker
        processes and the on-disk result cache; otherwise they
        evaluate in process.  Either way they replay through
        :meth:`evaluate_batch`.
        """
        self._generation += 1
        with obs.span(f"search-gen-{self._generation}"):
            if self.executor is None:
                return self.evaluate_batch(feature_sets)
            return self._evaluate_remote(feature_sets)

    def _evaluate_remote(
        self, feature_sets: Sequence[Sequence[Feature]]
    ) -> List[float]:
        keys = [tuple(features) for features in feature_sets]
        pending = self._pending(keys)
        if pending:
            from repro.exec.runner import SearchCell

            cells = [
                SearchCell(
                    suite=self.spec,
                    features=features,
                    hierarchy=self.hierarchy,
                    base_config=self.base_config,
                    prefetch=self.prefetch,
                    warmup_fraction=self.warmup_fraction,
                )
                for features in pending
            ]
            values = self.executor.run_search_batches(cells, label="search")
            unresolved = 0
            for features, value in zip(pending, values):
                if value is None:
                    # Failed cell under on_error="collect"; leave it
                    # uncached so a later call may retry it.
                    unresolved += 1
                    continue
                self._cache[features] = value
                self.evaluations += 1
            if unresolved:
                # Hill-climbing cannot rank candidates against holes:
                # surface the first structured failure instead of
                # letting a None poison the score comparison.
                from repro.exec.faults import CellExecutionError

                report = self.executor.last_report
                failures = report.failures if report is not None else ()
                raise CellExecutionError(
                    failures[0] if failures else None,
                    message=(f"{unresolved} of {len(pending)} "
                             f"candidate evaluations failed"
                             + (f": {failures[0].summary()}"
                                if failures else "")),
                )
        return [self._cache[key] for key in keys]

    def baseline_mpki(self, policy_factory) -> float:
        """Average MPKI of an arbitrary policy (for LRU/MIN reference lines)."""
        total = 0.0
        for segment in self.segments:
            total += self.runner.run_segment(segment, policy_factory).mpki
        return total / len(self.segments)
