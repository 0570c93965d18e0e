"""Fast MPKI-only evaluation of feature sets (Section 5.1).

The paper's design-space exploration evaluates thousands of candidate
feature sets "with a fast simulator that only measures average MPKI".
Our equivalent replays the cached, policy-invariant LLC streams of a
workload list under an MPPPB instance built from the candidate
features and averages the resulting MPKI.

Candidate evaluations are independent of each other, which makes them
ideal fan-out targets for the ``repro.exec`` engine: attach a
:class:`~repro.exec.ParallelRunner` (``executor``) plus the
:class:`~repro.exec.SuiteSpec` the segments were built from (``spec``,
or use :meth:`FeatureSetEvaluator.from_spec`) and batched calls through
:meth:`FeatureSetEvaluator.evaluate_many` run in worker processes and
land in the on-disk result cache.  Without an executor the evaluator
behaves exactly as before: serial, in-process, memoized in memory.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.core.features import Feature
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.sim.hierarchy import HierarchyConfig
from repro.sim.single import SingleThreadRunner
from repro.traces.trace import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.exec.runner import ParallelRunner, SuiteSpec


class FeatureSetEvaluator:
    """Average-MPKI objective over a fixed set of workload segments."""

    def __init__(
        self,
        segments: Sequence[Segment],
        hierarchy: HierarchyConfig,
        base_config: Optional[MPPPBConfig] = None,
        warmup_fraction: float = 0.25,
        prefetch: bool = True,
        executor: Optional["ParallelRunner"] = None,
        spec: Optional["SuiteSpec"] = None,
        stage1_store=None,
        batch_size: Optional[int] = None,
    ) -> None:
        if not segments:
            raise ValueError("evaluator needs at least one segment")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.segments = list(segments)
        self.hierarchy = hierarchy
        self.base_config = base_config
        self.warmup_fraction = warmup_fraction
        self.prefetch = prefetch
        self.runner = SingleThreadRunner(
            hierarchy, prefetch=prefetch, warmup_fraction=warmup_fraction,
            stage1_store=stage1_store,
        )
        self.executor = executor
        self.spec = spec
        # Candidates per shared-context replay; None = whole generation
        # in one batch.
        self.batch_size = batch_size
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
        batch_size: Optional[int] = None,
    ) -> "FeatureSetEvaluator":
        """Build from a deterministic segment recipe so evaluations can
        be fanned out to worker processes (which rebuild identical
        segments from the spec) and cached on disk."""
        return cls(
            spec.build(),
            hierarchy,
            base_config=base_config,
            warmup_fraction=warmup_fraction,
            prefetch=prefetch,
            executor=executor,
            spec=spec,
            batch_size=batch_size,
        )

    def _config(self, features: Sequence[Feature]) -> MPPPBConfig:
        if self.base_config is not None:
            return self.base_config.with_features(features)
        return MPPPBConfig(features=tuple(features))

    def _evaluate_local(self, features: Tuple[Feature, ...]) -> float:
        """Serial in-process evaluation (the pre-engine code path)."""
        config = self._config(features)

        def factory(num_sets: int, ways: int) -> MPPPBPolicy:
            return MPPPBPolicy(num_sets, ways, config)

        total = 0.0
        for segment in self.segments:
            total += self.runner.run_segment(segment, factory).mpki
        return total / len(self.segments)

    def _evaluate_batch_local(
        self, pending: List[Tuple[Feature, ...]]
    ) -> None:
        """Fill the memo for ``pending`` via shared-context replays.

        Chunks of ``batch_size`` candidates (the whole list when None)
        share one Stage-2 stream decode per segment; per-candidate MPKI
        accumulates in the same segment order as
        :meth:`_evaluate_local`, so values are bit-identical.
        """
        size = self.batch_size or len(pending)
        for start in range(0, len(pending), size):
            chunk = pending[start:start + size]
            if len(chunk) == 1:
                self._cache[chunk[0]] = self._evaluate_local(chunk[0])
                self.evaluations += 1
                continue
            configs = [self._config(features) for features in chunk]
            totals = [0.0] * len(chunk)
            for segment in self.segments:
                results = self.runner.run_segment_batch(segment, configs)
                for k, result in enumerate(results):
                    totals[k] += result.mpki
            for key, total in zip(chunk, totals):
                self._cache[key] = total / len(self.segments)
                self.evaluations += 1

    def evaluate_batch(
        self, feature_sets: Sequence[Sequence[Feature]]
    ) -> List[float]:
        """In-process evaluation of a candidate batch; input order.

        Unique uncached candidates replay through the shared-context
        engine; results land in the in-memory memo exactly like
        :meth:`evaluate`'s.
        """
        keys = [tuple(features) for features in feature_sets]
        pending: List[Tuple[Feature, ...]] = []
        seen = set()
        for key in keys:
            if key not in self._cache and key not in seen:
                seen.add(key)
                pending.append(key)
        if pending:
            self._evaluate_batch_local(pending)
        return [self._cache[key] for key in keys]

    def evaluate(self, features: Sequence[Feature]) -> float:
        """Average demand MPKI of MPPPB built on ``features``."""
        key = tuple(features)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        if self.executor is not None and self.spec is not None:
            return self.evaluate_many([key])[0]
        self._cache[key] = mean = self._evaluate_local(key)
        self.evaluations += 1
        return mean

    def evaluate_many(
        self, feature_sets: Sequence[Sequence[Feature]]
    ) -> List[float]:
        """Evaluate a batch of candidate sets; results in input order.

        With an attached executor (and a spec describing the segments),
        uncached candidates are fanned across worker processes and the
        on-disk result cache; otherwise they evaluate in process.
        Either way, candidates that share a generation are grouped into
        shared-context Stage-2 replays (:mod:`repro.sim.batch`) of at
        most ``batch_size`` candidates.
        """
        self._generation += 1
        with obs.span(f"search-gen-{self._generation}"):
            return self._evaluate_many(feature_sets)

    def _evaluate_many(
        self, feature_sets: Sequence[Sequence[Feature]]
    ) -> List[float]:
        keys = [tuple(features) for features in feature_sets]
        unique_pending: List[Tuple[Feature, ...]] = []
        seen = set()
        for key in keys:
            if key not in self._cache and key not in seen:
                seen.add(key)
                unique_pending.append(key)

        if unique_pending and self.executor is not None and self.spec is not None:
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
                for features in unique_pending
            ]
            values = self.executor.run_search_batches(
                cells, batch_size=self.batch_size, label="search")
            unresolved = 0
            for features, value in zip(unique_pending, values):
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
                    message=(f"{unresolved} of {len(unique_pending)} "
                             f"candidate evaluations failed"
                             + (f": {failures[0].summary()}"
                                if failures else "")),
                )
        elif unique_pending:
            self.evaluate_batch(unique_pending)

        return [self._cache[key] for key in keys]

    def baseline_mpki(self, policy_factory) -> float:
        """Average MPKI of an arbitrary policy (for LRU/MIN reference lines)."""
        total = 0.0
        for segment in self.segments:
            total += self.runner.run_segment(segment, policy_factory).mpki
        return total / len(self.segments)
