"""Parallel experiment engine: fan independent cells across processes.

The unit of work is a *cell* — a self-describing, picklable recipe for
one experiment whose result depends only on its fields:

* :class:`SingleCell` — one (benchmark, policy) single-thread run,
  producing a :class:`~repro.sim.single.BenchmarkResult`;
* :class:`MixCell` — one (mix, policy) multi-programmed replay,
  producing a :class:`~repro.sim.multi.MixResult`;
* :class:`SearchCell` — one feature-set candidate evaluation,
  producing its average MPKI (a float).

Cells carry trace *recipes* (:class:`TraceSpec` / :class:`SuiteSpec`)
rather than materialized traces: the synthetic workload generators are
deterministic, so workers rebuild identical segments from a few
integers instead of unpickling megabytes per task.  Worker processes
memoize built segments and runners, so stage-1 (upper-level hierarchy)
results are shared across the cells each worker executes — the same
reuse the in-process runners perform today.

:class:`ParallelRunner` consults the on-disk
:class:`~repro.exec.store.ResultStore` before computing, fans cache
misses across worker processes
(:class:`~repro.exec.backends.WorkerFleetBackend`) when ``jobs > 1``,
and falls back to in-process serial execution (bit-identical: same
entry points, same deterministic seeding) when ``jobs == 1`` and no
cell watchdog is armed.  Its settings come from the run config
(:mod:`repro.config`): ``REPRO_JOBS`` and ``REPRO_CACHE_DIR``
configure the defaults; ``REPRO_JOBS=0`` means one worker per CPU and
``REPRO_CACHE_DIR=off`` disables the disk cache.
"""

from __future__ import annotations

import json
import random
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # runtime import would cycle through repro.traces
    from repro.traces.ingest.spec import IngestSpec

from repro.config import resolve_config
from repro.core.features import Feature
from repro.core.mpppb import MPPPBConfig
from repro.cpu.timing import TimingConfig
from repro.exec.cachekey import (
    SCHEMA_VERSION,
    hierarchy_payload,
    mpppb_payload,
    policy_payload,
    stable_hash,
    task_seed,
    timing_payload,
)
from repro.exec.artifacts import ArtifactCache, ingest_scope, scope_payload
from repro.exec.backends import (
    FRAME_LOST,
    FRAME_OK,
    HEARTBEAT_LOST,
    BackendUnavailable,
    create_backend,
    total_slots,
)
from repro.exec.faults import (
    CellExecutionError,
    CellFailure,
    active_plan,
    corrupt_result_blob,
    make_failure,
)
from repro.exec.manifest import RunManifest
from repro.exec.progress import CellOutcome, ExecReport
from repro import obs
from repro.obs.events import (
    counter_event,
    hist_event,
    run_event,
    span_event,
    write_events,
)
from repro.exec.store import ResultStore, make_store
from repro.graph import plan_cells
from repro.policies import policy_factory
from repro.search import evaluator as _evaluator
from repro.search.evaluator import FeatureSetEvaluator
from repro.sim.hierarchy import HierarchyConfig
from repro.sim.multi import MixResult, MultiProgrammedRunner
from repro.sim.single import BenchmarkResult, SingleThreadRunner
from repro.traces.mixes import Mix
from repro.traces.trace import Segment
from repro.traces.workloads import benchmark_names, build_segments


#: Base delay of the exponential backoff between a cell's retries.
RETRY_BACKOFF_S = 0.05


# -- trace recipes ---------------------------------------------------------


@dataclass(frozen=True)
class TraceSpec:
    """Deterministic recipe for one workload's weighted segments.

    Synthetic benchmarks are generated from (benchmark, LLC sizing,
    access budget, seed).  When ``ingest`` is set the workload is a
    real trace file instead: the segments come from the streamed decode
    window and every key derives from the file's content digest — the
    synthesis fields are ignored.
    """

    benchmark: str
    llc_bytes: int
    accesses: int
    seed: int = 2017
    ingest: Optional[IngestSpec] = None

    def payload(self) -> Dict[str, Any]:
        if self.ingest is not None:
            return {
                "benchmark": self.benchmark,
                "ingest": self.ingest.payload(),
            }
        return {
            "benchmark": self.benchmark,
            "llc_bytes": self.llc_bytes,
            "accesses": self.accesses,
            "seed": self.seed,
        }

    def stage1_scope(self) -> Dict[str, Any]:
        """Stage-1 artifact scope for this workload's segments: the one
        place it is decided, for the runners' stores and the planner."""
        if self.ingest is not None:
            return ingest_scope(self.ingest.payload())
        return scope_payload(self.llc_bytes, self.accesses, self.seed)

    def segment_names(self) -> List[str]:
        """Static segment names (no trace build), in :meth:`build` order."""
        if self.ingest is not None:
            return self.ingest.segment_names()
        from repro.traces.workloads import segment_names
        return segment_names(self.benchmark)

    def build(self) -> List[Segment]:
        if self.ingest is not None:
            return self.ingest.build()
        return build_segments(self.benchmark, self.llc_bytes, self.accesses,
                              self.seed)


@dataclass(frozen=True)
class SuiteSpec:
    """Deterministic recipe for a multi-benchmark segment pool.

    ``ingest`` entries merge real-trace workloads into the pool: the
    suite iterates all workloads — synthetic names and ingested names
    together — in one sorted order, exactly as :func:`~repro.traces.
    workloads.all_segments` sorts the synthetic suite.
    """

    llc_bytes: int
    accesses: int
    seed: int = 2017
    names: Tuple[str, ...] = ()
    ingest: Tuple[IngestSpec, ...] = ()

    def payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "llc_bytes": self.llc_bytes,
            "accesses": self.accesses,
            "seed": self.seed,
            "names": sorted(self.names),
        }
        # Only keyed when present, so ingest-free recipes keep their
        # pinned hashes from before ingestion existed.
        if self.ingest:
            payload["ingest"] = [
                spec.payload() for spec in
                sorted(self.ingest, key=lambda spec: spec.name)
            ]
        return payload

    def workloads(self) -> List[str]:
        """Sorted names of every workload in the pool (synthetic and
        ingested), the order ``build`` emits segments in."""
        names = list(self.names) if self.names else list(benchmark_names())
        names.extend(spec.name for spec in self.ingest)
        return sorted(names)

    def trace_spec(self, benchmark: str) -> TraceSpec:
        for spec in self.ingest:
            if spec.name == benchmark:
                return TraceSpec(benchmark, self.llc_bytes, self.accesses,
                                 self.seed, ingest=spec)
        return TraceSpec(benchmark, self.llc_bytes, self.accesses, self.seed)

    def stage1_scopes(self) -> Dict[str, Dict[str, Any]]:
        """Workload name → Stage-1 artifact scope, for every workload."""
        return {name: self.trace_spec(name).stage1_scope()
                for name in self.workloads()}

    def segment_names(self) -> List[str]:
        """The names :meth:`build` gives its segments, in its order,
        without building a trace."""
        return [segment for name in self.workloads()
                for segment in self.trace_spec(name).segment_names()]

    def build(self) -> List[Segment]:
        """All segments, in sorted-workload (suite) order."""
        segments: List[Segment] = []
        for name in self.workloads():
            segments.extend(self.trace_spec(name).build())
        return segments


# -- per-worker-process memoization ---------------------------------------

_SEGMENTS: Dict[TraceSpec, List[Segment]] = {}
_RUNNERS: Dict[str, Any] = {}
_ARTIFACTS: Dict[Tuple[str, Optional[str]], ArtifactCache] = {}


def _artifact_cache(root: Optional[str],
                    shared: Optional[str] = None
                    ) -> Optional[ArtifactCache]:
    """Per-process artifact cache over the store at ``root``.

    Workers receive only the root path(s) (cheap to pickle) and build
    the cache lazily, so every process in a pool shares the same
    on-disk trace/Stage-1 artifacts instead of recomputing them per
    worker — the cross-worker duplication the in-memory memos cannot
    fix.  With a ``shared`` tier root the cache reads through local
    disk into the shared store, so an artifact computed by any worker
    on any host serves every other worker.
    """
    if not root:
        return None
    memo_key = (root, shared or None)
    cache = _ARTIFACTS.get(memo_key)
    if cache is None:
        cache = ArtifactCache(make_store(root, shared))
        _ARTIFACTS[memo_key] = cache
    return cache


def _segments(spec: TraceSpec,
              artifacts: Optional[ArtifactCache] = None) -> List[Segment]:
    # Span covers memo/artifact hits too: serial and parallel drives
    # then emit equal span sets regardless of worker memoization.
    with obs.span("trace-gen"):
        cached = _SEGMENTS.get(spec)
        if cached is None:
            if artifacts is not None:
                cached = artifacts.load_segments(spec.payload())
            if cached is None:
                cached = spec.build()
                if artifacts is not None:
                    artifacts.store_segments(spec.payload(), cached)
            _SEGMENTS[spec] = cached
    return cached


def _suite_segments(suite: SuiteSpec,
                    artifacts: Optional[ArtifactCache]) -> List[Segment]:
    """Suite segments in :meth:`SuiteSpec.build` order, artifact-cached."""
    segments: List[Segment] = []
    for name in suite.workloads():
        segments.extend(_segments(suite.trace_spec(name), artifacts))
    return segments


def _runner_key(kind: str, hierarchy: HierarchyConfig,
                timing: Optional[TimingConfig], prefetch: bool,
                warmup_fraction: float, scope: Any,
                artifact_root: Optional[str] = None) -> str:
    return stable_hash({
        "kind": kind,
        "hierarchy": hierarchy_payload(hierarchy),
        "timing": timing_payload(timing),
        "prefetch": prefetch,
        "warmup_fraction": warmup_fraction,
        "scope": scope,
        "artifacts": artifact_root,
    })


def _stage1_store(artifacts: Optional[ArtifactCache],
                  scopes: Dict[str, Dict[str, Any]],
                  hierarchy: HierarchyConfig, prefetch: bool):
    if artifacts is None:
        return None
    return artifacts.stage1_store(scopes, hierarchy, prefetch)


def _single_runner(hierarchy: HierarchyConfig, timing: Optional[TimingConfig],
                   prefetch: bool, warmup_fraction: float, spec: TraceSpec,
                   artifacts: Optional[ArtifactCache]) -> SingleThreadRunner:
    root = str(artifacts.store.root) if artifacts is not None else None
    key = _runner_key("single", hierarchy, timing, prefetch, warmup_fraction,
                      spec.payload(), root)
    runner = _RUNNERS.get(key)
    if runner is None:
        runner = SingleThreadRunner(
            hierarchy, timing=timing, prefetch=prefetch,
            warmup_fraction=warmup_fraction,
            stage1_store=_stage1_store(
                artifacts, {spec.benchmark: spec.stage1_scope()},
                hierarchy, prefetch),
        )
        _RUNNERS[key] = runner
    return runner


def _multi_runner(hierarchy: HierarchyConfig, timing: Optional[TimingConfig],
                  prefetch: bool, warmup_fraction: float, suite: SuiteSpec,
                  artifacts: Optional[ArtifactCache]) -> MultiProgrammedRunner:
    root = str(artifacts.store.root) if artifacts is not None else None
    key = _runner_key("multi", hierarchy, timing, prefetch, warmup_fraction,
                      suite.payload(), root)
    runner = _RUNNERS.get(key)
    if runner is None:
        runner = MultiProgrammedRunner(
            hierarchy, timing=timing, prefetch=prefetch,
            warmup_fraction=warmup_fraction,
            stage1_store=_stage1_store(artifacts, suite.stage1_scopes(),
                                       hierarchy, prefetch),
        )
        _RUNNERS[key] = runner
    return runner


def _search_evaluator(cell: Union[SearchCell, SearchBatchCell],
                      artifacts: Optional[ArtifactCache]) -> FeatureSetEvaluator:
    """The per-process evaluator for a search cell's evaluation scope."""
    suite = cell.suite
    root = str(artifacts.store.root) if artifacts is not None else None
    key = stable_hash({"kind": "evaluator", "scope": cell.scope(),
                       "artifacts": root})
    evaluator = _RUNNERS.get(key)
    if evaluator is None:
        evaluator = FeatureSetEvaluator(
            _suite_segments(suite, artifacts), cell.hierarchy,
            base_config=cell.base_config,
            warmup_fraction=cell.warmup_fraction, prefetch=cell.prefetch,
            stage1_store=_stage1_store(artifacts, suite.stage1_scopes(),
                                       cell.hierarchy, cell.prefetch),
        )
        _RUNNERS[key] = evaluator
    return evaluator


# -- cells -----------------------------------------------------------------


@dataclass(frozen=True)
class SingleCell:
    """One single-thread (benchmark, policy) experiment."""

    trace: TraceSpec
    policy: str
    hierarchy: HierarchyConfig
    mpppb_config: Optional[MPPPBConfig] = None
    timing: Optional[TimingConfig] = None
    prefetch: bool = True
    warmup_fraction: float = 0.25

    kind: ClassVar[str] = "single"

    def label(self) -> str:
        return f"{self.trace.benchmark}/{self.policy}"

    def key_payload(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "trace": self.trace.payload(),
            "hierarchy": hierarchy_payload(self.hierarchy),
            "timing": timing_payload(self.timing),
            "prefetch": self.prefetch,
            "warmup_fraction": self.warmup_fraction,
            "policy": policy_payload(self.policy, self.mpppb_config),
        }

    def run(self, artifacts: Optional[ArtifactCache] = None) -> BenchmarkResult:
        runner = _single_runner(self.hierarchy, self.timing, self.prefetch,
                                self.warmup_fraction, self.trace, artifacts)
        return runner.run_benchmark(
            self.trace.benchmark, _segments(self.trace, artifacts),
            policy_factory(self.policy, self.mpppb_config),
        )

    def encode(self, result: BenchmarkResult) -> Dict[str, Any]:
        return result.to_dict()

    def decode(self, payload: Dict[str, Any]) -> BenchmarkResult:
        return BenchmarkResult.from_dict(payload)


@dataclass(frozen=True)
class MixCell:
    """One multi-programmed (mix, policy) experiment."""

    suite: SuiteSpec
    mix_name: str
    segment_names: Tuple[str, ...]
    policy: str
    hierarchy: HierarchyConfig
    mpppb_config: Optional[MPPPBConfig] = None
    timing: Optional[TimingConfig] = None
    prefetch: bool = True
    warmup_fraction: float = 0.25

    kind: ClassVar[str] = "mix"

    def label(self) -> str:
        return f"{self.mix_name}/{self.policy}"

    def key_payload(self) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "suite": self.suite.payload(),
            "segments": list(self.segment_names),
            "hierarchy": hierarchy_payload(self.hierarchy),
            "timing": timing_payload(self.timing),
            "prefetch": self.prefetch,
            "warmup_fraction": self.warmup_fraction,
            "policy": policy_payload(self.policy, self.mpppb_config),
        }

    def _mix(self, artifacts: Optional[ArtifactCache] = None) -> Mix:
        chosen: List[Segment] = []
        for name in self.segment_names:
            benchmark = name.split(".", 1)[0]
            by_name = {
                segment.name: segment
                for segment in _segments(self.suite.trace_spec(benchmark),
                                         artifacts)
            }
            try:
                chosen.append(by_name[name])
            except KeyError:
                raise KeyError(
                    f"segment {name!r} not found in benchmark {benchmark!r}"
                ) from None
        return Mix(self.mix_name, tuple(chosen))

    def run(self, artifacts: Optional[ArtifactCache] = None) -> MixResult:
        runner = _multi_runner(self.hierarchy, self.timing, self.prefetch,
                               self.warmup_fraction, self.suite, artifacts)
        return runner.run_mix(
            self._mix(artifacts), policy_factory(self.policy, self.mpppb_config)
        )

    def encode(self, result: MixResult) -> Dict[str, Any]:
        return result.to_dict()

    def decode(self, payload: Dict[str, Any]) -> MixResult:
        return MixResult.from_dict(payload)


@dataclass(frozen=True)
class SearchCell:
    """One feature-search candidate: average MPKI over a segment pool."""

    suite: SuiteSpec
    features: Tuple[Feature, ...]
    hierarchy: HierarchyConfig
    base_config: Optional[MPPPBConfig] = None
    prefetch: bool = True
    warmup_fraction: float = 0.25

    kind: ClassVar[str] = "search"

    def label(self) -> str:
        digest = stable_hash({"f": [f.spec() for f in self.features]})
        return f"search/{len(self.features)}f/{digest[:8]}"

    def scope(self) -> Dict[str, Any]:
        """The evaluation scope: what a candidate's MPKI depends on
        besides its features.  Candidates of one scope can share a
        batch replay."""
        return {
            "suite": self.suite.payload(),
            "base": (None if self.base_config is None
                     else mpppb_payload(self.base_config)),
            "hierarchy": hierarchy_payload(self.hierarchy),
            "prefetch": self.prefetch,
            "warmup_fraction": self.warmup_fraction,
        }

    def key_payload(self) -> Dict[str, Any]:
        return dict(self.scope(), schema=SCHEMA_VERSION, kind=self.kind,
                    features=[feature.spec() for feature in self.features])

    def run(self, artifacts: Optional[ArtifactCache] = None) -> float:
        """A batch of one."""
        return _search_evaluator(self, artifacts).evaluate_batch(
            [self.features])[0]

    def encode(self, result: float) -> float:
        return result

    def decode(self, payload: float) -> float:
        return float(payload)


@dataclass(frozen=True)
class SearchBatchCell:
    """Up to :data:`~repro.search.evaluator.SEARCH_BATCH` candidates of
    one evaluation scope, resolved by one shared-context replay.

    :meth:`ParallelRunner.run_search_batches` spreads a generation
    over the worker slots, one chunk per slot while a chunk stays
    within ``SEARCH_BATCH``, so the chunks replay side by side.
    An execution grouping, not a cache unit: results are stored and
    looked up per candidate under the corresponding
    :class:`SearchCell` keys (see
    :meth:`ParallelRunner.run_search_batches`), so a candidate's result
    serves later drives whatever chunk it ran in.  Its own key only
    seeds the task.  Evaluation goes through
    :meth:`~repro.search.evaluator.FeatureSetEvaluator.evaluate_batch`,
    the same path a lone :class:`SearchCell` takes.
    """

    suite: SuiteSpec
    feature_sets: Tuple[Tuple[Feature, ...], ...]
    hierarchy: HierarchyConfig
    base_config: Optional[MPPPBConfig] = None
    prefetch: bool = True
    warmup_fraction: float = 0.25

    kind: ClassVar[str] = "search-batch"

    scope = SearchCell.scope

    def label(self) -> str:
        digest = stable_hash(
            {"f": [[f.spec() for f in fs] for fs in self.feature_sets]})
        return f"search-batch/{len(self.feature_sets)}c/{digest[:8]}"

    def key_payload(self) -> Dict[str, Any]:
        """Identity payload (task seeding); never used as a store key."""
        return dict(self.scope(), schema=SCHEMA_VERSION, kind=self.kind,
                    feature_sets=[[feature.spec() for feature in features]
                                  for features in self.feature_sets])

    def run(self, artifacts: Optional[ArtifactCache] = None) -> List[float]:
        return _search_evaluator(self, artifacts).evaluate_batch(
            self.feature_sets)

    def encode(self, result: List[float]) -> List[float]:
        return list(result)

    def decode(self, payload: Sequence[float]) -> List[float]:
        return [float(value) for value in payload]


Cell = Union[SingleCell, MixCell, SearchCell, SearchBatchCell]


def _execute_cell(cell: Cell, key: str,
                  artifact_root: Optional[str] = None,
                  attempt: int = 1,
                  in_worker: bool = False,
                  telemetry: bool = False,
                  shared_root: Optional[str] = None
                  ) -> Tuple[Any, float, Dict[str, int],
                             Optional[Dict[str, Any]]]:
    """Run one cell with deterministic seeding.

    Returns (result, seconds, artifact hit/miss deltas, telemetry
    payload).  The artifact cache only changes *where* trace and
    Stage-1 data come from, never their values, so seeding and results
    are identical with it on, off, cold, or warm.  ``attempt`` numbers
    retries (1-based) for the fault-injection harness only — seeding
    depends solely on the key, so a retried cell reproduces the first
    attempt's result exactly.

    With ``telemetry`` the cell runs under an isolated ``repro.obs``
    capture — a fresh span collector and metrics registry — and the
    payload travels back in the return tuple.  That one mechanism
    covers both execution modes: worker processes (whose telemetry
    global starts empty) and in-process serial runs (where the
    parent's ambient context is saved and restored), so serial and
    parallel drives produce identical per-cell span sets.  Telemetry
    is purely observational — it never touches ``random`` — so the
    pinned determinism hashes hold with it on or off.
    """
    plan = active_plan()
    if plan is not None:
        plan.fire(key, attempt, in_worker=in_worker)
    artifacts = _artifact_cache(artifact_root, shared_root)
    before = artifacts.stats.counts() if artifacts is not None else {}
    if telemetry:
        obs.enable()
    random.seed(task_seed(key))
    started = time.perf_counter()
    with obs.capture() as tele_ctx:
        with obs.span("cell"):
            result = cell.run(artifacts)
    seconds = time.perf_counter() - started
    tele = tele_ctx.payload() if tele_ctx is not None else None
    if artifacts is not None:
        after = artifacts.stats.counts()
        delta = {name: after[name] - before[name] for name in after}
    else:
        delta = {}
    return result, seconds, delta, tele


_AUTO_STORE = object()

#: Cache-lookup sentinel: distinguishes "miss" from a legitimately
#: falsy cached value.
_MISS = object()


#: A store miss: (position in the drive's cell list, store key, cell).
_Miss = Tuple[int, str, Cell]


@dataclass
class _Task:
    """One unit of fan-out work: a cell, its key, and the chunk of
    store misses its result settles."""

    cell: Cell
    key: str
    context: List[_Miss]
    attempt: int = 1
    started: float = 0.0  # monotonic submit time (watchdog deadline)


@dataclass
class _DriveStats:
    """Mutable fault accounting for one drive (one run() call)."""

    failures: List[CellFailure] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    requeued: int = 0
    rebuilds: int = 0
    hb_lost: int = 0     # workers declared lost by the heartbeat timeout
    abort: Optional[CellFailure] = None  # set in on_error="raise" mode


def _one_task_per_miss(misses: Sequence[_Miss]) -> List[_Task]:
    return [_Task(cell, key, [(index, key, cell)])
            for index, key, cell in misses]


def _search_tasks(misses: Sequence[_Miss], width: int,
                  slots: int) -> List[_Task]:
    """Search misses grouped by evaluation scope, each group of ``n``
    cut into fill-first chunks of ``min(width, ceil(n / slots))``.

    A group narrower than ``width * slots`` thus spreads over every
    worker slot instead of queueing behind one, and ``width`` still
    bounds a chunk's memory; at one slot the chunks are ``width``
    wide.  A chunk of one runs as its own :class:`SearchCell`.
    """
    groups: Dict[str, List[_Miss]] = {}
    for miss in misses:
        groups.setdefault(stable_hash(miss[2].scope()), []).append(miss)
    tasks: List[_Task] = []
    for members in groups.values():
        size = min(width, -(-len(members) // slots))
        for start in range(0, len(members), size):
            chunk = members[start:start + size]
            _, key, cell = chunk[0]
            if len(chunk) > 1:
                cell = SearchBatchCell(
                    suite=cell.suite,
                    feature_sets=tuple(member.features
                                       for _, _, member in chunk),
                    hierarchy=cell.hierarchy,
                    base_config=cell.base_config,
                    prefetch=cell.prefetch,
                    warmup_fraction=cell.warmup_fraction,
                )
                key = stable_hash(cell.key_payload())
            tasks.append(_Task(cell, key, chunk))
    return tasks


class ParallelRunner:
    """Cache-aware, fault-tolerant fan-out executor for experiment cells.

    With ``jobs == 1`` (the default) cache misses run serially in the
    current process through exactly the same entry points the workers
    use, so serial and parallel execution are bit-identical.

    Failure semantics (see DESIGN.md §11): a cell exception is
    captured into a :class:`~repro.exec.faults.CellFailure` instead of
    aborting the batch.  Each cell is retried up to ``retries`` times
    with exponential backoff; a worker lost under a cell (a ``lost``
    frame) rebuilds the workers and only unfinished cells are
    requeued, degrading to in-process serial execution after
    ``max_pool_rebuilds`` rebuilds; with ``cell_timeout`` a watchdog
    abandons stragglers and records them as timeouts (at ``jobs == 1``
    too: an armed watchdog runs the drive on one forked slot).  With
    ``on_error="collect"`` (default) the run completes and failed
    cells yield ``None`` results; with ``"raise"`` the first terminal
    failure raises :class:`~repro.exec.faults.CellExecutionError`
    after in-flight work drains (draining still stores those results).
    Retries and requeues never change results: cell seeding depends
    only on the cache key, never on the attempt number or worker.
    """

    #: Pool deaths tolerated before degrading to serial execution.
    max_pool_rebuilds = 3

    def __init__(self, jobs: Optional[int] = None, store: Any = _AUTO_STORE,
                 verbose: bool = False,
                 command: Optional[Sequence[str]] = None,
                 **flags: Any) -> None:
        """Resolve the run config and set up the engine.

        ``jobs`` and ``flags`` are run-config flags, named by their
        :data:`repro.config.SETTINGS` field (``cache_dir``,
        ``shared_store``, ``workers``, ``on_error``, ``retries``,
        ``cell_timeout``, ...); an unset one falls back to
        its ``REPRO_*`` variable, then its default.  A bad value or an
        undeclared ``REPRO_*`` name raises
        :class:`~repro.config.ConfigError` here, before any work.
        ``store`` replaces the ``cache_dir`` store with a ready one
        (``None`` disables caching).
        """
        self.config = config = resolve_config(dict(flags, jobs=jobs))
        if config.telemetry:
            obs.enable()
        # Worker slots: forked local children sized by --jobs, unless
        # a --workers / REPRO_WORKERS host spec puts them on ssh hosts;
        # then the summed slots become the effective job count, so the
        # submission window and report utilization reflect them.
        self.jobs = config.jobs
        self.workers_spec = config.workers
        self.backend_name = "local"
        if self.workers_spec is not None:
            self.backend_name = "ssh"
            self.jobs = total_slots(self.workers_spec)
        if store is _AUTO_STORE:
            store = (None if config.cache_dir is None
                     else ResultStore(config.cache_dir))
        # Shared store tier (--shared-store / REPRO_SHARED_STORE):
        # results and artifacts read through local disk into a shared
        # directory every worker/host can reach, and write back to
        # both.  Off by default; never wraps a caller-supplied custom
        # store object that lacks a filesystem root.
        if (config.shared_store is not None and store is not None
                and getattr(store, "root", None) is not None
                and getattr(store, "shared", None) is None):
            store = make_store(str(store.root), config.shared_store)
        self.store: Optional[ResultStore] = store
        # Derive the shared root from the store itself, so a caller
        # passing an already-tiered store gets workers that read
        # through the same shared tier.
        shared_tier = getattr(self.store, "shared", None)
        self.shared_root: Optional[str] = (
            str(shared_tier.root) if shared_tier is not None else None)
        self.verbose = verbose
        self.on_error = config.on_error
        self.retries = config.retries
        self.cell_timeout = config.cell_timeout
        # CLI argv that launched this engine; recorded in run manifests
        # so `repro.cli resume` can re-drive an interrupted run.
        self.command: List[str] = list(command) if command else []
        self.last_report: Optional[ExecReport] = None
        self.last_manifest: Optional[RunManifest] = None
        # Telemetry: where the most recent events.jsonl landed, plus a
        # cursor over the parent-process span collector so each drive
        # only writes the spans recorded since the previous one.
        self.last_events_path = None
        # Trace/Stage-1 artifacts live in the same store as results and
        # ride its enable/disable switch.
        self.artifact_root: Optional[str] = (
            None if self.store is None else str(self.store.root))

    def run(self, cells: Sequence[Cell], label: str = "") -> List[Any]:
        """Resolve every cell (cache or compute); results in cell order.

        Each store miss runs as its own task.  Failed cells (retries
        exhausted, ``on_error="collect"``) leave ``None`` in their
        result slot; ``last_report.failures`` holds the structured
        records.
        """
        return self._resolve(cells, label, _one_task_per_miss)

    def run_search_batches(self, cells: Sequence[SearchCell],
                           batch_size: Optional[int] = None,
                           label: str = "") -> List[float]:
        """Resolve search cells through shared-context batch replays.

        Cache lookups and writes stay *per candidate*, under each
        cell's own ``search`` key, so results computed here serve later
        :meth:`run` calls and vice versa.  Misses are grouped by
        evaluation scope (:meth:`SearchCell.scope`) and each group is
        spread over the engine's worker slots (``jobs``): ``n`` misses
        run in chunks of ``min(batch_size, ceil(n / jobs))``
        candidates, ``batch_size`` ``None`` meaning
        :data:`~repro.search.evaluator.SEARCH_BATCH`, the only width
        the library itself asks for.  At ``jobs == 1`` a generation of
        up to that width is one chunk; at ``jobs == 2`` 8 candidates
        run as two chunks of 4 and 40 as 20 + 20.  A chunk runs as one
        :class:`SearchBatchCell` task, a chunk of one as its own
        :class:`SearchCell`; a failed batch splits into single
        candidates.
        """
        width = batch_size or _evaluator.SEARCH_BATCH
        return self._resolve(
            cells, label,
            lambda misses: _search_tasks(misses, width, self.jobs))

    def _resolve(self, cells: Sequence[Cell], label: str,
                 tasks_for: Callable[[List[_Miss]], List[_Task]]
                 ) -> List[Any]:
        """The one resolve loop behind :meth:`run` and
        :meth:`run_search_batches`, inside a ``drive`` span."""
        sink: List[Tuple[str, str, Optional[Dict[str, Any]]]] = []
        try:
            with obs.span("drive"):
                return self._resolve_cells(cells, label, tasks_for, sink)
        finally:
            self._write_events(sink)

    def _resolve_cells(
            self, cells: Sequence[Cell], label: str,
            tasks_for: Callable[[List[_Miss]], List[_Task]],
            sink: List[Tuple[str, str, Optional[Dict[str, Any]]]]
    ) -> List[Any]:
        """Serve hits from the store and drive the misses.

        ``tasks_for`` turns the misses into tasks, each carrying a
        chunk of ``(index, key, cell)`` misses as its context.  A task
        whose chunk holds several cells is a batch: its result is one
        value per chunk member, each stored under the member's own key.
        """
        started = time.perf_counter()
        tier_before = self._tier_counts()
        results: List[Any] = [None] * len(cells)
        outcomes: List[Optional[CellOutcome]] = [None] * len(cells)
        records: List[Tuple[str, str, str]] = []
        misses: List[_Miss] = []

        for index, cell in enumerate(cells):
            key = stable_hash(cell.key_payload())
            records.append((key, cell.label(), cell.kind))
            value = self._cached_result(cell, key)
            if value is not _MISS:
                results[index] = value
                outcomes[index] = CellOutcome(cell.label(), key, True, 0.0)
            else:
                misses.append((index, key, cell))

        manifest = self._open_manifest(label, records)
        if manifest is not None:
            for outcome in outcomes:
                if outcome is not None:
                    manifest.mark(outcome.key, "done")

        artifact_counts: Dict[str, int] = {}
        stats = _DriveStats()
        plan = active_plan()
        graph = self._schedule([(cell, key) for _, key, cell in misses])
        batches = 0
        batched = 0

        def settle(task: _Task, result: Any, seconds: float,
                   delta: Dict[str, int],
                   tele: Optional[Dict[str, Any]]) -> None:
            nonlocal batches, batched
            chunk: List[_Miss] = task.context
            _merge_counts(artifact_counts, delta)
            if tele is not None:
                sink.append((task.key, task.cell.label(), tele))
            values = [result]
            if len(chunk) > 1:
                batches += 1
                batched += len(chunk)
                values = result
            share = seconds / len(chunk)
            for (index, key, cell), value in zip(chunk, values):
                results[index] = value
                outcomes[index] = CellOutcome(cell.label(), key, False,
                                              share, attempts=task.attempt)
                self._store_result(cell, key, value, plan, task.attempt)
                if manifest is not None:
                    manifest.mark(key, "done")

        def fail(task: _Task, failure: CellFailure) -> None:
            for index, key, cell in task.context:
                outcomes[index] = CellOutcome(cell.label(), key, False,
                                              failure.seconds, failed=True,
                                              attempts=failure.attempts)
                if manifest is not None:
                    manifest.mark(key, "failed")

        def split(task: _Task) -> Optional[List[_Task]]:
            # A failed batch degrades to single-candidate tasks (fresh
            # retry budget): one bad candidate must not take the whole
            # chunk down with it.
            chunk: List[_Miss] = task.context
            if len(chunk) <= 1:
                return None
            return _one_task_per_miss(chunk)

        try:
            self._drive(tasks_for(misses), stats, settle, fail, split)
        finally:
            self._finish_report(outcomes, started, label, artifact_counts,
                                stats, planned=len(cells),
                                batches=batches, batched=batched, graph=graph,
                                tier_before=tier_before)
        if self.verbose:
            print(self.last_report.table())
        return results

    # -- telemetry event sink -----------------------------------------------

    @staticmethod
    def _drain_parent_spans(ctx) -> List[Any]:
        """Parent-context span records not yet written to any event log.

        Engine-level spans (``drive``, the evaluator's ``search-gen-N``)
        land in the parent process's ambient collector, which outlives
        a single drive; the collector-side cursor ensures each record
        is emitted exactly once even across multiple engines.
        """
        return ctx.collector.drain_new()

    @staticmethod
    def _run_counters(report: ExecReport) -> Dict[str, int]:
        """Run-level counters derived from the drive's report."""
        return {
            "exec/cells": report.cells,
            "exec/result-cache-hits": report.hits,
            "exec/computed": report.computed,
            "exec/failed-cells": report.failed,
            "exec/trace-artifact-hits": report.trace_hits,
            "exec/trace-artifact-misses": report.trace_misses,
            "exec/stage1-artifact-hits": report.stage1_hits,
            "exec/stage1-artifact-misses": report.stage1_misses,
            "exec/retries": report.retries,
            "exec/timeouts": report.timeouts,
            "exec/requeued": report.requeued,
            "exec/pool-rebuilds": report.pool_rebuilds,
            "exec/graph-nodes": report.graph_nodes,
            "exec/graph-loads": report.graph_loads,
            "exec/graph-computes": report.graph_computes,
            "exec/graph-shared": report.graph_shared,
            "exec/store-shared-hits": report.store_shared_hits,
            "exec/store-shared-fills": report.store_shared_fills,
            "exec/heartbeat-lost": report.hb_lost,
            "exec/store-breaker-trips": report.store_breaker_trips,
            "exec/store-breaker-open": int(report.store_breaker_open),
        }

    def _write_events(self,
                      sink: Sequence[Tuple[str, str, Optional[Dict[str, Any]]]]
                      ) -> None:
        """Merge this drive's telemetry into one ``events.jsonl``.

        Requires telemetry on *and* an open manifest (the events file
        lives beside it and shares its run id).  Best-effort: any
        failure to write leaves the run's results untouched.
        """
        ctx = obs.current()
        manifest = self.last_manifest
        report = self.last_report
        if ctx is None or manifest is None or report is None:
            return
        events: List[Dict[str, Any]] = [run_event(
            manifest.run_id, report.label, report.wall_seconds, report.jobs,
            report.planned, report.cells, time.time(),
        )]
        for record in self._drain_parent_spans(ctx):
            events.append(span_event(None, None, record.to_dict()))
        for name, value in self._run_counters(report).items():
            if value:
                events.append(counter_event(None, name, value))
        for key, cell_label, payload in sink:
            if not payload:
                continue
            for record in payload.get("spans", ()):
                events.append(span_event(key, cell_label, record))
            for name, value in sorted(payload.get("counters", {}).items()):
                events.append(counter_event(key, name, value))
            for name, hist in sorted(payload.get("hists", {}).items()):
                events.append(hist_event(key, name, hist))
        path = write_events(manifest.events_path, events)
        if path is not None:
            self.last_events_path = path

    def flush_telemetry(self):
        """Append parent spans that closed after the last drive.

        The CLI calls this once per command so trailing engine-level
        spans (the final ``search-gen-N``, for example) still reach the
        most recent event log.  Returns that log's path, or ``None``.
        """
        ctx = obs.current()
        if ctx is None or self.last_events_path is None:
            return self.last_events_path
        fresh = self._drain_parent_spans(ctx)
        if not fresh:
            return self.last_events_path
        lines = [json.dumps(span_event(None, None, record.to_dict()),
                            separators=(",", ":"))
                 for record in fresh]
        try:
            with open(self.last_events_path, "a", encoding="utf-8") as handle:
                handle.write("\n".join(lines) + "\n")
        except OSError:
            return None
        return self.last_events_path

    # -- batch input counters -----------------------------------------------

    def _schedule(self, items: Sequence[Tuple[Cell, str]]
                  ) -> Optional[Dict[str, int]]:
        """Count the trace and Stage-1 inputs this batch's misses share.

        :func:`~repro.graph.plan_cells` counts against the artifact
        store the workers read (``artifact_root``), which need not be
        the result store.  Returns the counters for the report, or
        ``None`` when there is nothing to count, no artifact store is
        attached or counting fails — the counters describe a run,
        never decide whether it completes.
        """
        if not items or self.artifact_root is None:
            return None
        try:
            return plan_cells(items, make_store(self.artifact_root,
                                                self.shared_root))
        except Exception:
            return None

    # -- shared fault-tolerant drive machinery ------------------------------

    def _cached_result(self, cell: Cell, key: str) -> Any:
        """Store lookup; ``_MISS`` on absence, wrong kind, or corruption.

        A payload whose ``kind`` matches but whose ``result`` fails
        ``cell.decode`` degrades to a cache miss (the cell re-executes)
        — the same "corruption is a miss" contract the artifact cache
        keeps in :mod:`repro.exec.artifacts`.
        """
        if self.store is None:
            return _MISS
        payload = self.store.get(key)
        if payload is None or payload.get("kind") != cell.kind:
            return _MISS
        try:
            return cell.decode(payload["result"])
        except Exception:
            return _MISS

    def _store_result(self, cell: Cell, key: str, result: Any,
                      plan, attempt: int) -> None:
        if self.store is None:
            return
        self.store.put(key, {"kind": cell.kind,
                             "result": cell.encode(result)})
        if plan is not None and plan.corrupts(key, attempt):
            corrupt_result_blob(self.store, key, cell.kind)

    def _open_manifest(self, label: str,
                       records: Sequence[Tuple[str, str, str]]
                       ) -> Optional[RunManifest]:
        """Open the run manifest for this batch, when worth recording.

        Needs an attached store (the manifest lives beside it) and
        more than one cell — single-cell runs resume trivially through
        the result cache and would drown ``runs/`` in tiny files
        during hill-climb searches.
        """
        self.last_manifest = None
        if self.store is None or len(records) < 2:
            return None
        exec_info = {"backend": self.backend_name, "jobs": str(self.jobs)}
        if self.workers_spec is not None:
            exec_info["workers"] = self.workers_spec
        if self.shared_root is not None:
            exec_info["shared_store"] = self.shared_root
        manifest = RunManifest.create(self.store.root, label=label,
                                      command=self.command, cells=records,
                                      exec_info=exec_info)
        self.last_manifest = manifest
        return manifest

    def _tier_counts(self) -> Dict[str, int]:
        """Shared-tier counters of the result store (empty if untiered)."""
        counts = getattr(self.store, "tier_counts", None)
        return dict(counts()) if callable(counts) else {}

    def _finish_report(self, outcomes: Sequence[Optional[CellOutcome]],
                       started: float, label: str,
                       artifact_counts: Dict[str, int], stats: _DriveStats,
                       planned: int, batches: int = 0,
                       batched: int = 0,
                       graph: Optional[Dict[str, int]] = None,
                       tier_before: Optional[Dict[str, int]] = None
                       ) -> ExecReport:
        graph = graph or {}
        # Shared-tier traffic: parent-side result lookups (store tier
        # counter deltas over this drive) plus worker-side artifact
        # reads (shipped back in the artifact count deltas).
        tier_before = tier_before or {}
        tier_now = self._tier_counts()
        shared_hits = (tier_now.get("shared_hits", 0)
                       - tier_before.get("shared_hits", 0)
                       + artifact_counts.get("shared_hits", 0))
        shared_fills = (tier_now.get("shared_fills", 0)
                        - tier_before.get("shared_fills", 0))
        self.last_report = ExecReport(
            outcomes=tuple(outcome for outcome in outcomes
                           if outcome is not None),
            wall_seconds=time.perf_counter() - started,
            jobs=self.jobs,
            label=label,
            trace_hits=artifact_counts.get("trace_hits", 0),
            trace_misses=artifact_counts.get("trace_misses", 0),
            stage1_hits=artifact_counts.get("stage1_hits", 0),
            stage1_misses=artifact_counts.get("stage1_misses", 0),
            batches=batches,
            batched=batched,
            planned=planned,
            failures=tuple(stats.failures),
            retries=stats.retries,
            timeouts=stats.timeouts,
            requeued=stats.requeued,
            pool_rebuilds=stats.rebuilds,
            graph_nodes=graph.get("nodes", 0),
            graph_loads=graph.get("loads", 0),
            graph_computes=graph.get("computes", 0),
            graph_shared=graph.get("shared", 0),
            backend=self.backend_name,
            store_shared_hits=shared_hits,
            store_shared_fills=shared_fills,
            hb_lost=stats.hb_lost,
            store_breaker_trips=(tier_now.get("breaker_trips", 0)
                                 - tier_before.get("breaker_trips", 0)),
            store_breaker_open=bool(tier_now.get("breaker_open", 0)),
        )
        return self.last_report

    def _drive(self, tasks: Sequence[_Task], stats: _DriveStats,
               settle: Callable[[_Task, Any, float, Dict[str, int]], None],
               fail: Callable[[_Task, CellFailure], None],
               split: Callable[[_Task], Optional[List[_Task]]]) -> None:
        """Execute ``tasks`` with isolation, retries, and recovery."""
        queue: Deque[_Task] = deque(tasks)
        workers = min(self.jobs, len(queue))
        # Only a worker slot can be abandoned mid-cell, so an armed
        # watchdog sends even a one-task or --jobs 1 drive to the fleet.
        if workers > 1 or (workers and self.cell_timeout is not None):
            self._drive_parallel(queue, settle, fail, split, stats, workers)
        else:
            self._drive_serial(queue, settle, fail, split, stats)
        if stats.abort is not None:
            raise CellExecutionError(stats.abort)

    def _drive_serial(self, queue: Deque[_Task], settle, fail, split,
                      stats: _DriveStats) -> None:
        while queue and stats.abort is None:
            task = queue.popleft()
            try:
                result, seconds, delta, tele = _execute_cell(
                    task.cell, task.key, self.artifact_root, task.attempt,
                    False, obs.enabled(), shared_root=self.shared_root)
            except KeyboardInterrupt:
                queue.appendleft(task)
                raise
            except Exception as exc:
                self._after_failure(task, exc, "error", queue, stats, fail,
                                    split)
            else:
                settle(task, result, seconds, delta, tele)

    def _request(self, task: _Task) -> Dict[str, Any]:
        """Picklable execution request a backend ships to a worker."""
        return {
            "cell": task.cell,
            "key": task.key,
            "artifact_root": self.artifact_root,
            "shared_root": self.shared_root,
            "attempt": task.attempt,
            "telemetry": obs.enabled(),
        }

    def _drive_parallel(self, queue: Deque[_Task], settle, fail, split,
                        stats: _DriveStats, workers: int) -> None:
        backend = create_backend(workers, self.workers_spec)
        try:
            backend.start()
        except BackendUnavailable as exc:
            print(f"repro.exec: {self.backend_name} backend unavailable "
                  f"({exc}); running serially", file=sys.stderr)
            self._drive_serial(queue, settle, fail, split, stats)
            return
        running: Dict[int, _Task] = {}
        next_id = 0
        try:
            while True:
                need_rebuild = False
                # Innocent in-flight cells requeued by a rebuild keep
                # their attempt number after a watchdog timeout (the
                # straggler is at fault, not they) but are bumped after
                # a worker loss (whether *this* cell crashed the worker
                # is unknowable, and a bump keeps first-attempt-only
                # injected crashes from refiring).
                bump_on_rebuild = True
                # Sliding submission window: at most ``workers``
                # requests in flight, so every running task really is
                # running and the watchdog deadline below is a compute
                # deadline, not a queue-wait deadline.
                while queue and len(running) < workers and stats.abort is None:
                    task = queue.popleft()
                    try:
                        backend.submit(next_id, self._request(task))
                    except BackendUnavailable:
                        queue.appendleft(task)
                        need_rebuild = True
                        break
                    except Exception as exc:
                        # The request itself is bad (e.g. unpicklable
                        # cell): a cell-level failure, not a transport
                        # problem.
                        self._after_failure(task, exc, "error", queue,
                                            stats, fail, split)
                        continue
                    task.started = time.monotonic()
                    running[next_id] = task
                    next_id += 1
                if not need_rebuild:
                    if not running:
                        if stats.abort is not None or not queue:
                            return
                        need_rebuild = True  # nothing submitted cleanly
                    else:
                        for frame in backend.poll(self._poll_interval()):
                            task = running.pop(frame.task_id, None)
                            if task is None:
                                continue
                            if frame.status == FRAME_OK:
                                result, seconds, delta, tele = frame.payload
                                settle(task, result, seconds, delta, tele)
                            elif frame.status == FRAME_LOST:
                                reason = frame.payload
                                if (isinstance(reason, str)
                                        and HEARTBEAT_LOST in reason):
                                    stats.hb_lost += 1
                                if self.verbose:
                                    print(f"repro.exec: {reason}",
                                          file=sys.stderr)
                                # A worker died under this cell; bump
                                # its attempt and requeue.
                                task.attempt += 1
                                stats.requeued += 1
                                queue.append(task)
                                need_rebuild = True
                            else:
                                self._after_failure(task, frame.payload,
                                                    "error", queue, stats,
                                                    fail, split)
                        if self.cell_timeout is not None and running:
                            now = time.monotonic()
                            expired = [
                                task_id
                                for task_id, task in running.items()
                                if now - task.started >= self.cell_timeout]
                            for task_id in expired:
                                task = running.pop(task_id)
                                backend.discard(task_id)
                                stats.timeouts += 1
                                timeout_exc = TimeoutError(
                                    f"cell exceeded cell-timeout of "
                                    f"{self.cell_timeout:g}s")
                                self._after_failure(task, timeout_exc,
                                                    "timeout", queue, stats,
                                                    fail, split)
                                # The straggler still occupies a worker
                                # slot; the only way to reclaim that
                                # capacity is a rebuild.
                                need_rebuild = True
                                bump_on_rebuild = False
                if need_rebuild:
                    # Tear every worker down and requeue unfinished
                    # cells — everything already settled stays settled
                    # (and stored), so a rebuild loses zero completed
                    # results.
                    for task in running.values():
                        if bump_on_rebuild:
                            task.attempt += 1
                        stats.requeued += 1
                        queue.append(task)
                    running.clear()
                    stats.rebuilds += 1
                    recovered = False
                    if stats.rebuilds <= self.max_pool_rebuilds:
                        try:
                            backend.rebuild()
                            recovered = True
                        except BackendUnavailable:
                            recovered = False
                    if not recovered:
                        # Rebuild budget spent (or workers will not
                        # come back): finish the remaining cells
                        # in-process.
                        backend.close()
                        self._drive_serial(queue, settle, fail, split, stats)
                        return
        finally:
            backend.close()

    def _after_failure(self, task: _Task, exc: BaseException, kind: str,
                       queue: Deque[_Task], stats: _DriveStats, fail,
                       split) -> None:
        """Route one failed execution: retry, degrade, or record."""
        if task.attempt <= self.retries:
            stats.retries += 1
            self._backoff(task.attempt)
            task.attempt += 1
            queue.append(task)
            return
        replacements = split(task)
        if replacements:
            stats.requeued += len(replacements)
            queue.extend(replacements)
            return
        seconds = self.cell_timeout or 0.0 if kind == "timeout" else 0.0
        failure = make_failure(task.cell.label(), task.key, exc, kind,
                               attempts=task.attempt, seconds=seconds)
        stats.failures.append(failure)
        if stats.abort is None and self.on_error == "raise":
            stats.abort = failure
        fail(task, failure)

    def _poll_interval(self) -> Optional[float]:
        """Wait quantum for the parallel loop; None = block until done."""
        if self.cell_timeout is not None:
            return max(0.02, min(0.1, self.cell_timeout / 5.0))
        return None

    def _backoff(self, attempt: int) -> None:
        delay = min(RETRY_BACKOFF_S * (2 ** (attempt - 1)), 2.0)
        if delay > 0:
            time.sleep(delay)


def _merge_counts(totals: Dict[str, int], delta: Dict[str, int]) -> None:
    for name, count in delta.items():
        totals[name] = totals.get(name, 0) + count
