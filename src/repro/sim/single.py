"""Single-thread simulation runner (Sections 4.2, 4.5, 6.2).

Ties the three pipeline stages together for one core:

1. Stage 1 (upper levels) runs once per workload segment and is cached
   across policies — the LLC access stream is policy invariant.
2. Stage 2 replays the stream against the policy under test.
3. Stage 3 converts per-access latencies into IPC.

Per-benchmark figures are the weighted average of the benchmark's
segments (the paper's SimPoint weighting); speedups are reported
relative to LRU and summarized by geometric mean.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro import obs
from repro.cache.replacement.base import ReplacementPolicy
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.cpu.timing import TimingConfig, TimingModel
from repro.sim.batch import KERNELS, BatchLLCSimulator
from repro.sim.hierarchy import (
    SERVICE_L1,
    SERVICE_L2,
    HierarchyConfig,
    UpperLevelResult,
    UpperLevels,
)
from repro.sim.kernel import stage2_kernel_enabled
from repro.sim.llc import LLCResult, LLCSimulator
from repro.traces.trace import Segment, Trace
from repro.util.stats import mpki as mpki_of

PolicyFactory = Callable[[int, int], ReplacementPolicy]


@dataclass(frozen=True)
class SegmentResult:
    """Measured metrics for one policy on one workload segment."""

    segment_name: str
    weight: float
    ipc: float
    mpki: float
    llc_accesses: int
    llc_hits: int
    llc_misses: int
    llc_bypasses: int
    demand_misses: int
    instructions: int

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for the on-disk result cache (``repro.exec``)."""
        return asdict(self)

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "SegmentResult":
        return SegmentResult(**payload)


@dataclass(frozen=True)
class BenchmarkResult:
    """Weighted aggregate over a benchmark's segments (Section 4.2)."""

    benchmark: str
    segments: Tuple[SegmentResult, ...]

    def _total_weight(self) -> float:
        total_weight = sum(s.weight for s in self.segments)
        if not self.segments or total_weight <= 0:
            raise ValueError(
                f"benchmark {self.benchmark!r} has no weighted segments "
                f"to aggregate (segments={len(self.segments)}, "
                f"total weight={total_weight})"
            )
        return total_weight

    @property
    def ipc(self) -> float:
        total_weight = self._total_weight()
        return sum(s.ipc * s.weight for s in self.segments) / total_weight

    @property
    def mpki(self) -> float:
        total_weight = self._total_weight()
        return sum(s.mpki * s.weight for s in self.segments) / total_weight

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for the on-disk result cache (``repro.exec``)."""
        return {
            "benchmark": self.benchmark,
            "segments": [segment.to_dict() for segment in self.segments],
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "BenchmarkResult":
        return BenchmarkResult(
            benchmark=payload["benchmark"],
            segments=tuple(SegmentResult.from_dict(segment)
                           for segment in payload["segments"]),
        )


def demand_load_events(
    trace: Trace,
    upper: UpperLevelResult,
    outcomes: Sequence[bool],
    timing: TimingConfig,
    start_mem: int = 0,
) -> Iterable[Tuple[int, int, bool]]:
    """Yield ``(instr_index, latency, depends)`` per measured demand load.

    The readable reference for :func:`build_stage3_events` +
    :func:`demand_load_arrays`, which produce the same events as
    columns (``tests/test_sim_single.py`` pins them equal).

    ``instr_index`` is relative to the first measured instruction,
    ``latency`` comes from the level that serviced the load, and
    ``depends`` flags loads address-dependent on the previous load
    (pointer chasing), which the timing model serializes.  Stores are
    non-blocking (no timing event); prefetch LLC accesses are not
    instructions and never appear here — their effect is already
    folded into the service levels.
    """
    l1, l2 = timing.l1_latency, timing.l2_latency
    llc_hit, llc_miss = timing.llc_latency, timing.llc_miss_latency
    writes = trace.writes.tolist()
    deps = trace.deps.tolist()
    service = upper.service.tolist()
    instr_indices = upper.instr_indices.tolist()
    base_instr = instr_indices[start_mem] if start_mem < len(trace.pcs) else 0
    for mem_index in range(start_mem, len(trace.pcs)):
        if writes[mem_index]:
            continue
        level = service[mem_index]
        if level == SERVICE_L1:
            latency = l1
        elif level == SERVICE_L2:
            latency = l2
        else:
            latency = llc_hit if outcomes[level] else llc_miss
        yield instr_indices[mem_index] - base_instr, latency, deps[mem_index]


@dataclass
class Stage3Events:
    """Candidate-invariant skeleton of a segment's demand-load events.

    Everything here depends only on the trace and the Stage-1 result:
    the measured demand loads' relative instruction indices, their
    dependence flags, base latencies for L1/L2-serviced loads, and the
    positions/stream indices of LLC-serviced loads whose latency is
    decided per policy by the Stage-2 outcomes.  Built once per
    (segment, warmup) and reused for every candidate — K policies pay
    one numpy fill each instead of K full Python event loops.  Every
    field is an array; :func:`demand_load_arrays` hands the timing loop
    lists.
    """

    instr: Any            # numpy int64 array, one entry per load event
    depends: Any          # numpy bool array, one entry per load event
    base_latencies: Any   # numpy int64 array, one entry per load event
    llc_positions: Any    # numpy indices into the event order
    llc_stream_idx: Any   # matching indices into the LLC outcome list


def build_stage3_events(
    trace: Trace,
    upper: UpperLevelResult,
    timing: TimingConfig,
    start_mem: int = 0,
) -> Stage3Events:
    """Vectorized equivalent of :func:`demand_load_events`' static part."""
    loads = ~trace.writes[start_mem:]
    service = upper.service[start_mem:][loads]
    base_instr = (upper.instr_indices[start_mem]
                  if start_mem < len(trace.pcs) else 0)
    instr = upper.instr_indices[start_mem:][loads] - base_instr
    depends = trace.deps[start_mem:][loads]
    latencies = np.full(len(service), timing.l1_latency, dtype=np.int64)
    latencies[service == SERVICE_L2] = timing.l2_latency
    llc_positions = np.nonzero(service >= 0)[0]
    return Stage3Events(
        instr=instr,
        depends=depends,
        base_latencies=latencies,
        llc_positions=llc_positions,
        llc_stream_idx=service[llc_positions],
    )


def demand_load_arrays(
    events: Stage3Events,
    outcomes: Sequence[bool],
    timing: TimingConfig,
) -> Tuple[List[int], List[int], List[bool]]:
    """Fill a policy's LLC latencies into the shared event skeleton.

    Returns ``(instr_indices, latencies, depends)`` as the lists
    :meth:`~repro.cpu.timing.TimingModel.simulate_packed` loops over,
    equal element for element to iterating :func:`demand_load_events`.
    """
    latencies = events.base_latencies.copy()
    hits = np.asarray(outcomes, dtype=bool)[events.llc_stream_idx]
    latencies[events.llc_positions] = np.where(
        hits, timing.llc_latency, timing.llc_miss_latency)
    return (events.instr.tolist(), latencies.tolist(),
            events.depends.tolist())


def replay_segment(
    policies: Sequence[ReplacementPolicy],
    llc_stream: Sequence,
    pcs: Sequence[int],
    warmup: int,
) -> List[LLCResult]:
    """Stage-2 replay of one stream; one result per policy.

    ``llc_stream`` is an :class:`~repro.sim.llc.LLCColumns` (a
    segment's Stage-1 stream or a mix's merged stream) or a list of
    :class:`~repro.sim.llc.LLCAccess`, and ``pcs`` its PC history (a
    trace's ``uint64`` PC column, or a list).  Each policy replays on a
    fresh cache of its own geometry.  This is the one reader of the
    ``REPRO_STAGE2_KERNEL`` switch, and it picks one of two routes:

    * on (the default), when every policy has the same exact type in
      :data:`repro.sim.batch.KERNELS` (MPPPB, LRU, Perceptron or
      Hawkeye), one :class:`~repro.sim.batch.BatchLLCSimulator`
      replays them all;
    * otherwise each policy replays on the sequential
      :class:`LLCSimulator`: off, a subclass (which may override any
      hook), any other policy, or a mixed list.

    Both routes record the same telemetry and are bit-identical.
    """
    kinds = {type(policy) for policy in policies}
    if stage2_kernel_enabled() and len(kinds) == 1 and kinds <= KERNELS.keys():
        return BatchLLCSimulator(policies).run(llc_stream, pc_trace=pcs,
                                               warmup=warmup)
    return [LLCSimulator(policy).run(llc_stream, pc_trace=pcs, warmup=warmup)
            for policy in policies]


class SingleThreadRunner:
    """Runs policies over workload segments with stage-1 caching."""

    def __init__(
        self,
        hierarchy: HierarchyConfig,
        timing: Optional[TimingConfig] = None,
        prefetch: bool = True,
        warmup_fraction: float = 0.25,
        stage1_store: Optional[Any] = None,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.hierarchy = hierarchy
        self.timing = timing or TimingConfig()
        self.prefetch = prefetch
        self.warmup_fraction = warmup_fraction
        self.stage1_store = stage1_store
        self._upper = UpperLevels(hierarchy, prefetch=prefetch)
        self._stage1_cache: Dict[str, UpperLevelResult] = {}
        # Candidate-invariant Stage-3 event skeletons, keyed by segment
        # name (warmup fraction and timing are fixed per runner).
        self._stage3_cache: Dict[str, Stage3Events] = {}

    # -- stage 1 ----------------------------------------------------------

    def upper_result(self, segment: Segment) -> UpperLevelResult:
        """Stage-1 result for a segment, computed once and memoized.

        With a ``stage1_store`` attached (an on-disk artifact adapter,
        see :class:`repro.exec.artifacts.Stage1ArtifactStore`), results
        are shared across processes and sessions; the in-memory memo
        still guarantees one (de)serialization per segment per runner.
        """
        # The span wraps the whole lookup — memo hits included — so a
        # run's span *set* is identical whether this process computed
        # the result, loaded it from the artifact store, or had it
        # memoized already (only the durations differ).
        with obs.span("stage1"):
            return self._upper_result(segment)

    def _upper_result(self, segment: Segment) -> UpperLevelResult:
        """:meth:`upper_result` without its span."""
        cached = self._stage1_cache.get(segment.name)
        if cached is None:
            store = self.stage1_store
            if store is not None:
                cached = store.load(segment)
            if cached is None:
                cached = self._upper.run(segment.trace)
                if store is not None:
                    store.save(segment, cached)
            self._stage1_cache[segment.name] = cached
        return cached

    # -- stages 2 + 3 ----------------------------------------------------

    def _warmup(self, segment: Segment, upper: UpperLevelResult
                ) -> Tuple[int, int, int]:
        """The warmup split: the first measured memory access, the first
        measured LLC access, and the instructions retired from the
        first measured access on."""
        warm_mem = int(len(segment.trace.pcs) * self.warmup_fraction)
        measured_instr = upper.num_instructions - (
            int(upper.instr_indices[warm_mem])
            if warm_mem < len(segment.trace.pcs) else 0
        )
        return warm_mem, upper.llc_warmup_boundary(warm_mem), measured_instr

    def run_segment(
        self, segment: Segment, policy_factory: PolicyFactory
    ) -> SegmentResult:
        hierarchy = self.hierarchy
        policy = policy_factory(hierarchy.llc_sets, hierarchy.llc_ways)
        return self._run_policies(segment, [policy])[0]

    def run_segment_batch(
        self, segment: Segment, configs: Sequence[MPPPBConfig]
    ) -> List[SegmentResult]:
        """Stage 2+3 for K MPPPB candidates over one shared Stage-1 result.

        Equivalent to K :meth:`run_segment` calls with MPPPB factories
        (same results, bit for bit) but the stream decode and
        candidate-invariant per-access context are paid once; see
        :class:`repro.sim.batch.BatchLLCSimulator`.
        """
        hierarchy = self.hierarchy
        return self._run_policies(segment, [
            MPPPBPolicy(hierarchy.llc_sets, hierarchy.llc_ways, config)
            for config in configs
        ])

    def _run_policies(self, segment: Segment,
                      policies: Sequence[ReplacementPolicy]
                      ) -> List[SegmentResult]:
        """Stage 1 lookup, warmup split, Stage 2 and Stage 3 for each
        policy over one segment."""
        upper = self.upper_result(segment)
        warm_mem, warm_llc, measured_instr = self._warmup(segment, upper)
        with obs.span("stage2"):
            replays = replay_segment(policies, upper.llc_stream,
                                     segment.trace.pcs, warm_llc)
        return [
            self._finish_segment(segment, upper, llc, warm_mem,
                                 measured_instr)
            for llc in replays
        ]

    def _stage3_events(self, segment: Segment, upper: UpperLevelResult,
                       warm_mem: int) -> Stage3Events:
        events = self._stage3_cache.get(segment.name)
        if events is None:
            events = build_stage3_events(segment.trace, upper, self.timing,
                                         start_mem=warm_mem)
            self._stage3_cache[segment.name] = events
        return events

    def _finish_segment(self, segment: Segment, upper: UpperLevelResult,
                        llc: LLCResult, warm_mem: int,
                        measured_instr: int) -> SegmentResult:
        """Stage 3 + metric assembly shared by both Stage-2 paths."""
        with obs.span("stage3-timing"):
            instr, latencies, depends = demand_load_arrays(
                self._stage3_events(segment, upper, warm_mem), llc.outcomes,
                self.timing)
            timing_result = TimingModel(self.timing).simulate_packed(
                instr, latencies, depends, measured_instr)
        return SegmentResult(
            segment_name=segment.name,
            weight=segment.weight,
            ipc=timing_result.ipc,
            mpki=mpki_of(llc.stats.demand_misses, measured_instr),
            llc_accesses=llc.stats.accesses,
            llc_hits=llc.stats.hits,
            llc_misses=llc.stats.misses,
            llc_bypasses=llc.stats.bypasses,
            demand_misses=llc.stats.demand_misses,
            instructions=measured_instr,
        )

    def run_benchmark(
        self, name: str, segments: Sequence[Segment], policy_factory: PolicyFactory
    ) -> BenchmarkResult:
        results = tuple(self.run_segment(s, policy_factory) for s in segments)
        return BenchmarkResult(benchmark=name, segments=results)

    def run_suite(
        self,
        suite: Dict[str, Sequence[Segment]],
        policy_factory: PolicyFactory,
    ) -> Dict[str, BenchmarkResult]:
        return {
            name: self.run_benchmark(name, segments, policy_factory)
            for name, segments in sorted(suite.items())
        }


def cross_validated_configs(suite_names: Sequence[str]):
    """Assign each benchmark the Table 1 feature set trained on the
    *other* half of the suite, mirroring the paper's cross-validation
    (Section 5.2): the first half of the alphabetized suite evaluates
    with set (b), the second half with set (a).
    """
    from repro.core.presets import single_thread_config

    ordered = sorted(suite_names)
    half = len(ordered) // 2
    assignment = {}
    for index, name in enumerate(ordered):
        table = "b" if index < half else "a"
        assignment[name] = single_thread_config(table)
    return assignment


def speedups_over_lru(
    results: Dict[str, BenchmarkResult], lru_results: Dict[str, BenchmarkResult]
) -> Dict[str, float]:
    """Per-benchmark IPC ratio versus the LRU baseline (Section 4.5)."""
    return {
        name: results[name].ipc / lru_results[name].ipc
        for name in sorted(results)
        if name in lru_results
    }
