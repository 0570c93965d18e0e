"""Multi-programmed (4-core, shared LLC) simulation (Sections 4.2, 6.1).

Implements the FIESTA-flavored methodology at the LLC:

* Each thread's private L1/L2 filtering and standalone-LRU timing are
  computed once per segment (and cached across mixes).
* The four LLC access streams are interleaved by their *standalone*
  timestamps — a fixed-interleave approximation of the paper's
  closed-loop simulation, documented in DESIGN.md — and replayed
  against the shared LLC under the policy under test.
* A thread that exhausts its region restarts from the beginning, so
  all cores stay active until every thread finishes at least one full
  region (the paper's "starts over at the beginning" rule).
* Per-thread IPC is computed from that thread's lap-0 hit/miss
  outcomes; weighted speedup is ``sum(IPC_i / SingleIPC_i)``,
  normalized to the LRU run by the caller (Section 4.5).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.lru import LRUPolicy
from repro.cpu.timing import TimingConfig, TimingModel
from repro.sim.hierarchy import HierarchyConfig, UpperLevelResult, UpperLevels
from repro.sim.llc import LLCAccess, LLCSimulator
from repro.sim.single import (
    Stage3Events,
    build_stage3_events,
    demand_load_arrays,
    replay_segment,
)
from repro.traces.mixes import Mix
from repro.traces.trace import Segment
from repro.util.stats import mpki as mpki_of

PolicyFactory = Callable[[int, int], ReplacementPolicy]


@dataclass
class ThreadData:
    """Per-segment state reused across every mix containing it."""

    segment: Segment
    upper: UpperLevelResult
    single_ipc: float
    single_cycles: float
    timestamps: List[float]
    warm_mem: int
    warm_llc: int
    # Measured-window Stage-3 skeleton, filled per mix by each policy's
    # outcomes (see SingleThreadRunner._stage3_cache).
    stage3: Stage3Events
    measured_instr: int


@dataclass(frozen=True)
class MixResult:
    """Measured metrics for one policy on one mix."""

    mix_name: str
    thread_names: Tuple[str, ...]
    ipcs: Tuple[float, ...]
    single_ipcs: Tuple[float, ...]
    mpki: float
    llc_misses: int
    llc_bypasses: int

    @property
    def weighted_speedup(self) -> float:
        """Raw weighted speedup (before LRU normalization)."""
        return sum(i / s for i, s in zip(self.ipcs, self.single_ipcs))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for the on-disk result cache (``repro.exec``)."""
        return {
            "mix_name": self.mix_name,
            "thread_names": list(self.thread_names),
            "ipcs": list(self.ipcs),
            "single_ipcs": list(self.single_ipcs),
            "mpki": self.mpki,
            "llc_misses": self.llc_misses,
            "llc_bypasses": self.llc_bypasses,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "MixResult":
        return MixResult(
            mix_name=payload["mix_name"],
            thread_names=tuple(payload["thread_names"]),
            ipcs=tuple(payload["ipcs"]),
            single_ipcs=tuple(payload["single_ipcs"]),
            mpki=payload["mpki"],
            llc_misses=payload["llc_misses"],
            llc_bypasses=payload["llc_bypasses"],
        )


class MultiProgrammedRunner:
    """Shared-LLC runner with per-segment preparation caching."""

    def __init__(
        self,
        hierarchy: HierarchyConfig,
        timing: Optional[TimingConfig] = None,
        prefetch: bool = True,
        warmup_fraction: float = 0.25,
        stage1_store: Optional[Any] = None,
    ) -> None:
        self.hierarchy = hierarchy
        self.timing = timing or TimingConfig()
        self.prefetch = prefetch
        self.warmup_fraction = warmup_fraction
        self.stage1_store = stage1_store
        self._upper = UpperLevels(hierarchy, prefetch=prefetch)
        self._threads: Dict[str, ThreadData] = {}

    @property
    def _geometry(self) -> Tuple[int, int, int]:
        llc_bytes = self.hierarchy.llc_bytes
        ways = self.hierarchy.llc_ways
        return llc_bytes, ways, llc_bytes // (ways * self.hierarchy.block_bytes)

    # -- per-thread preparation -------------------------------------------

    def thread_data(self, segment: Segment) -> ThreadData:
        """Stage-1 + standalone-LRU baseline for one segment, memoized."""
        # Span covers the memo hit too, so serial and parallel drives
        # (whose workers memoize independently) emit equal span sets.
        with obs.span("stage1"):
            return self._thread_data(segment)

    def _thread_data(self, segment: Segment) -> ThreadData:
        cached = self._threads.get(segment.name)
        if cached is not None:
            return cached
        upper = None
        store = self.stage1_store
        if store is not None:
            upper = store.load(segment)
        if upper is None:
            upper = self._upper.run(segment.trace)
            if store is not None:
                store.save(segment, upper)
        llc_bytes, ways, num_sets = self._geometry
        warm_mem = int(len(segment.trace.pcs) * self.warmup_fraction)
        warm_llc = upper.llc_warmup_boundary(warm_mem)

        sim = LLCSimulator(llc_bytes, ways, LRUPolicy(num_sets, ways),
                           self.hierarchy.block_bytes)
        standalone = sim.run(upper.llc_stream, pc_trace=segment.trace.pcs,
                             warmup=warm_llc)
        model = TimingModel(self.timing)
        trace = segment.trace
        full_timing = model.simulate_packed(
            *demand_load_arrays(
                build_stage3_events(trace, upper, self.timing, start_mem=0),
                standalone.outcomes, self.timing),
            upper.num_instructions)
        stage3 = build_stage3_events(trace, upper, self.timing,
                                     start_mem=warm_mem)
        measured_instr = upper.num_instructions - (
            upper.instr_indices[warm_mem] if warm_mem < len(trace.pcs) else 0
        )
        single_ipc = model.simulate_packed(
            *demand_load_arrays(stage3, standalone.outcomes, self.timing),
            measured_instr).ipc
        cpi = full_timing.cycles / max(1, upper.num_instructions)
        timestamps = [a.instr_index * cpi for a in upper.llc_stream]
        data = ThreadData(
            segment=segment,
            upper=upper,
            single_ipc=single_ipc,
            single_cycles=full_timing.cycles,
            timestamps=timestamps,
            warm_mem=warm_mem,
            warm_llc=warm_llc,
            stage3=stage3,
            measured_instr=measured_instr,
        )
        self._threads[segment.name] = data
        return data

    # -- mix replay ----------------------------------------------------------

    def run_mix(self, mix: Mix, policy_factory: PolicyFactory) -> MixResult:
        threads = [self.thread_data(s) for s in mix.segments]
        merged, origins, merged_pcs, pc_offsets = self._interleave(threads)

        llc_bytes, ways, num_sets = self._geometry
        policy = policy_factory(num_sets, ways)
        with obs.span("stage2"):
            # Same kernel routing as single-core: MPPPB mixes ride the
            # columnar Stage-2 kernel when it is enabled.
            result = replay_segment(llc_bytes, ways, policy,
                                    self.hierarchy.block_bytes, merged,
                                    merged_pcs, 0)

        # Scatter lap-0 outcomes back to per-thread outcome arrays.
        per_thread_outcomes: List[List[bool]] = [
            [False] * len(t.upper.llc_stream) for t in threads
        ]
        measured_misses = 0
        for merged_idx, (thread_idx, local_idx, lap) in enumerate(origins):
            if lap != 0:
                continue
            hit = result.outcomes[merged_idx]
            per_thread_outcomes[thread_idx][local_idx] = hit
            thread = threads[thread_idx]
            access = thread.upper.llc_stream[local_idx]
            if (not hit and not access.is_prefetch
                    and local_idx >= thread.warm_llc):
                measured_misses += 1

        model = TimingModel(self.timing)
        ipcs = []
        with obs.span("stage3-timing"):
            for thread, outcomes in zip(threads, per_thread_outcomes):
                ipcs.append(model.simulate_packed(
                    *demand_load_arrays(thread.stage3, outcomes, self.timing),
                    thread.measured_instr).ipc)
        total_measured_instr = sum(t.measured_instr for t in threads)

        return MixResult(
            mix_name=mix.name,
            thread_names=tuple(t.segment.name for t in threads),
            ipcs=tuple(ipcs),
            single_ipcs=tuple(t.single_ipc for t in threads),
            mpki=mpki_of(measured_misses, max(1, total_measured_instr)),
            llc_misses=result.stats.misses,
            llc_bypasses=result.stats.bypasses,
        )

    def _interleave(
        self, threads: Sequence[ThreadData]
    ) -> Tuple[List[LLCAccess], List[Tuple[int, int, int]], List[int], List[int]]:
        """Timestamp-merge the threads' LLC streams with region laps.

        PC traces are concatenated; each thread's accesses get their
        ``mem_index`` rebased into the concatenation so PC-history
        features keep working across threads.
        """
        pc_offsets: List[int] = []
        merged_pcs: List[int] = []
        for thread in threads:
            pc_offsets.append(len(merged_pcs))
            merged_pcs.extend(thread.segment.trace.pcs)

        heap: List[Tuple[float, int, int, int]] = []  # ts, thread, local, lap
        done = [len(t.upper.llc_stream) == 0 for t in threads]
        for thread_idx, thread in enumerate(threads):
            if thread.timestamps:
                heapq.heappush(heap, (thread.timestamps[0], thread_idx, 0, 0))

        merged: List[LLCAccess] = []
        origins: List[Tuple[int, int, int]] = []
        while heap and not all(done):
            ts, thread_idx, local_idx, lap = heapq.heappop(heap)
            thread = threads[thread_idx]
            access = thread.upper.llc_stream[local_idx]
            merged.append(
                LLCAccess(
                    pc=access.pc,
                    block=access.block,
                    offset=access.offset,
                    is_write=access.is_write,
                    is_prefetch=access.is_prefetch,
                    mem_index=access.mem_index + pc_offsets[thread_idx],
                    instr_index=access.instr_index,
                )
            )
            origins.append((thread_idx, local_idx, lap))
            next_local = local_idx + 1
            if next_local >= len(thread.timestamps):
                done[thread_idx] = True
                next_local = 0
                lap += 1
            next_ts = thread.timestamps[next_local] + (lap * thread.single_cycles)
            heapq.heappush(heap, (next_ts, thread_idx, next_local, lap))
        return merged, origins, merged_pcs, pc_offsets


def normalized_weighted_speedups(
    results: Dict[str, List[MixResult]], baseline: str = "lru"
) -> Dict[str, List[float]]:
    """Normalize each policy's per-mix weighted speedup to the baseline.

    ``results`` maps policy name to a list of :class:`MixResult` in the
    same mix order.  The output is what Figure 4 plots as S-curves.
    """
    if baseline not in results:
        raise ValueError(f"baseline {baseline!r} missing from results")
    base = results[baseline]
    normalized: Dict[str, List[float]] = {}
    for name, mix_results in results.items():
        if len(mix_results) != len(base):
            raise ValueError(f"policy {name!r} ran a different mix count")
        normalized[name] = [
            r.weighted_speedup / b.weighted_speedup
            for r, b in zip(mix_results, base)
        ]
    return normalized
