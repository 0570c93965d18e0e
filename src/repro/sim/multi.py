"""Multi-programmed (4-core, shared LLC) simulation (Sections 4.2, 6.1).

Implements the FIESTA-flavored methodology at the LLC:

* Each thread's private L1/L2 filtering and standalone-LRU timing are
  computed once per segment (and cached across mixes) by the
  single-thread runner :class:`MultiProgrammedRunner` extends.
* The four LLC access streams are interleaved by their *standalone*
  timestamps — a fixed-interleave approximation of the paper's
  closed-loop simulation, documented in DESIGN.md — and replayed
  against the shared LLC under the policy under test.  The merge is
  one ``np.lexsort`` over every thread's timestamp keys; its output
  stays in columns (:class:`~repro.sim.llc.LLCColumns`), which the
  columnar Stage-2 kernel reads directly.
* A thread that exhausts its region restarts from the beginning, so
  all cores stay active until every thread finishes at least one full
  region (the paper's "starts over at the beginning" rule).
* Per-thread IPC is computed from that thread's lap-0 hit/miss
  outcomes, scattered back with array masks over the merge's origin
  columns; weighted speedup is ``sum(IPC_i / SingleIPC_i)``,
  normalized to the LRU run by the caller (Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cache.replacement.lru import LRUPolicy
from repro.cpu.timing import TimingModel
from repro.sim.hierarchy import UpperLevelResult
from repro.sim.llc import LLCColumns
from repro.sim.single import (
    PolicyFactory,
    SingleThreadRunner,
    Stage3Events,
    build_stage3_events,
    demand_load_arrays,
    replay_segment,
)
from repro.traces.mixes import Mix
from repro.traces.trace import Segment
from repro.util.stats import mpki as mpki_of


@dataclass
class ThreadData:
    """Per-segment state reused across every mix containing it."""

    segment: Segment
    upper: UpperLevelResult
    single_ipc: float
    single_cycles: float
    # Standalone cycle of each LLC access: ``instr_index * cpi`` as a
    # float64 array, nondecreasing along the stream.
    timestamps: np.ndarray
    # ``upper.llc_stream``, the input of every mix's merge.
    llc_columns: LLCColumns
    warm_mem: int
    warm_llc: int
    # Measured-window Stage-3 skeleton, filled per mix by each policy's
    # outcomes (SingleThreadRunner._stage3_events).
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


class MultiProgrammedRunner(SingleThreadRunner):
    """Shared-LLC runner with per-segment preparation caching.

    A thread is prepared by the single-thread runner this class
    extends: its Stage-1 lookup, warmup split and measured-window
    Stage-3 skeleton are the base class's, and SingleIPCᵢ is the
    thread's LRU IPC as :meth:`SingleThreadRunner.run_segment`
    measures it on this hierarchy.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._threads: Dict[str, ThreadData] = {}

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
        upper = self._upper_result(segment)
        warm_mem, warm_llc, measured_instr = self._warmup(segment, upper)
        hierarchy = self.hierarchy
        trace = segment.trace

        # The standalone-LRU baseline takes the same Stage-2 route as a
        # single cell, reading the columns every mix's merge reads.
        llc_columns = upper.llc_stream
        [standalone] = replay_segment(
            [LRUPolicy(hierarchy.llc_sets, hierarchy.llc_ways)],
            llc_columns, trace.pcs, warm_llc)
        model = TimingModel(self.timing)
        # The whole segment's standalone CPI places the merge's
        # timestamps; SingleIPC is the measured window's.
        full_timing = model.simulate_packed(
            *demand_load_arrays(
                build_stage3_events(trace, upper, self.timing, start_mem=0),
                standalone.outcomes, self.timing),
            upper.num_instructions)
        stage3 = self._stage3_events(segment, upper, warm_mem)
        single_ipc = model.simulate_packed(
            *demand_load_arrays(stage3, standalone.outcomes, self.timing),
            measured_instr).ipc
        cpi = full_timing.cycles / max(1, upper.num_instructions)
        data = ThreadData(
            segment=segment,
            upper=upper,
            single_ipc=single_ipc,
            single_cycles=full_timing.cycles,
            timestamps=llc_columns.instr_index * cpi,
            llc_columns=llc_columns,
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
        with obs.span("interleave"):
            merged, origins, merged_pcs, pc_offsets = self._interleave(threads)

        hierarchy = self.hierarchy
        policy = policy_factory(hierarchy.llc_sets, hierarchy.llc_ways)
        with obs.span("stage2"):
            # Same routing as single-core: MPPPB, LRU, Perceptron and
            # Hawkeye mixes ride the columnar Stage-2 kernel; other
            # policies (and every policy under REPRO_STAGE2_KERNEL=off)
            # replay on LLCSimulator.  Both read the merged columns.
            [result] = replay_segment([policy], merged, merged_pcs, 0)

        # Scatter lap-0 outcomes back to per-thread outcome arrays.
        hits = np.asarray(result.outcomes, dtype=bool)
        origin_thread, origin_local, origin_lap = origins
        lap0 = origin_lap == 0
        per_thread_outcomes = []
        measured_misses = 0
        for thread_idx, thread in enumerate(threads):
            mine = lap0 & (origin_thread == thread_idx)
            local, hit = origin_local[mine], hits[mine]
            outcomes = np.zeros(len(thread.timestamps), dtype=bool)
            outcomes[local] = hit
            per_thread_outcomes.append(outcomes)
            demand = ~thread.llc_columns.is_prefetch[local]
            measured_misses += int(np.count_nonzero(
                ~hit & demand & (local >= thread.warm_llc)))

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
    ) -> Tuple[LLCColumns, Tuple[np.ndarray, np.ndarray, np.ndarray],
               List[int], List[int]]:
        """Timestamp-merge the threads' LLC streams with region laps.

        Returns ``(merged, origins, merged_pcs, pc_offsets)``.  PC
        traces are concatenated into ``merged_pcs`` (a list:
        ``LLCSimulator``'s features index it per access), thread ``t``'s
        starting at ``pc_offsets[t]``; each merged access gets its
        ``mem_index`` rebased into the concatenation so PC-history
        features keep working across threads.  ``origins`` is three
        ``int64`` arrays, the ``(thread, local, lap)`` of every merged
        access.

        Access ``local`` of thread ``t`` on lap ``lap`` has the key
        ``(ts[local] + lap * single_cycles, t, local, lap)``.  The merge
        is every key up to the *stop key*, the largest lap-0 tail
        ``(ts[-1], t, n - 1, 0)`` over non-empty threads, in key order:
        it ends once every thread has completed its region once.  One
        ``np.lexsort`` produces that order.  It is the order a heap
        merge of the threads' lap sequences pops, because each
        thread's keys are nondecreasing along its sequence:
        ``instr_index`` never decreases along a Stage-1 stream and
        ``cpi > 0``, so timestamps never decrease within a lap, and
        ``ts[-1] < single_cycles``, so every lap starts after the one
        before it ends.
        """
        pc_offsets: List[int] = []
        merged_pcs: List[int] = []
        for thread in threads:
            pc_offsets.append(len(merged_pcs))
            merged_pcs.extend(thread.segment.trace.pcs)

        live = [t for t, thread in enumerate(threads)
                if len(thread.timestamps)]
        if not live:
            empty = np.zeros(0, dtype=np.int64)
            return (LLCColumns.from_accesses([]), (empty, empty, empty),
                    merged_pcs, pc_offsets)
        stop_ts, stop_thread = max((threads[t].timestamps[-1], t)
                                   for t in live)

        thread_id, local, lap = _merge_order(threads, live, stop_ts,
                                             stop_thread)
        starts = np.cumsum([0] + [len(t.timestamps) for t in threads])
        rows = starts[thread_id] + local
        pc, block, offset, is_write, is_prefetch, mem_index, instr_index = (
            np.concatenate(column)[rows]
            for column in zip(*(t.llc_columns.arrays() for t in threads)))
        mem_index += np.asarray(pc_offsets, dtype=np.int64)[thread_id]
        merged = LLCColumns(pc, block, offset, is_write, is_prefetch,
                            mem_index, instr_index)
        return merged, (thread_id, local, lap), merged_pcs, pc_offsets


def _merge_order(
    threads: Sequence[ThreadData], live: Sequence[int], stop_ts: float,
    stop_thread: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(thread, local, lap)`` of every merged access, in merge order,
    as ``int64`` arrays (see :meth:`MultiProgrammedRunner._interleave`).

    The sort inputs live only here, so they are freed before the
    caller gathers the merged columns: thread, local and lap are
    ``int32`` (a thread's stream and lap count stay far below 2**31),
    and each thread's lap expansion is dropped once its kept entries
    are taken.
    """
    keys, thread_ids, locals_, laps = [], [], [], []
    stop_entry = 0
    for t in live:
        thread = threads[t]
        ts = thread.timestamps
        n = len(ts)
        if t == stop_thread:  # its lap-0 tail; lap 0 is all kept
            stop_entry = sum(len(k) for k in keys) + n - 1
        # Every lap whose first access can fall at or before the
        # stop, plus one in case the division rounds down; the
        # filter below is exact.
        lap = np.arange(int((stop_ts - ts[0]) // thread.single_cycles) + 2,
                        dtype=np.int32)
        # The heap merge's float expression, ts + lap * cycles.
        key = (ts + (lap * thread.single_cycles)[:, None]).ravel()
        keep = key <= stop_ts
        keys.append(key[keep])
        thread_ids.append(np.full(np.count_nonzero(keep), t,
                                  dtype=np.int32))
        locals_.append(np.tile(np.arange(n, dtype=np.int32), len(lap))[keep])
        laps.append(np.repeat(lap, n)[keep])
        del key, keep

    key = np.concatenate(keys)
    thread_id, local, lap = (np.concatenate(parts)
                             for parts in (thread_ids, locals_, laps))
    del keys, thread_ids, locals_, laps
    order = np.lexsort((lap, local, thread_id, key))
    del key
    # Keys equal to the stop key's timestamp sort after it when their
    # (thread, local, lap) is larger: cut at the stop entry.
    order = order[:np.flatnonzero(order == stop_entry)[0] + 1]
    return tuple(column[order].astype(np.int64)
                 for column in (thread_id, local, lap))


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
