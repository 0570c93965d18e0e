"""Upper-level cache hierarchy driver (stage 1 of the pipeline).

Runs a workload trace through the private L1 data cache and unified L2
(both LRU, per Section 4.1) with the stream prefetcher, producing:

* per memory access, the level that services it (L1, L2, or an index
  into the LLC stream), plus its retired-instruction index — the
  inputs of the timing model; and
* the LLC access stream (demand L2 misses plus prefetch fills carrying
  the fake prefetch PC), which stage 2 replays against each policy.

Because L1/L2 behavior cannot depend on the LLC's replacement policy
(non-inclusive hierarchy, no back-invalidation), this stage runs once
per workload and its output is reused for every policy.

The stream prefetcher (Section 4.1) starts a stream on an L1 miss,
waits for at most two misses to decide the stream direction, then
issues ``PREFETCH_DEGREE`` blocks ahead of the new head; it tracks
``PREFETCH_STREAMS`` streams replaced by LRU.  A trained stream
matches misses up to ``PREFETCH_WINDOW`` blocks ahead of its head in
its direction, an untrained one within the window on either side.

:meth:`UpperLevels.run` is one flat loop over the trace: L1 and L2 are
per-set dicts (insertion order is recency order), the prefetcher's
stream table is three parallel lists, and the LLC stream is appended
straight into columns.  ``tests/stage1_oracle.py`` keeps the
object-per-structure loop it replaced as the reference, and the tests
hold the two equal on every field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.cache.access import PREFETCH_PC
from repro.core.features import BLOCK_OFFSET_BITS
from repro.sim.llc import LLCColumns
from repro.traces.trace import Trace

SERVICE_L1 = -1
SERVICE_L2 = -2


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache geometry for one core plus the shared LLC."""

    l1_kib: int = 32
    l1_ways: int = 8
    l2_kib: int = 256
    l2_ways: int = 8
    llc_kib: int = 2048
    llc_ways: int = 16
    block_bytes: int = 64

    def __post_init__(self) -> None:
        # Both stages split addresses at BLOCK_OFFSET_BITS (Stage 1
        # sizes its sets by it too, and Stage 2 rebuilds each LLC
        # address from a block and that many offset bits), as do the
        # offset features.  The field stays, so that the hierarchy's
        # keys do not move, and admits only the block size they model.
        if self.block_bytes != 1 << BLOCK_OFFSET_BITS:
            raise ValueError(
                f"block_bytes must be {1 << BLOCK_OFFSET_BITS}, "
                f"got {self.block_bytes}")

    @property
    def llc_bytes(self) -> int:
        return self.llc_kib * 1024

    @property
    def llc_sets(self) -> int:
        """LLC set count; raises on a geometry the set-index mask
        cannot address, as L1 and L2 do."""
        return _set_count(self.llc_kib, self.llc_ways)


@dataclass
class UpperLevelResult:
    """Stage-1 output for one workload segment.

    ``service`` and ``instr_indices`` are ``int64`` arrays with one
    entry per memory access; ``llc_stream`` holds the LLC accesses as
    columns.
    """

    service: np.ndarray
    instr_indices: np.ndarray
    llc_stream: LLCColumns
    num_instructions: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    prefetches_issued: int

    def llc_warmup_boundary(self, warm_mem_index: int) -> int:
        """First LLC stream index at or after memory access ``warm_mem_index``.

        ``mem_index`` is non-decreasing along the stream (the hierarchy
        driver appends in trace order, prefetches carrying the index of
        their trigger), so the boundary is a binary search.
        """
        return int(np.searchsorted(self.llc_stream.mem_index,
                                   warm_mem_index, side="left"))


PREFETCH_STREAMS = 16
PREFETCH_DEGREE = 2
PREFETCH_WINDOW = 4


def _set_count(kib: int, ways: int) -> int:
    """Sets of a ``kib`` KiB, ``ways``-way cache of
    ``2**BLOCK_OFFSET_BITS``-byte blocks; raises on a geometry the
    set-index mask cannot address."""
    capacity = kib * 1024
    set_bytes = ways << BLOCK_OFFSET_BITS
    if capacity % set_bytes != 0:
        raise ValueError("capacity must be a whole number of sets")
    num_sets = capacity // set_bytes
    if num_sets & (num_sets - 1):
        raise ValueError("set count must be a power of two")
    return num_sets


class UpperLevels:
    """L1 + L2 + stream prefetcher front half of the hierarchy."""

    def __init__(self, config: HierarchyConfig, prefetch: bool = True) -> None:
        self.config = config
        self.prefetch = prefetch

    def run(self, trace: Trace) -> UpperLevelResult:
        config = self.config
        l1_mask = _set_count(config.l1_kib, config.l1_ways) - 1
        l2_mask = _set_count(config.l2_kib, config.l2_ways) - 1
        l1_ways = config.l1_ways
        l2_ways = config.l2_ways
        l1 = [{} for _ in range(l1_mask + 1)]
        l2 = [{} for _ in range(l2_mask + 1)]
        shift = BLOCK_OFFSET_BITS
        offset_mask = (1 << BLOCK_OFFSET_BITS) - 1
        prefetch = self.prefetch
        pcs = trace.pcs
        writes = trace.writes

        # Every access an L1 hit until the loop says otherwise.
        service = [SERVICE_L1] * len(pcs)
        # LLC stream columns, in LLCAccess field order; instr_index is
        # gathered from instr_indices by mem_index afterwards.
        s_pc: List[int] = []
        s_block: List[int] = []
        s_offset: List[int] = []
        s_write: List[bool] = []
        s_prefetch: List[bool] = []
        s_mem: List[int] = []
        # Stream table: head block, direction (0 while untrained) and
        # LRU tick of each stream, in allocation-slot order.
        heads: List[int] = []
        directions: List[int] = []
        ticks: List[int] = []
        tick = 0
        issued = 0
        for mem_index, address in enumerate(trace.addresses):
            block = address >> shift
            cache_set = l1[block & l1_mask]
            if block in cache_set:
                del cache_set[block]
                cache_set[block] = None
                continue
            if len(cache_set) >= l1_ways:
                del cache_set[next(iter(cache_set))]
            cache_set[block] = None

            cache_set = l2[block & l2_mask]
            if block in cache_set:
                del cache_set[block]
                cache_set[block] = None
                service[mem_index] = SERVICE_L2
            else:
                if len(cache_set) >= l2_ways:
                    del cache_set[next(iter(cache_set))]
                cache_set[block] = None
                service[mem_index] = len(s_block)
                s_pc.append(pcs[mem_index])
                s_block.append(block)
                s_offset.append(address & offset_mask)
                s_write.append(writes[mem_index])
                s_prefetch.append(False)
                s_mem.append(mem_index)
            if not prefetch:
                continue

            # The L1 miss continues the stream at the smallest distance
            # along its direction, the first such stream on a tie.
            tick += 1
            best = -1
            best_distance = PREFETCH_WINDOW + 1
            for stream, head in enumerate(heads):
                distance = block - head
                if -best_distance < distance < best_distance:
                    direction = directions[stream]
                    if direction:
                        distance *= direction
                    elif distance < 0:
                        distance = -distance
                    if 0 < distance < best_distance:
                        best = stream
                        best_distance = distance
            if best < 0:
                if len(heads) < PREFETCH_STREAMS:
                    heads.append(block)
                    directions.append(0)
                    ticks.append(tick)
                else:
                    victim = ticks.index(min(ticks))
                    heads[victim] = block
                    directions[victim] = 0
                    ticks[victim] = tick
                continue
            ticks[best] = tick
            direction = directions[best]
            if not direction:  # the second miss picks the direction
                direction = 1 if block > heads[best] else -1
                directions[best] = direction
            heads[best] = block
            for step in range(1, PREFETCH_DEGREE + 1):
                pf_block = block + direction * step
                if pf_block < 0:
                    continue
                issued += 1
                cache_set = l2[pf_block & l2_mask]
                if pf_block in cache_set:
                    continue
                if len(cache_set) >= l2_ways:
                    del cache_set[next(iter(cache_set))]
                cache_set[pf_block] = None
                s_pc.append(PREFETCH_PC)
                s_block.append(pf_block)
                s_offset.append(0)
                s_write.append(False)
                s_prefetch.append(True)
                s_mem.append(mem_index)

        service_col = np.array(service, dtype=np.int64)
        instr_indices = np.cumsum(
            np.asarray(trace.gaps, dtype=np.int64) + 1) - 1
        mem = np.array(s_mem, dtype=np.int64)
        llc_stream = LLCColumns(
            np.array(s_pc, dtype=np.uint64),
            np.array(s_block, dtype=np.int64),
            np.array(s_offset, dtype=np.int64),
            np.array(s_write, dtype=np.bool_),
            np.array(s_prefetch, dtype=np.bool_),
            mem,
            instr_indices[mem],
        )
        l1_misses = int(np.count_nonzero(service_col != SERVICE_L1))
        l2_hits = int(np.count_nonzero(service_col == SERVICE_L2))
        return UpperLevelResult(
            service=service_col,
            instr_indices=instr_indices,
            llc_stream=llc_stream,
            num_instructions=trace.num_instructions,
            l1_hits=len(pcs) - l1_misses,
            l1_misses=l1_misses,
            l2_hits=l2_hits,
            l2_misses=l1_misses - l2_hits,
            prefetches_issued=issued,
        )
