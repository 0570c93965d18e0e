"""Reference Stage 1: one object per cache level and per stream table.

:class:`FastLRUCache` (the L1/L2 cache), :class:`StreamPrefetcher`
(the 16-stream prefetcher of Section 4.1) and :func:`run_upper_levels`
(the loop that drives them over a trace) are the readable model that
:meth:`repro.sim.hierarchy.UpperLevels.run` flattens into one loop.
They produce the Stage-1 result as plain lists, with one
:class:`~repro.sim.llc.LLCAccess` per LLC access, and
:func:`pack_upper_reference` frames that result the way the artifact
cache stores it.  The tests hold the flat loop equal to this model on
every field and its artifact blob equal byte for byte.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cache.access import PREFETCH_PC
from repro.exec.cachekey import SCHEMA_VERSION, canonical_json
from repro.sim.hierarchy import SERVICE_L1, SERVICE_L2, HierarchyConfig
from repro.sim.llc import LLCAccess
from repro.traces.trace import Trace


class FastLRUCache:
    """LRU cache over block addresses.

    Addresses must already be block-aligned indices (byte address
    shifted right by the block-offset width).  Python dictionaries
    preserve insertion order, so delete-and-reinsert gives O(1) LRU
    promotion and ``next(iter(...))`` O(1) victim selection.
    """

    __slots__ = ("num_sets", "ways", "_sets", "hits", "misses")

    def __init__(self, capacity_bytes: int, ways: int, block_bytes: int = 64) -> None:
        if capacity_bytes % (ways * block_bytes) != 0:
            raise ValueError("capacity must be a whole number of sets")
        # Set count by hand: an oracle must not share the simulator's.
        self.num_sets = capacity_bytes // (ways * block_bytes)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError("set count must be a power of two")
        self.ways = ways
        self._sets: List[Dict[int, None]] = [dict() for _ in range(self.num_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, block: int) -> bool:
        """Touch ``block``; return True on hit.  Misses allocate."""
        cache_set = self._sets[block & (self.num_sets - 1)]
        if block in cache_set:
            del cache_set[block]
            cache_set[block] = None
            self.hits += 1
            return True
        self.misses += 1
        if len(cache_set) >= self.ways:
            del cache_set[next(iter(cache_set))]
        cache_set[block] = None
        return False

    def probe(self, block: int) -> bool:
        """Check residency without updating recency or statistics."""
        return block in self._sets[block & (self.num_sets - 1)]

    def fill(self, block: int) -> None:
        """Install ``block`` (as MRU) without counting a demand access.

        Used for prefetch fills, which must not perturb hit statistics.
        """
        cache_set = self._sets[block & (self.num_sets - 1)]
        if block in cache_set:
            return
        if len(cache_set) >= self.ways:
            del cache_set[next(iter(cache_set))]
        cache_set[block] = None


@dataclass
class _Stream:
    last_block: int
    direction: int  # +1, -1, or 0 while untrained
    trained: bool
    lru_tick: int


class StreamPrefetcher:
    """Block-granular stream prefetcher with an LRU stream table.

    A stream is a run of block addresses advancing by +1 or -1 block.
    On each L1 miss the prefetcher tries to match an existing stream
    within a small forward window; a matched, trained stream issues
    ``degree`` prefetch blocks ahead of the new head.  Unmatched misses
    allocate a fresh untrained stream (possibly evicting the LRU
    stream), and an untrained stream trains as soon as a second nearby
    miss reveals the direction — "at most two misses to decide".
    """

    def __init__(
        self,
        num_streams: int = 16,
        degree: int = 2,
        match_window: int = 4,
    ) -> None:
        if num_streams < 1 or degree < 1 or match_window < 1:
            raise ValueError("prefetcher parameters must be positive")
        self.num_streams = num_streams
        self.degree = degree
        self.match_window = match_window
        self._streams: List[_Stream] = []
        self._tick = 0
        self.issued = 0

    def on_l1_miss(self, block: int) -> List[int]:
        """Observe a demand L1 miss; return blocks to prefetch."""
        self._tick += 1
        stream = self._match(block)
        if stream is None:
            self._allocate(block)
            return []
        stream.lru_tick = self._tick
        if not stream.trained:
            delta = block - stream.last_block
            if delta == 0:
                return []
            stream.direction = 1 if delta > 0 else -1
            stream.trained = True
            stream.last_block = block
        else:
            stream.last_block = block
        prefetches = [
            block + stream.direction * distance
            for distance in range(1, self.degree + 1)
        ]
        prefetches = [p for p in prefetches if p >= 0]
        self.issued += len(prefetches)
        return prefetches

    def _match(self, block: int) -> Optional[_Stream]:
        """Find the stream this miss continues, if any.

        A trained stream matches misses up to ``match_window`` blocks
        ahead of its head in its direction; an untrained stream matches
        within the window on either side.
        """
        best: Optional[_Stream] = None
        best_distance = self.match_window + 1
        for stream in self._streams:
            delta = block - stream.last_block
            if stream.trained:
                distance = delta * stream.direction
                if 0 < distance <= self.match_window and distance < best_distance:
                    best = stream
                    best_distance = distance
            else:
                distance = abs(delta)
                if 0 < distance <= self.match_window and distance < best_distance:
                    best = stream
                    best_distance = distance
        return best

    def _allocate(self, block: int) -> None:
        stream = _Stream(last_block=block, direction=0, trained=False,
                         lru_tick=self._tick)
        if len(self._streams) < self.num_streams:
            self._streams.append(stream)
            return
        victim = min(range(len(self._streams)),
                     key=lambda i: self._streams[i].lru_tick)
        self._streams[victim] = stream

    @property
    def active_streams(self) -> int:
        return len(self._streams)


@dataclass
class OracleResult:
    """:class:`~repro.sim.hierarchy.UpperLevelResult`'s fields as lists."""

    service: List[int]
    instr_indices: List[int]
    llc_stream: List[LLCAccess]
    num_instructions: int
    l1_hits: int
    l1_misses: int
    l2_hits: int
    l2_misses: int
    prefetches_issued: int


def run_upper_levels(config: HierarchyConfig, trace: Trace,
                     prefetch: bool = True) -> OracleResult:
    """Stage 1 of ``trace`` through one cache object per level."""
    l1 = FastLRUCache(config.l1_kib * 1024, config.l1_ways, config.block_bytes)
    l2 = FastLRUCache(config.l2_kib * 1024, config.l2_ways, config.block_bytes)
    prefetcher = StreamPrefetcher() if prefetch else None
    shift = config.block_bytes.bit_length() - 1
    offset_mask = config.block_bytes - 1

    # The trace's numpy columns as Python ints: a uint64 scalar would
    # wrap the prefetcher's block arithmetic.
    pcs, addresses, writes, gaps = (trace.pcs.tolist(),
                                    trace.addresses.tolist(),
                                    trace.writes.tolist(),
                                    trace.gaps.tolist())
    service: List[int] = []
    instr_indices: List[int] = []
    llc_stream: List[LLCAccess] = []
    instr = -1
    for mem_index in range(len(pcs)):
        instr += gaps[mem_index] + 1
        address = addresses[mem_index]
        block = address >> shift
        instr_indices.append(instr)
        if l1.access(block):
            service.append(SERVICE_L1)
            continue
        prefetch_blocks = (
            prefetcher.on_l1_miss(block) if prefetcher is not None else ()
        )
        if l2.access(block):
            service.append(SERVICE_L2)
        else:
            service.append(len(llc_stream))
            llc_stream.append(
                LLCAccess(
                    pc=pcs[mem_index],
                    block=block,
                    offset=address & offset_mask,
                    is_write=writes[mem_index],
                    is_prefetch=False,
                    mem_index=mem_index,
                    instr_index=instr,
                )
            )
        for pf_block in prefetch_blocks:
            if pf_block == block or l2.probe(pf_block):
                continue
            l2.fill(pf_block)
            llc_stream.append(
                LLCAccess(
                    pc=PREFETCH_PC,
                    block=pf_block,
                    offset=0,
                    is_write=False,
                    is_prefetch=True,
                    mem_index=mem_index,
                    instr_index=instr,
                )
            )
    return OracleResult(
        service=service,
        instr_indices=instr_indices,
        llc_stream=llc_stream,
        num_instructions=trace.num_instructions,
        l1_hits=l1.hits,
        l1_misses=l1.misses,
        l2_hits=l2.hits,
        l2_misses=l2.misses,
        prefetches_issued=prefetcher.issued if prefetcher is not None else 0,
    )


def pack_upper_reference(upper: OracleResult) -> bytes:
    """The Stage-1 artifact blob of ``upper``, framed with ``array``.

    Magic, little-endian meta length, canonical-JSON meta (schema,
    kind, byte order, scalars, ``[name, typecode, count]`` manifest),
    then each array's raw bytes; flag bits are write=1, prefetch=2.
    """
    stream = upper.llc_stream
    flags = [(1 if access.is_write else 0) | (2 if access.is_prefetch else 0)
             for access in stream]
    columns = [
        ("service", "q", upper.service),
        ("instr_indices", "q", upper.instr_indices),
        ("s_pc", "Q", [access.pc for access in stream]),
        ("s_block", "Q", [access.block for access in stream]),
        ("s_offset", "B", [access.offset for access in stream]),
        ("s_flags", "B", flags),
        ("s_mem", "q", [access.mem_index for access in stream]),
        ("s_instr", "q", [access.instr_index for access in stream]),
    ]
    packed = [(name, array(typecode, values)) for name, typecode, values in columns]
    meta = canonical_json({
        "schema": SCHEMA_VERSION,
        "artifact": "stage1",
        "endian": sys.byteorder,
        "scalars": {
            "num_instructions": upper.num_instructions,
            "l1_hits": upper.l1_hits,
            "l1_misses": upper.l1_misses,
            "l2_hits": upper.l2_hits,
            "l2_misses": upper.l2_misses,
            "prefetches_issued": upper.prefetches_issued,
        },
        "arrays": [[name, values.typecode, len(values)] for name, values in packed],
    }).encode("utf-8")
    return b"".join([b"RPA1", len(meta).to_bytes(4, "little"), meta]
                    + [values.tobytes() for _, values in packed])
