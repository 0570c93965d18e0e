"""Last-level cache simulator.

Replays a (policy-invariant) LLC access stream — produced once per
workload by :class:`repro.sim.hierarchy.UpperLevels` — against an LLC
governed by the replacement policy under test.  This is stage 2 of the
simulation pipeline described in DESIGN.md; because L1/L2 filtering
does not depend on the LLC policy, the same stream is reused for LRU,
SRRIP, Hawkeye, Perceptron, SDBP, MPPPB, and MIN, which is what makes
policy comparisons cheap and exactly aligned.
"""

from __future__ import annotations

import collections.abc
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from repro import obs
from repro.cache.access import AccessContext
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.belady import next_use_windows
from repro.core.features import BLOCK_OFFSET_BITS


@dataclass
class LLCAccess:
    """One access arriving at the LLC (demand L2 miss or prefetch)."""

    __slots__ = ("pc", "block", "offset", "is_write", "is_prefetch",
                 "mem_index", "instr_index")

    pc: int
    block: int
    offset: int
    is_write: bool
    is_prefetch: bool
    mem_index: int
    instr_index: int


# :class:`LLCColumns` field order (``LLCAccess``'s) and column dtypes.
# PCs are ``uint64``: real traces carry kernel-space PCs >= 2**63.
_COLUMN_DTYPES = (
    ("pc", np.uint64),
    ("block", np.int64),
    ("offset", np.int64),
    ("is_write", np.bool_),
    ("is_prefetch", np.bool_),
    ("mem_index", np.int64),
    ("instr_index", np.int64),
)
#: Accesses handled per step.  Iterating an :class:`LLCColumns` builds
#: this many :class:`LLCAccess` objects at a time,
#: :meth:`LLCSimulator.run` reads this many accesses' lists (and MIN's
#: next uses) at a time, and the columnar Stage-2 kernel lowers and
#: replays a stream this many accesses at a time
#: (:func:`repro.sim.kernel.columns.replay_windows`), so none holds a
#: whole stream of Python objects.
WINDOW = 1 << 14


class LLCColumns(collections.abc.Sequence[LLCAccess]):
    """An LLC access stream held as one numpy array per field.

    A read-only ``Sequence[LLCAccess]``: indexing, slicing and
    iteration build :class:`LLCAccess` objects on demand from
    ``.tolist()`` values, so every field is a plain Python ``int`` or
    ``bool``.  Built objects are not cached: keeping them would hold
    the whole stream as objects again.  Neither Stage-2 route builds
    them: :meth:`LLCSimulator.run` zips the columns' ``.tolist()`` lists
    and :class:`~repro.sim.batch.BatchLLCSimulator` lowers the arrays
    (:mod:`repro.sim.kernel.columns`), each one :data:`WINDOW` at a time.
    """

    __slots__ = tuple(name for name, _ in _COLUMN_DTYPES)

    def __init__(self, pc, block, offset, is_write, is_prefetch, mem_index,
                 instr_index) -> None:
        self.pc = pc
        self.block = block
        self.offset = offset
        self.is_write = is_write
        self.is_prefetch = is_prefetch
        self.mem_index = mem_index
        self.instr_index = instr_index

    @classmethod
    def from_accesses(cls, stream: Sequence[LLCAccess]) -> "LLCColumns":
        """The columns of a materialized stream."""
        n = len(stream)
        return cls(*(
            np.fromiter((getattr(a, name) for a in stream), dtype=dtype,
                        count=n)
            for name, dtype in _COLUMN_DTYPES
        ))

    def arrays(self) -> tuple:
        """The seven arrays, in :class:`LLCAccess` field order."""
        return (self.pc, self.block, self.offset, self.is_write,
                self.is_prefetch, self.mem_index, self.instr_index)

    def __len__(self) -> int:
        return len(self.block)

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[LLCAccess, List[LLCAccess]]:
        if isinstance(index, slice):
            return list(map(LLCAccess,
                            *(col[index].tolist() for col in self.arrays())))
        n = len(self)
        position = index + n if index < 0 else index
        if not 0 <= position < n:
            raise IndexError("LLCColumns index out of range")
        return LLCAccess(*(col[position].item() for col in self.arrays()))

    def __iter__(self):
        for start in range(0, len(self), WINDOW):
            yield from self[start:start + WINDOW]


@dataclass
class LLCStats:
    """Counters over the measured portion of a run.

    Demand counters exclude prefetch accesses: the paper's MPKI counts
    demand misses per kilo-instruction.
    """

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    bypasses: int = 0
    evictions: int = 0
    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0


@dataclass
class LLCResult:
    """Outcome of one LLC replay."""

    outcomes: List[bool]
    stats: LLCStats
    warm_stats: LLCStats


class LLCSimulator:
    """Drives one replacement policy over an LLC access stream, on a
    fresh cache of the policy's geometry."""

    def __init__(self, policy: ReplacementPolicy) -> None:
        self.cache = SetAssociativeCache(policy.num_sets, policy.ways)
        self.policy = policy
        self._last_was_miss = [False] * policy.num_sets

    def run(
        self,
        stream: Union[LLCColumns, Sequence[LLCAccess]],
        pc_trace: Sequence[int] = (),
        warmup: int = 0,
    ) -> LLCResult:
        """Replay ``stream``; outcomes[i] is True when access i hit.

        The loop reads columns, as ``.tolist()`` lists of one
        :data:`WINDOW` of accesses at a time; a list of
        :class:`LLCAccess` is turned into :class:`LLCColumns` first.
        A policy that needs the future (MIN) is handed each window's
        next uses before the window replays.

        ``pc_trace`` is the full per-memory-instruction PC sequence of
        the workload (a trace's ``uint64`` column is read as a list);
        predictor features index it through each access's ``mem_index``
        to recover the PC history (Section 3.2's pc feature).  Accesses
        before ``warmup`` update all state but are excluded from the
        measured statistics.
        """
        if not isinstance(stream, LLCColumns):
            stream = LLCColumns.from_accesses(stream)
        if isinstance(pc_trace, np.ndarray):
            pc_trace = pc_trace.tolist()
        future = (next_use_windows(stream.block, WINDOW)
                  if self.policy.needs_future else None)
        cache = self.cache
        policy = self.policy
        last_was_miss = self._last_was_miss
        set_mask = cache.num_sets - 1
        outcomes: List[bool] = []
        append_outcome = outcomes.append
        warm = LLCStats()
        measured = LLCStats()
        # Hoist the per-access attribute lookups out of the replay loop:
        # these bound methods and lists are consulted for every access.
        where = cache._where
        on_access = policy.on_access
        on_hit = policy.on_hit
        on_fill = policy.on_fill
        on_evict = policy.on_evict
        is_mru = policy.is_mru
        offset_bits = BLOCK_OFFSET_BITS
        should_bypass = policy.should_bypass
        choose_victim = policy.choose_victim
        invalid_way = cache.invalid_way
        install = cache.install
        # One context object is reused across the whole replay: policies
        # and predictors read it synchronously and never retain it.
        ctx = AccessContext(pc=0, address=0, block=0, offset=0,
                            pc_history=pc_trace)
        # Every field but instr_index, read as plain lists one window
        # at a time: no object per access, no list per stream.
        fields = stream.arrays()[:6]
        for lo in range(0, len(stream), WINDOW):
            if future is not None:
                policy.prepare(next(future), lo)
            rows = zip(*(col[lo:lo + WINDOW].tolist() for col in fields))
            for index, (pc, block, offset, is_write, is_prefetch,
                        mem_index) in enumerate(rows, lo):
                stats = measured if index >= warmup else warm
                set_idx = block & set_mask
                way = where[set_idx].get(block, -1)
                hit = way >= 0
                ctx.pc = pc
                ctx.address = (block << offset_bits) | offset
                ctx.block = block
                ctx.offset = offset
                ctx.is_write = is_write
                ctx.is_prefetch = is_prefetch
                ctx.stream_index = index
                ctx.history_index = mem_index
                ctx.is_insert = not hit
                ctx.last_was_miss = last_was_miss[set_idx]
                ctx.is_mru_hit = hit and is_mru(set_idx, way)
                on_access(set_idx, ctx, hit, way)
                stats.accesses += 1
                if not is_prefetch:
                    stats.demand_accesses += 1
                if hit:
                    stats.hits += 1
                    if not is_prefetch:
                        stats.demand_hits += 1
                    on_hit(set_idx, way, ctx)
                else:
                    stats.misses += 1
                    if not is_prefetch:
                        stats.demand_misses += 1
                    if should_bypass(set_idx, ctx):
                        stats.bypasses += 1
                    else:
                        fill_way = invalid_way(set_idx)
                        if fill_way < 0:
                            fill_way = choose_victim(set_idx, ctx)
                            evicted = cache.tags[set_idx][fill_way]
                            on_evict(set_idx, fill_way, evicted)
                            stats.evictions += 1
                        install(set_idx, fill_way, block)
                        on_fill(set_idx, fill_way, ctx)
                last_was_miss[set_idx] = not hit
                append_outcome(hit)
        if obs.enabled():
            flush_llc_metrics(measured, policy)
        return LLCResult(outcomes=outcomes, stats=measured, warm_stats=warm)


def flush_llc_metrics(stats: LLCStats, policy: ReplacementPolicy) -> None:
    """Fold one replay's aggregate stats into the telemetry registry.

    Called once per replay (never per access): the hot loop above pays
    nothing for metrics beyond the single ``obs.enabled()`` test, and
    the counters it reports are the aggregates it maintains anyway.
    The flush is observation-only — the pinned determinism hashes are
    identical with telemetry on or off.
    """
    items = [
        ("llc/replays", 1),
        ("llc/accesses", stats.accesses),
        ("llc/hits", stats.hits),
        ("llc/misses", stats.misses),
        ("llc/fills", stats.misses - stats.bypasses),
        ("llc/bypasses", stats.bypasses),
        ("llc/evictions", stats.evictions),
        ("llc/demand-misses", stats.demand_misses),
    ]
    sampler = getattr(policy, "sampler", None)
    if sampler is not None:
        live = getattr(sampler, "trainings_live", 0)
        dead = getattr(sampler, "trainings_dead", 0)
        items += [("sampler/trainings-live", live),
                  ("sampler/trainings-dead", dead),
                  ("sampler/trainings", live + dead)]
    # MPPPB decision counters (cumulative per policy, i.e. including
    # warmup accesses — unlike the measured-window llc/* counters).
    if hasattr(policy, "promotions_suppressed"):
        items += [("mpppb/bypass-decisions", getattr(policy, "bypasses", 0)),
                  ("mpppb/promotions-suppressed",
                   policy.promotions_suppressed)]
    obs.inc_many(items)
