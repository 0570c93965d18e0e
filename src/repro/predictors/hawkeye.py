"""Hawkeye cache replacement [Jain & Lin, ISCA 2016] — baseline.

Hawkeye learns from Belady's MIN rather than from an LRU sampler: a
set-sampled *OPTgen* reconstructs, for a window of past accesses,
whether MIN would have hit each reuse, and a PC-indexed table of 3-bit
counters (the Hawkeye predictor) accumulates those verdicts.  Blocks
loaded by PCs with high counters are "cache-friendly", the rest
"cache-averse".

Replacement uses 3-bit RRPVs: friendly blocks insert at 0, averse at 7;
hits reset friendly blocks to 0; inserting a friendly block ages all
other blocks below 6 by one.  The victim is any block at RRPV 7, else
the oldest (highest-RRPV) block, in which case the evicted block's
loading PC is detrained (it kept a block long enough to be evicted
while predicted friendly).

The reproduced paper notes Hawkeye's false/true positive rates are not
directly comparable to LRU-sampler predictors (Section 6.3), so this
class is used only as a management policy, not in the ROC study.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.access import AccessContext
from repro.cache.replacement.base import ReplacementPolicy
from repro.predictors.base import SetSampler
from repro.util.hashing import hash_to


class OptGen:
    """Per-set occupancy-vector reconstruction of Belady's MIN.

    Time advances by one quantum per access to the set.  An interval
    [t_prev, t) whose occupancy stays below the cache's associativity
    proves MIN would have kept the block, i.e. the reuse was
    OPT-friendly; the occupancy over the interval is then incremented
    to account for the retained block.
    """

    def __init__(self, ways: int, window_factor: int = 8) -> None:
        self.ways = ways
        self.window = window_factor * ways
        self.occupancy = [0] * self.window
        self.time = 0

    def access(self, previous_time: int) -> bool:
        """Was the reuse from ``previous_time`` to now an OPT hit?"""
        now = self.time
        if previous_time < 0 or now - previous_time >= self.window:
            return False
        for t in range(previous_time, now):
            if self.occupancy[t % self.window] >= self.ways:
                return False
        for t in range(previous_time, now):
            self.occupancy[t % self.window] += 1
        return True

    def advance(self) -> int:
        """Open the next time quantum; returns the access's timestamp."""
        stamp = self.time
        self.time += 1
        self.occupancy[self.time % self.window] = 0
        return stamp


class HawkeyePredictor:
    """OPTgen-trained PC classifier (3-bit counters)."""

    name = "hawkeye"

    COUNTER_MAX = 7
    FRIENDLY_THRESHOLD = 4

    def __init__(
        self,
        llc_sets: int,
        llc_ways: int,
        sampler_sets: int = 64,
        table_bits: int = 11,
    ) -> None:
        self.sampler = SetSampler(llc_sets, sampler_sets)
        self.table_bits = table_bits
        self.counters = [self.FRIENDLY_THRESHOLD] * (1 << table_bits)
        self._optgens = [OptGen(llc_ways) for _ in range(sampler_sets)]
        # Per sampled set: block -> (last_time, last_pc) of its last access.
        self._histories: List[Dict[int, Tuple[int, int]]] = [
            {} for _ in range(sampler_sets)
        ]

    def is_friendly(self, pc: int) -> bool:
        return self.counters[self._index(pc)] >= self.FRIENDLY_THRESHOLD

    def on_llc_access(self, set_idx: int, ctx: AccessContext, hit: bool) -> bool:
        """Observe an access; train OPTgen; return current friendliness."""
        sampler_idx = self.sampler.sampler_index(set_idx)
        if sampler_idx >= 0:
            self._sample(sampler_idx, ctx)
        return self.is_friendly(ctx.pc)

    def detrain(self, pc: int) -> None:
        """A friendly-predicted block was evicted unused: push PC averse."""
        index = self._index(pc)
        if self.counters[index] > 0:
            self.counters[index] -= 1

    def _sample(self, sampler_idx: int, ctx: AccessContext) -> None:
        optgen = self._optgens[sampler_idx]
        history = self._histories[sampler_idx]
        record = history.get(ctx.block)
        if record is not None:
            last_time, last_pc = record
            opt_hit = optgen.access(last_time)
            self._train(last_pc, friendly=opt_hit)
        stamp = optgen.advance()
        history[ctx.block] = (stamp, ctx.pc)
        if len(history) > 4 * optgen.window:
            horizon = optgen.time - optgen.window
            for block in [b for b, (t, _) in history.items() if t < horizon]:
                del history[block]

    def _train(self, pc: int, friendly: bool) -> None:
        index = self._index(pc)
        if friendly:
            if self.counters[index] < self.COUNTER_MAX:
                self.counters[index] += 1
        elif self.counters[index] > 0:
            self.counters[index] -= 1

    def _index(self, pc: int) -> int:
        return hash_to(pc >> 2, self.table_bits)


class HawkeyePolicy(ReplacementPolicy):
    """RRIP-style replacement driven by the Hawkeye predictor."""

    name = "hawkeye"

    RRPV_MAX = 7

    def __init__(
        self,
        num_sets: int,
        ways: int,
        predictor: Optional[HawkeyePredictor] = None,
    ) -> None:
        super().__init__(num_sets, ways)
        self.predictor = predictor or HawkeyePredictor(num_sets, ways)
        self.rrpvs: List[List[int]] = [[self.RRPV_MAX] * ways for _ in range(num_sets)]
        self._friendly: List[List[bool]] = [[False] * ways for _ in range(num_sets)]
        self._load_pc: List[List[int]] = [[0] * ways for _ in range(num_sets)]
        self._last_friendly = False

    def on_access(self, set_idx: int, ctx: AccessContext, hit: bool, way: int) -> None:
        self._last_friendly = self.predictor.on_llc_access(set_idx, ctx, hit)

    def choose_victim(self, set_idx: int, ctx: AccessContext) -> int:
        rrpvs = self.rrpvs[set_idx]
        for way in range(self.ways):
            if rrpvs[way] == self.RRPV_MAX:
                return way
        victim = max(range(self.ways), key=lambda w: rrpvs[w])
        # Evicting a block believed friendly: its loading PC misled us.
        if self._friendly[set_idx][victim]:
            self.predictor.detrain(self._load_pc[set_idx][victim])
        return victim

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        friendly = self._last_friendly
        rrpvs = self.rrpvs[set_idx]
        if friendly:
            for other in range(self.ways):
                if other != way and rrpvs[other] < self.RRPV_MAX - 1:
                    rrpvs[other] += 1
            rrpvs[way] = 0
        else:
            rrpvs[way] = self.RRPV_MAX
        self._friendly[set_idx][way] = friendly
        self._load_pc[set_idx][way] = ctx.pc

    def on_hit(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        friendly = self._last_friendly
        self.rrpvs[set_idx][way] = 0 if friendly else self.RRPV_MAX
        self._friendly[set_idx][way] = friendly
        self._load_pc[set_idx][way] = ctx.pc

    def is_mru(self, set_idx: int, way: int) -> bool:
        return self.rrpvs[set_idx][way] == 0
