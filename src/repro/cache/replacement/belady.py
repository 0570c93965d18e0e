"""Belady's MIN optimal replacement, extended with optimal bypass.

MIN [Belady 1966] evicts the block whose next use lies farthest in the
future.  The paper simulates MIN "adapted to also provide optimal
bypass" as the single-thread upper bound (Section 4.3): when the
incoming block's own next use is at least as far as every resident
block's, the fill is bypassed instead of displacing a more useful
block.

The policy is offline: the LLC simulator computes, for every access
in the LLC stream, the stream index of the next access to the same
block (``NEVER`` when there is none) with :func:`next_use_windows`
and hands them over via :meth:`prepare`, one window of accesses at a
time.  :func:`compute_next_uses` is the readable reference.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence

import numpy as np

from repro.cache.access import AccessContext
from repro.cache.replacement.base import ReplacementPolicy

NEVER = 1 << 62
"""Next-use sentinel for blocks that are never referenced again."""


def compute_next_uses(blocks: Sequence[int]) -> List[int]:
    """For each access, the stream index of that block's next access."""
    next_uses = [NEVER] * len(blocks)
    last_seen = {}
    for index in range(len(blocks) - 1, -1, -1):
        block = blocks[index]
        next_uses[index] = last_seen.get(block, NEVER)
        last_seen[block] = index
    return next_uses


def next_use_windows(blocks: np.ndarray, window: int) -> Iterator[List[int]]:
    """:func:`compute_next_uses` of a block column, as lists of
    ``window`` accesses, in stream order.

    The whole stream's next uses are held as ``int32`` indices
    (``int64`` from 2**31 accesses on), -1 for ``NEVER``; each list is
    made as it is taken, so MIN holds about 4 bytes per access, not a
    list of the whole stream.
    """
    next_uses = _next_use_column(blocks, window)
    for lo in range(0, len(blocks), window):
        part = next_uses[lo:lo + window]
        # An int64 NEVER: a Python int would be cast to int32.
        yield np.where(part < 0, np.int64(NEVER), part).tolist()


def _next_use_column(blocks: np.ndarray, window: int) -> np.ndarray:
    """The next-use column of :func:`next_use_windows`.

    One stable argsort lists each block's accesses in stream order, so
    an access's next use is the access after it in the sort when both
    touch the same block.  The pairs are compared and scattered one
    ``window`` at a time, and the sort is freed on return.
    """
    n = len(blocks)
    order = np.argsort(blocks, kind="stable")
    next_uses = np.full(n, -1, dtype=np.int32 if n < 1 << 31 else np.int64)
    for lo in range(0, n - 1, window):
        after = order[lo + 1:lo + 1 + window]
        here = order[lo:lo + len(after)]
        same = blocks[here] == blocks[after]
        next_uses[here[same]] = after[same]
    return next_uses


class BeladyPolicy(ReplacementPolicy):
    """MIN with optimal bypass."""

    name = "min"

    def __init__(self, num_sets: int, ways: int) -> None:
        super().__init__(num_sets, ways)
        self._next_uses: Sequence[int] = ()
        self._start = 0
        self._way_next_use: List[List[int]] = [
            [NEVER] * ways for _ in range(num_sets)
        ]

    @property
    def needs_future(self) -> bool:
        return True

    def prepare(self, next_uses: Sequence[int], start: int = 0) -> None:
        self._next_uses = next_uses
        self._start = start

    def _incoming_next_use(self, ctx: AccessContext) -> int:
        if not self._next_uses:
            raise RuntimeError("BeladyPolicy.prepare was not called")
        return self._next_uses[ctx.stream_index - self._start]

    def should_bypass(self, set_idx: int, ctx: AccessContext) -> bool:
        incoming = self._incoming_next_use(ctx)
        if incoming >= NEVER:
            return True
        farthest = max(self._way_next_use[set_idx])
        return incoming >= farthest

    def choose_victim(self, set_idx: int, ctx: AccessContext) -> int:
        uses = self._way_next_use[set_idx]
        victim = 0
        farthest = uses[0]
        for way in range(1, self.ways):
            if uses[way] > farthest:
                farthest = uses[way]
                victim = way
        return victim

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        self._way_next_use[set_idx][way] = self._incoming_next_use(ctx)

    def on_hit(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        self._way_next_use[set_idx][way] = self._incoming_next_use(ctx)

    def on_evict(self, set_idx: int, way: int, block: int) -> None:
        self._way_next_use[set_idx][way] = NEVER
