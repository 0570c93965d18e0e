"""Set-associative cache structure for the last-level cache.

:class:`SetAssociativeCache` is an explicit way-array structure, because
LLC replacement policies need per-way metadata, victim callbacks, and
recency introspection.  The private L1 and L2 caches need none of
that: :meth:`repro.sim.hierarchy.UpperLevels.run` keeps them as
per-set dicts inside its loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class SetAssociativeCache:
    """Explicit way-array cache for the LLC.

    Tags are full block addresses (no truncation — aliasing belongs in
    predictor samplers, not the cache model).  Replacement decisions
    live in policy objects; this class only stores and looks up.  Its
    geometry is the policy's ``num_sets`` x ``ways``, which
    :attr:`repro.sim.hierarchy.HierarchyConfig.llc_sets` derives.
    """

    __slots__ = ("num_sets", "ways", "tags", "valid", "_where")

    def __init__(self, num_sets: int, ways: int) -> None:
        # Replays index a set with ``block & (num_sets - 1)``.
        if num_sets & (num_sets - 1):
            raise ValueError("set count must be a power of two")
        self.num_sets = num_sets
        self.ways = ways
        self.tags: List[List[int]] = [[-1] * ways for _ in range(num_sets)]
        self.valid: List[List[bool]] = [[False] * ways for _ in range(num_sets)]
        # Per-set tag -> way index: lookup is the single hottest cache
        # operation of a stage-2 replay, and a dict probe is O(1) where
        # the way scan was O(associativity).  tags/valid remain the
        # source of truth for introspection; the index mirrors them.
        self._where: List[Dict[int, int]] = [dict() for _ in range(num_sets)]

    def lookup(self, set_idx: int, block: int) -> int:
        """Return the way holding ``block`` in ``set_idx``, or -1."""
        return self._where[set_idx].get(block, -1)

    def invalid_way(self, set_idx: int) -> int:
        """Return the lowest invalid way in ``set_idx``, or -1 if full."""
        valid = self.valid[set_idx]
        for way in range(self.ways):
            if not valid[way]:
                return way
        return -1

    def install(self, set_idx: int, way: int, block: int) -> Optional[int]:
        """Place ``block`` in ``way``; return the evicted tag, if any."""
        where = self._where[set_idx]
        evicted = self.tags[set_idx][way] if self.valid[set_idx][way] else None
        if evicted is not None and where.get(evicted) == way:
            del where[evicted]
        self.tags[set_idx][way] = block
        self.valid[set_idx][way] = True
        where[block] = way
        return evicted

    def resident_blocks(self, set_idx: int) -> List[Tuple[int, int]]:
        """(way, tag) pairs for every valid way of a set."""
        return [
            (way, self.tags[set_idx][way])
            for way in range(self.ways)
            if self.valid[set_idx][way]
        ]
