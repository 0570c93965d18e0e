"""The access context shared by replacement policies and predictors.

Every LLC access is described by an :class:`AccessContext`.  The
hierarchy driver fills in the static fields (PC, address, PC history);
the LLC simulator and policies fill in the dynamic fields that depend
on cache state (insertion, MRU hit, per-set last-miss bit) just before
consulting a predictor.  These dynamic fields are exactly the inputs of
the paper's single-bit features (Section 3.2): ``insert``, ``burst``,
and ``lastmiss``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

PREFETCH_PC = 0x0BADC0DE
"""The "fake PC" carried by hardware prefetches (Section 3.2, pc feature)."""


@dataclass(slots=True)
class AccessContext:
    """One LLC access with everything a reuse predictor may inspect.

    Slotted: one context object is reused across an entire LLC replay
    with every field rewritten per access, so attribute access speed
    (and the absence of a per-instance ``__dict__``) matters.
    """

    pc: int
    address: int
    block: int
    offset: int
    is_write: bool = False
    is_prefetch: bool = False
    stream_index: int = 0
    pc_history: Sequence[int] = ()
    history_index: int = 0
    is_insert: bool = False
    is_mru_hit: bool = False
    last_was_miss: bool = False
