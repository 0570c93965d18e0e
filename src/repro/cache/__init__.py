"""Cache structures, access contexts, and replacement policies."""

from repro.cache.access import PREFETCH_PC, AccessContext, PCHistory
from repro.cache.cache import SetAssociativeCache

__all__ = [
    "PREFETCH_PC",
    "AccessContext",
    "PCHistory",
    "SetAssociativeCache",
]
