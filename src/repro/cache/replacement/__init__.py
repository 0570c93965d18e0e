"""Replacement policies for the last-level cache."""

from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.belady import NEVER, BeladyPolicy, compute_next_uses
from repro.cache.replacement.lru import LRUPolicy
from repro.cache.replacement.mdpp import MDPPPolicy
from repro.cache.replacement.plru import PLRUTree, TreePLRUPolicy
from repro.cache.replacement.random_ import RandomPolicy
from repro.cache.replacement.srrip import BRRIPPolicy, DRRIPPolicy, SRRIPPolicy

__all__ = [
    "ReplacementPolicy",
    "NEVER",
    "BeladyPolicy",
    "compute_next_uses",
    "LRUPolicy",
    "MDPPPolicy",
    "PLRUTree",
    "TreePLRUPolicy",
    "RandomPolicy",
    "BRRIPPolicy",
    "DRRIPPolicy",
    "SRRIPPolicy",
]
