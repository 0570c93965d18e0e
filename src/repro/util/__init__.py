"""Shared utilities: saturation, deterministic hashing, statistics."""

from repro.util.bits import saturate
from repro.util.hashing import combine, hash_to, mix64, skewed_hashes
from repro.util.stats import (
    RocPoint,
    arithmetic_mean,
    auc,
    geometric_mean,
    mpki,
    roc_curve,
    roc_curve_fast,
    s_curve,
    weighted_speedup,
)

__all__ = [
    "saturate",
    "combine",
    "hash_to",
    "mix64",
    "skewed_hashes",
    "RocPoint",
    "arithmetic_mean",
    "auc",
    "geometric_mean",
    "mpki",
    "roc_curve",
    "roc_curve_fast",
    "s_curve",
    "weighted_speedup",
]
