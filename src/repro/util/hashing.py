"""Deterministic integer hashes for predictor table indexing.

Hardware predictors index their tables with cheap deterministic hashes
(xor folds, multiplicative mixes, CRC-like shuffles).  We mirror that:
all hashes here are pure functions of their inputs so simulations are
reproducible run to run and machine to machine (Python's builtin
``hash`` is salted and therefore unsuitable).
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1

_GOLDEN64 = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(value: int) -> int:
    """splitmix64 finalizer: a strong, cheap 64-bit mixing function."""
    value = (value + _GOLDEN64) & MASK64
    value = ((value ^ (value >> 30)) * _MIX1) & MASK64
    value = ((value ^ (value >> 27)) * _MIX2) & MASK64
    return value ^ (value >> 31)


def hash_to(value: int, width: int) -> int:
    """Hash ``value`` into ``width`` bits."""
    return mix64(value) & ((1 << width) - 1)


def combine(*values: int) -> int:
    """Order-sensitive combination of several integers into one hash."""
    acc = 0
    for v in values:
        acc = mix64(acc ^ (v & MASK64))
    return acc


def skewed_hashes(value: int, count: int, width: int) -> list:
    """Return ``count`` independent hashes of ``value``.

    SDBP indexes three tables with differently skewed hashes of the PC
    (following the skewed branch predictor); each table therefore sees
    a different collision pattern and the summed counters tolerate
    aliasing in any single table.
    """
    return [hash_to(combine(value, 0x5EED + 97 * i), width) for i in range(count)]
