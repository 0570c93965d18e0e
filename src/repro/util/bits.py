"""Bit-level helpers used by the predictor stack.

Feature range normalization and xor-folding live with the features
that use them (:mod:`repro.core.features`).
"""

from __future__ import annotations


def saturate(value: int, lo: int, hi: int) -> int:
    """Clamp ``value`` into the inclusive range [``lo``, ``hi``]."""
    if value < lo:
        return lo
    if value > hi:
        return hi
    return value
