"""Prediction weight tables (Section 3.4).

One table per feature, each a small array of 6-bit signed saturating
weights in [-32, +31] — the paper's sweet spot between accuracy and
area.  Tables are *variable sized*: 256 entries for PC/address/XORed
features, up to 64 for offset, 2 for the single-bit features, and a
single weight for the plain bias feature.
"""

from __future__ import annotations

from typing import List

WEIGHT_BITS = 6
WEIGHT_MIN = -(1 << (WEIGHT_BITS - 1))   # -32
WEIGHT_MAX = (1 << (WEIGHT_BITS - 1)) - 1  # +31


class WeightTable:
    """One feature's table of saturating signed weights."""

    __slots__ = ("weights",)

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("table size must be positive")
        self.weights: List[int] = [0] * size

    def __len__(self) -> int:
        return len(self.weights)

    def read(self, index: int) -> int:
        return self.weights[index]

    def increment(self, index: int) -> None:
        """Train toward *dead* with saturating arithmetic."""
        value = self.weights[index]
        if value < WEIGHT_MAX:
            self.weights[index] = value + 1

    def decrement(self, index: int) -> None:
        """Train toward *live* with saturating arithmetic."""
        value = self.weights[index]
        if value > WEIGHT_MIN:
            self.weights[index] = value - 1

    def reset(self) -> None:
        for i in range(len(self.weights)):
            self.weights[i] = 0

    def storage_bits(self) -> int:
        """Hardware cost of this table in bits (Section 4.4 accounting)."""
        return WEIGHT_BITS * len(self.weights)
