"""Statistics used to report results the way the paper does (Section 4.5).

Speedups are reported as geometric means, misses as arithmetic-mean
MPKI, multi-programmed performance as weighted speedup normalized to
LRU, and predictor accuracy as ROC points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; raises on empty input."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def arithmetic_mean(values: Iterable[float]) -> float:
    values = list(values)
    if not values:
        raise ValueError("arithmetic_mean of empty sequence")
    return sum(values) / len(values)


def mpki(misses: int, instructions: int) -> float:
    """Misses per kilo-instruction."""
    if instructions <= 0:
        raise ValueError("instruction count must be positive")
    return 1000.0 * misses / instructions


def weighted_speedup(ipcs: Sequence[float], single_ipcs: Sequence[float]) -> float:
    """FIESTA-style weighted speedup: sum of IPC_i / SingleIPC_i.

    ``single_ipcs`` are the standalone-LRU IPCs of the same programs
    (Section 4.5); the caller normalizes against the LRU run's weighted
    speedup to obtain the figures plotted in Figure 4.
    """
    if len(ipcs) != len(single_ipcs):
        raise ValueError("ipcs and single_ipcs must have equal length")
    if not ipcs:
        raise ValueError("weighted_speedup of empty sequence")
    return sum(ipc / single for ipc, single in zip(ipcs, single_ipcs))


def s_curve(values: Iterable[float], descending: bool = False) -> List[float]:
    """Sort values to plot an S-curve (Figures 4 and 5)."""
    return sorted(values, reverse=descending)


@dataclass(frozen=True)
class RocPoint:
    """One point of a receiver operating characteristic curve."""

    threshold: float
    false_positive_rate: float
    true_positive_rate: float


def roc_curve(
    confidences: Sequence[float], labels: Sequence[bool], thresholds: Sequence[float]
) -> List[RocPoint]:
    """Compute ROC points for a dead-block predictor.

    ``labels[i]`` is True when access *i*'s block turned out to be dead
    (not reused before eviction).  A block is classified dead when its
    confidence exceeds the threshold.  The false positive rate is the
    fraction of live blocks mispredicted dead; the true positive rate
    is the fraction of dead blocks correctly predicted (Section 6.3).

    Computed by :func:`roc_curve_fast`; the pure-Python
    :func:`_roc_curve_scalar` is its parity oracle, which
    ``tests/test_util_stats.py`` pins with hypothesis.
    """
    if len(confidences) != len(labels):
        raise ValueError("confidences and labels must have equal length")
    return roc_curve_fast(confidences, labels, thresholds)


def _roc_curve_scalar(
    confidences: Sequence[float], labels: Sequence[bool], thresholds: Sequence[float]
) -> List[RocPoint]:
    """Pure-Python ROC: the parity oracle for :func:`roc_curve_fast`."""
    dead_total = sum(1 for label in labels if label)
    live_total = len(labels) - dead_total
    points = []
    for threshold in thresholds:
        tp = fp = 0
        for confidence, label in zip(confidences, labels):
            predicted_dead = confidence > threshold
            if predicted_dead and label:
                tp += 1
            elif predicted_dead and not label:
                fp += 1
        tpr = tp / dead_total if dead_total else 0.0
        fpr = fp / live_total if live_total else 0.0
        points.append(RocPoint(threshold, fpr, tpr))
    return points


def roc_curve_fast(
    confidences: Sequence[float], labels: Sequence[bool], thresholds: Sequence[float]
) -> List[RocPoint]:
    """Vectorized ROC computation for large prediction logs."""
    conf = np.asarray(confidences, dtype=np.float64)
    lab = np.asarray(labels, dtype=bool)
    dead_total = int(lab.sum())
    live_total = int(lab.size - dead_total)
    points = []
    for threshold in thresholds:
        predicted = conf > threshold
        tp = int(np.count_nonzero(predicted & lab))
        fp = int(np.count_nonzero(predicted & ~lab))
        tpr = tp / dead_total if dead_total else 0.0
        fpr = fp / live_total if live_total else 0.0
        points.append(RocPoint(float(threshold), fpr, tpr))
    return points


def auc(points: Sequence[RocPoint]) -> float:
    """Area under an ROC curve by the trapezoid rule.

    Points may arrive in any threshold order; they are sorted by false
    positive rate first.  The curve is extended to (0,0) and (1,1).
    """
    coords: List[Tuple[float, float]] = sorted(
        [(p.false_positive_rate, p.true_positive_rate) for p in points]
    )
    coords = [(0.0, 0.0)] + coords + [(1.0, 1.0)]
    area = 0.0
    for (x0, y0), (x1, y1) in zip(coords, coords[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area
