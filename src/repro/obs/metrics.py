"""Counters and fixed-bucket histograms (the metrics half of ``repro.obs``).

Two metric kinds cover everything the pipeline wants to report:

* **Counters** — monotonically increasing integers (LLC hits, misses,
  evictions, bypasses, sampler trainings, cache-layer hit counts).
  The hot paths never increment these per access; the simulators flush
  the aggregate ``LLCStats`` they already keep once per replay, so a
  counter costs one dict update per *replay*, not per access.
* **Histograms** — fixed, caller-declared bucket bounds (no dynamic
  rebucketing, so histograms from different worker processes merge by
  summing counts).  Used for per-predictor confidence distributions;
  the per-access ``observe`` is a bisect over ~a dozen bounds and only
  runs when telemetry is enabled — the disabled path is an attribute
  ``is None`` test at the call site.  ``observe_many`` folds a replay's
  collected values in one vectorized pass.

A :class:`MetricsRegistry` is always owned by one telemetry context
(see ``repro.obs``): worker processes run their own registry and ship
``payload()`` back with the cell result; the parent merges payloads
with :func:`merge_counters` / :func:`merge_hist` when aggregating.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np


class Histogram:
    """Fixed-bucket histogram: ``len(bounds) + 1`` counts.

    ``counts[i]`` holds values ``<= bounds[i]`` (first bucket) or in
    ``(bounds[i-1], bounds[i]]``; the final bucket is the overflow
    ``> bounds[-1]``.  Bounds are frozen at registration so payloads
    from different processes are always mergeable.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(self, bounds: Sequence[float]) -> None:
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        ordered = list(bounds)
        if ordered != sorted(ordered):
            raise ValueError("histogram bounds must be sorted ascending")
        self.bounds: List[float] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe_many(self, values: Sequence[int]) -> None:
        """Equal to ``observe`` on each of ``values`` in turn.

        ``searchsorted(side="left")`` is ``bisect_left`` over the whole
        array; integer values keep ``total`` exact.
        """
        if not len(values):
            return
        array = np.asarray(values)
        buckets = np.bincount(
            np.searchsorted(self.bounds, array, side="left"),
            minlength=len(self.counts))
        for index, count in enumerate(buckets.tolist()):
            self.counts[index] += count
        self.count += len(array)
        self.total += array.sum().item()
        low, high = array.min().item(), array.max().item()
        if self.min is None or low < self.min:
            self.min = low
        if self.max is None or high > self.max:
            self.max = high

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }

    @staticmethod
    def from_dict(payload: Dict[str, Any]) -> "Histogram":
        hist = Histogram(payload["bounds"])
        hist.counts = [int(c) for c in payload["counts"]]
        hist.count = int(payload["count"])
        hist.total = float(payload["sum"])
        hist.min = payload.get("min")
        hist.max = payload.get("max")
        return hist

    def merge(self, payload: Dict[str, Any]) -> None:
        """Fold another histogram's dict payload into this one.

        Payloads with different bounds are ignored rather than raised
        on: telemetry must never take an experiment down.
        """
        if list(payload.get("bounds", ())) != self.bounds:
            return
        for index, count in enumerate(payload["counts"]):
            self.counts[index] += int(count)
        self.count += int(payload["count"])
        self.total += float(payload["sum"])
        for name, pick in (("min", min), ("max", max)):
            theirs = payload.get(name)
            if theirs is None:
                continue
            ours = getattr(self, name)
            setattr(self, name, theirs if ours is None else pick(ours, theirs))


class MetricsRegistry:
    """Named counters + histograms for one telemetry context."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.hists: Dict[str, Histogram] = {}
        self._lock = threading.Lock()

    def inc(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def inc_many(self, items: Sequence[Tuple[str, int]]) -> None:
        """Fold a batch of ``(name, delta)`` pairs under one lock.

        Flush sites that report a dozen aggregate counters per replay
        (``flush_llc_metrics``) pay one acquisition per *flush* instead
        of one per counter — the bulk of the enabled-path overhead that
        :func:`repro.perf.check_report` gates as
        ``telemetry.enabled_overhead``.
        """
        counters = self.counters
        with self._lock:
            for name, value in items:
                counters[name] = counters.get(name, 0) + value

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        """Get-or-create; the first registration's bounds win."""
        hist = self.hists.get(name)
        if hist is None:
            with self._lock:
                hist = self.hists.get(name)
                if hist is None:
                    hist = self.hists[name] = Histogram(bounds)
        return hist

    def payload(self) -> Dict[str, Any]:
        """JSON/pickle-safe snapshot for cross-process shipping."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "hists": {name: hist.to_dict()
                          for name, hist in self.hists.items()},
            }


def merge_counters(totals: Dict[str, int], counters: Dict[str, int]) -> None:
    for name, value in counters.items():
        totals[name] = totals.get(name, 0) + int(value)


def merge_hists(totals: Dict[str, Histogram],
                hists: Dict[str, Dict[str, Any]]) -> None:
    for name, payload in hists.items():
        existing = totals.get(name)
        if existing is None:
            totals[name] = Histogram.from_dict(payload)
        else:
            existing.merge(payload)
