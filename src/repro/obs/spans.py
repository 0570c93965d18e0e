"""Nestable wall-clock spans (the tracing half of ``repro.obs``).

A span is one timed region of the pipeline — ``trace-gen``, ``stage1``,
``interleave``, ``stage2``, ``stage3-timing``, a ``cell`` compute, a
``drive`` — named
at the call site and nested by a per-thread stack, so a collector ends
up with slash-joined paths (``cell/stage1``) that reconstruct the call
tree without the collector ever walking frames.

Spans are pure observation: they read ``time.perf_counter`` and append
one record on exit.  They never touch the ``random`` module or any
simulator state, which is what lets the determinism pins run unchanged
with telemetry enabled (see ``tests/test_determinism.py``).

The disabled fast path matters more than the enabled one: every
instrumentation site calls :func:`repro.obs.span`, which returns the
shared :data:`NULL_SPAN` singleton when no collector is installed —
one global load, one ``is None`` test, and a no-op context manager.
``repro.perf.bench_telemetry`` estimates that cost, and
``repro.cli perf`` fails when it exceeds 2% of a Stage-2 replay.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: its name, nesting path, and timing."""

    name: str
    path: str       # slash-joined ancestry, e.g. "cell/stage2"
    start_s: float  # offset from the owning collector's epoch
    dur_s: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "path": self.path,
            "start_s": self.start_s,
            "dur_s": self.dur_s,
        }


class SpanCollector:
    """Thread-safe sink for finished spans with per-thread nesting.

    Each thread keeps its own ancestry stack (spans opened on one
    thread never become parents of spans on another); the finished
    records land in one shared list, appended under a lock so the
    collector survives threaded callers.  Process boundaries are
    handled above this layer: worker processes run their own collector
    and ship ``payload()`` back with the cell result.
    """

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        self.records: List[SpanRecord] = []
        self._drained = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, record: SpanRecord) -> None:
        # Lock-free on purpose: ``list.append`` is atomic under the
        # GIL, and this runs on every span exit (the enabled hot
        # path).  Readers still lock — they slice and swap cursors,
        # which appends never invalidate.
        self.records.append(record)

    def snapshot(self) -> List[SpanRecord]:
        with self._lock:
            return list(self.records)

    def drain_new(self) -> List[SpanRecord]:
        """Records added since the last drain (for incremental sinks).

        The cursor lives on the collector — not on any consumer — so
        multiple event writers against one ambient context each record
        is emitted exactly once overall.
        """
        with self._lock:
            fresh = self.records[self._drained:]
            self._drained = len(self.records)
            return fresh


class Span:
    """Context manager timing one region inside a collector."""

    __slots__ = ("_collector", "name", "path", "_t0")

    def __init__(self, collector: SpanCollector, name: str) -> None:
        self._collector = collector
        self.name = name
        self.path = name
        self._t0 = 0.0

    def __enter__(self) -> "Span":
        stack = self._collector._stack()
        if stack:
            self.path = f"{stack[-1]}/{self.name}"
        stack.append(self.path)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        ended = time.perf_counter()
        collector = self._collector
        collector._stack().pop()
        collector.add(SpanRecord(
            name=self.name,
            path=self.path,
            start_s=self._t0 - collector.epoch,
            dur_s=ended - self._t0,
        ))


class NullSpan:
    """Shared no-op context manager: the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc: Any) -> None:
        return None


NULL_SPAN = NullSpan()
