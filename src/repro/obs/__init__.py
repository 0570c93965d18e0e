"""``repro.obs`` — zero-dependency observability for the run pipeline.

Three pieces, all stdlib-only:

* :mod:`repro.obs.spans` — nestable wall-clock spans (``trace-gen``,
  ``stage1``, ``interleave`` (a mix's timestamp merge), ``stage2``,
  ``stage3-timing``, per-cell compute).
* :mod:`repro.obs.metrics` — named counters and fixed-bucket
  histograms fed from the simulators' aggregate stats.
* :mod:`repro.obs.events` — the per-run ``events.jsonl`` sink and its
  reader, consumed by ``repro.cli stats``.

This module is the switchboard.  Instrumentation sites call the
module-level helpers (:func:`span`, :func:`inc`, :func:`histogram`)
unconditionally; when telemetry is off — the default — each helper is
a global load plus an ``is None`` test, cheap enough that the perf
harness gates the disabled path below 2% of a Stage-2 replay.

Telemetry is *observational only*: nothing here reads the ``random``
module or mutates simulator state, so the pinned hashes in
``tests/test_determinism.py`` hold with telemetry on or off.

Process model: the parent enables a context for the whole drive;
each cell computation (parent or worker process) runs under its own
:func:`capture` scope, and worker payloads travel back attached to
cell results.  Serial and parallel drives therefore produce the same
per-cell span *sets* — only the timings differ.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional, Sequence

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.spans import NULL_SPAN, Span, SpanCollector

__all__ = [
    "TelemetryContext",
    "capture",
    "disable",
    "enable",
    "enabled",
    "histogram",
    "inc",
    "inc_many",
    "span",
]


class TelemetryContext:
    """One span collector plus one metrics registry."""

    __slots__ = ("collector", "metrics")

    def __init__(self) -> None:
        self.collector = SpanCollector()
        self.metrics = MetricsRegistry()

    def payload(self) -> Dict[str, Any]:
        """Pickle/JSON-safe snapshot for shipping across processes."""
        snapshot = self.metrics.payload()
        snapshot["spans"] = [r.to_dict() for r in self.collector.snapshot()]
        return snapshot


# The active context, or None when telemetry is off.  Module-global on
# purpose: instrumentation sits in per-access hot paths and cannot
# afford to thread a handle through every signature.
_CONTEXT: Optional[TelemetryContext] = None


def enabled() -> bool:
    return _CONTEXT is not None


def enable() -> TelemetryContext:
    """Install (or return) the active context."""
    global _CONTEXT
    if _CONTEXT is None:
        _CONTEXT = TelemetryContext()
    return _CONTEXT


def disable() -> None:
    global _CONTEXT
    _CONTEXT = None


def current() -> Optional[TelemetryContext]:
    return _CONTEXT


def span(name: str):
    """A context manager timing ``name``; free no-op when disabled."""
    ctx = _CONTEXT
    if ctx is None:
        return NULL_SPAN
    return Span(ctx.collector, name)


def inc(name: str, value: int = 1) -> None:
    ctx = _CONTEXT
    if ctx is not None:
        ctx.metrics.inc(name, value)


def inc_many(items: Sequence) -> None:
    """Fold ``(name, delta)`` pairs in one registry call.

    Flush sites that report many counters at once should prefer this
    over per-name :func:`inc`: the whole batch costs one lock
    acquisition (see ``MetricsRegistry.inc_many``), keeping the
    enabled-path overhead inside the perf harness's budget.
    """
    ctx = _CONTEXT
    if ctx is not None:
        ctx.metrics.inc_many(items)


def histogram(name: str, bounds: Sequence[float]) -> Optional[Histogram]:
    """The named histogram, or ``None`` when telemetry is off.

    Hot paths are expected to fetch this once per run and guard the
    per-access ``observe`` behind an ``is not None`` attribute test.
    """
    ctx = _CONTEXT
    if ctx is None:
        return None
    return ctx.metrics.histogram(name, bounds)


@contextmanager
def capture() -> Iterator[Optional[TelemetryContext]]:
    """Record one cell's telemetry in an isolated, fresh context.

    Only meaningful while telemetry is enabled (yields ``None``
    otherwise).  The surrounding context — e.g. the parent's drive
    span — is saved and restored, so per-cell payloads are identical
    whether the cell ran in the parent (serial mode) or in a worker
    process whose module-global starts empty.
    """
    global _CONTEXT
    if _CONTEXT is None:
        yield None
        return
    outer = _CONTEXT
    inner = _CONTEXT = TelemetryContext()
    try:
        yield inner
    finally:
        _CONTEXT = outer

