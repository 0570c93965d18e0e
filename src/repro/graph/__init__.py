"""Batch input counters for the experiment engine.

:func:`plan_cells` dedupes the trace and Stage-1 inputs a batch of
cells shares and counts what the store already holds; the
:class:`~repro.exec.runner.ParallelRunner` reports the counts.
"""

from __future__ import annotations

from repro.graph.planner import plan_cells

__all__ = ["plan_cells"]
