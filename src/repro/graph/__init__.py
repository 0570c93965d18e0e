"""Batch dedupe and prelude for the experiment engine.

:func:`plan_cells` dedupes the trace and Stage-1 inputs a batch of
cells shares, counts what the store already holds, and picks the
prelude: shared inputs not stored yet, which the
:class:`~repro.exec.runner.ParallelRunner` materializes once before
the cells that need them run.  Results are bit-identical with or
without the prelude; it only changes where bytes come from.
"""

from __future__ import annotations

from repro.graph.planner import GraphPlan, PreludeGroup, plan_cells

__all__ = ["GraphPlan", "PreludeGroup", "plan_cells"]
