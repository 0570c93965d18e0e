"""Count a batch's shared inputs against the store.

The planner walks the cells a run is about to execute (result-cache
misses only — hits never reach it) and derives the trace and Stage-1
artifact keys each cell depends on *without building anything*:
segment names and Stage-1 scopes come from the cells' trace specs,
keys from the same helpers the artifact cache hashes with.  Each key
is counted once per cell that uses it (its consumers), and the store
is ``stat``-ed for what is already there: a stored key is a load, any
other a compute.

The counts only describe the batch; nothing is scheduled from them.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Any, Dict, List, Sequence, Tuple

from repro.exec.artifacts import stage1_key, trace_key
from repro.exec.store import ResultStore


def _cell_inputs(cell: Any) -> List[Tuple[Any, List[str]]]:
    """(trace spec, segment names) per workload a cell reads.

    Duck-typed on ``cell.kind`` so the planner never imports the runner
    (which imports the planner): ``single`` and ``mix`` cells name
    their segments, ``search`` and ``search-batch`` cells use every
    segment of their suite.
    """
    if cell.kind == "single":
        return [(cell.trace, cell.trace.segment_names())]
    if cell.kind == "mix":
        by_workload: Dict[str, List[str]] = {}
        for name in cell.segment_names:
            by_workload.setdefault(name.rsplit(".", 1)[0], []).append(name)
        return [(cell.suite.trace_spec(workload), names)
                for workload, names in by_workload.items()]
    specs = [cell.suite.trace_spec(name) for name in cell.suite.workloads()]
    return [(spec, spec.segment_names()) for spec in specs]


def plan_cells(items: Sequence[Tuple[Any, str]],
               store: ResultStore) -> Dict[str, int]:
    """Count the distinct trace and Stage-1 inputs of ``items``.

    ``items`` pairs each cell with its result cache key, as the runner
    holds its tasks; only the cells matter here.  The store is only
    ``stat``-ed, never read.  Returns ``nodes`` (distinct inputs),
    ``loads``/``computes`` (those the store holds/lacks) and
    ``shared`` (inputs used by more than one cell).
    """
    consumers: Counter = Counter()
    for cell, _ in items:
        hierarchy = dataclasses.asdict(cell.hierarchy)
        used = set()
        for spec, names in _cell_inputs(cell):
            used.add(trace_key(spec.payload()))
            scope = spec.stage1_scope()
            used.update(stage1_key(scope, name, hierarchy, cell.prefetch)
                        for name in names)
        consumers.update(used)
    loads = sum(1 for key in consumers if store.stat_bytes(key) is not None)
    return {
        "nodes": len(consumers),
        "loads": loads,
        "computes": len(consumers) - loads,
        "shared": sum(1 for count in consumers.values() if count > 1),
    }
