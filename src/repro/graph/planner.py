"""Dedupe a batch's shared inputs and pick the prelude.

The planner walks the cells a run is about to execute (result-cache
misses only — hits never reach it) and derives the trace and Stage-1
artifact keys each cell depends on *without building anything*:
segment names come from the benchmark registry, keys from the same
helpers the artifact cache hashes with.  Each key is counted once per
cell that uses it (its consumers), and the store is ``stat``-ed for
what is already there: a stored key is a load, any other a compute.

The plan's one decision is the **prelude**: every shared input (two
or more consumers) the store does not hold yet is materialized once,
up front, by a dedicated materialize task, so the dependent cells
load it instead of each recomputing it.

Planning changes only *where bytes come from*, never their values,
and any planner failure degrades to the unplanned path.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exec.artifacts import scope_payload, stage1_key, trace_key
from repro.exec.cachekey import stable_hash
from repro.exec.store import ResultStore
from repro.traces.workloads import benchmark_names, segment_names


@dataclass(frozen=True)
class PreludeGroup:
    """Shared artifacts to materialize once before the cell wave.

    ``trace`` is the runner's ``TraceSpec`` (passed through opaquely);
    ``segments`` the qualified segment names whose Stage-1 results the
    group computes (empty when only the trace is shared).
    """

    trace: Any
    segments: Tuple[str, ...]
    hierarchy: Any
    prefetch: bool


@dataclass
class GraphPlan:
    """A planned batch: its prelude groups and plan counters."""

    prelude: Tuple[PreludeGroup, ...]
    counts: Dict[str, int]


def _cell_inputs(cell: Any) -> Optional[List[Tuple[Any, Any, bool, List[str]]]]:
    """(trace_spec, hierarchy, prefetch, segment names) per benchmark.

    Duck-typed on ``cell.kind`` so the planner never imports the runner
    (which imports the planner).  Unknown kinds return ``None`` and are
    executed unplanned.
    """
    kind = getattr(cell, "kind", None)
    if kind == "single":
        spec = cell.trace
        return [(spec, cell.hierarchy, cell.prefetch, _spec_segments(spec))]
    if kind == "mix":
        by_benchmark: Dict[str, List[str]] = {}
        for name in cell.segment_names:
            benchmark = name.rsplit(".", 1)[0]
            by_benchmark.setdefault(benchmark, []).append(name)
        return [
            (cell.suite.trace_spec(benchmark), cell.hierarchy, cell.prefetch,
             names)
            for benchmark, names in sorted(by_benchmark.items())
        ]
    if kind in ("search", "search-batch"):
        suite = cell.suite
        workloads = getattr(suite, "workloads", None)
        names = (workloads() if workloads is not None
                 else sorted(suite.names or benchmark_names()))
        return [
            (suite.trace_spec(benchmark), cell.hierarchy, cell.prefetch,
             _spec_segments(suite.trace_spec(benchmark)))
            for benchmark in sorted(names)
        ]
    return None


def _spec_segments(spec: Any) -> List[str]:
    """Static segment names for a trace spec, registry or ingested."""
    names = getattr(spec, "segment_names", None)
    if names is not None:
        return names()
    return segment_names(spec.benchmark)


def _spec_scope(spec: Any) -> Dict[str, Any]:
    """Stage-1 scope for a trace spec, hashed exactly as the runner's."""
    scope = getattr(spec, "stage1_scope", None)
    if scope is not None:
        return scope()
    return scope_payload(spec.llc_bytes, spec.accesses, spec.seed)


def plan_cells(items: Sequence[Tuple[Any, str]],
               store: ResultStore) -> GraphPlan:
    """Dedupe the trace and Stage-1 inputs of ``items``; pick the prelude.

    ``items`` pairs each cell with its result cache key, as the runner
    holds its tasks; only the cells matter here.  The store is only
    ``stat``-ed, never read.
    """
    consumers: Dict[str, int] = {}
    # (trace key, hierarchy hash, prefetch) -> (spec, hierarchy,
    # {stage1 key: segment name}).
    groups: Dict[Tuple[str, str, bool],
                 Tuple[Any, Any, Dict[str, str]]] = {}
    for cell, _ in items:
        inputs = _cell_inputs(cell)
        if inputs is None:
            continue
        used: Dict[str, None] = {}
        for spec, hierarchy, prefetch, seg_names in inputs:
            tkey = trace_key(spec.payload())
            scope = _spec_scope(spec)
            hpayload = dataclasses.asdict(hierarchy)
            _, _, stage1 = groups.setdefault(
                (tkey, stable_hash(hpayload), prefetch),
                (spec, hierarchy, {}))
            used[tkey] = None
            for name in seg_names:
                skey = stage1_key(scope, name, hpayload, prefetch)
                stage1[skey] = name
                used[skey] = None
        for key in used:
            consumers[key] = consumers.get(key, 0) + 1

    stored = {key for key in consumers if store.stat_bytes(key) is not None}

    def prelude_worthy(key: str) -> bool:
        return consumers[key] > 1 and key not in stored

    prelude: List[PreludeGroup] = []
    for (tkey, _, prefetch), (spec, hierarchy, stage1) in sorted(
            groups.items(), key=lambda item: item[0]):
        names = sorted(name for key, name in stage1.items()
                       if prelude_worthy(key))
        if names or prelude_worthy(tkey):
            prelude.append(PreludeGroup(trace=spec, segments=tuple(names),
                                        hierarchy=hierarchy,
                                        prefetch=prefetch))

    return GraphPlan(prelude=tuple(prelude), counts={
        "nodes": len(consumers),
        "loads": len(stored),
        "computes": len(consumers) - len(stored),
        "shared": sum(1 for count in consumers.values() if count > 1),
    })
