"""Outside-in per-layer tracing for the end-to-end benchmark.

``Tracer.install`` replaces each layer's public entry points with
call-through wrappers that record one span per call: (name, start,
end, parent).  Methods are wrapped on their class; functions are
rebound in every loaded module that imported them under their own
name.  ``uninstall`` puts every original back.  Nothing under ``src/``
knows it is being traced, so the traced run executes the same code as
the untraced one, plus the wrappers.

A layer's self time is the time its spans cover minus the time their
child spans cover; wall time no span covers is ``unattributed_s``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import operator
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Registry names of the policies the workloads replay, by policy class.
_POLICY_NAMES = {
    "LRUPolicy": "lru",
    "HawkeyePolicy": "hawkeye",
    "PerceptronPolicy": "perceptron",
    "BeladyPolicy": "min",
    "MPPPBPolicy": "mpppb",
}


def _stage2_name(args) -> str:
    kind = type(args[0].policy).__name__
    return "stage2." + _POLICY_NAMES.get(kind, kind)


def _count_events(args):
    """Count the load events ``TimingModel.simulate`` consumes without a
    Python-level generator: ``zip`` pulls the event first, then the
    counter, so the counter ends at the number of events consumed."""
    counter = itertools.count()
    events = map(operator.itemgetter(0), zip(args[1], counter))
    return (args[0], events) + tuple(args[2:]), counter


def _add(counters: Dict[str, float], key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _stream_accesses(counters, name, args, result, token) -> None:
    _add(counters, f"{name}.accesses", len(args[1]))


def _kernel(counters, name, args, result, token) -> None:
    candidates = len(args[0].policies)
    _add(counters, f"{name}.candidates", candidates)
    _add(counters, f"{name}.accesses", len(args[1]) * candidates)


def _stage1(counters, name, args, result, token) -> None:
    _add(counters, f"{name}.accesses", len(args[1].pcs))
    _add(counters, f"{name}.llc_accesses", len(result.llc_stream))


def _packed_loads(counters, name, args, result, token) -> None:
    _add(counters, f"{name}.loads", len(args[1]))


def _simulate_loads(counters, name, args, result, token) -> None:
    _add(counters, f"{name}.loads", next(token))


def _lookup(counters, name, args, result, token) -> None:
    _add(counters, f"{name}.lookups", 1)
    if result is not None:
        _add(counters, f"{name}.hits", 1)


def _read(counters, name, args, result, token) -> None:
    _lookup(counters, name, args, result, token)
    if result is not None:
        _add(counters, f"{name}.read_bytes", len(result))


def _write(counters, name, args, result, token) -> None:
    _add(counters, f"{name}.write_bytes", len(args[2]))


def _evaluations(counters, name, args, result, token) -> None:
    _add(counters, f"{name}.evaluations", len(args[1]))


# (layer, module, Class.method or function, before hook, after hook).
# A callable layer names the span from the call's arguments.
ENTRY_POINTS: Tuple[Tuple[Any, str, str, Optional[Callable],
                          Optional[Callable]], ...] = (
    ("traces", "repro.traces.workloads", "build_segments", None, None),
    ("stage1", "repro.sim.hierarchy", "UpperLevels.run", None, _stage1),
    (_stage2_name, "repro.sim.llc", "LLCSimulator.run", None,
     _stream_accesses),
    ("stage2.kernel", "repro.sim.batch", "BatchLLCSimulator.run", None,
     _kernel),
    ("stage3", "repro.cpu.timing", "TimingModel.simulate", _count_events,
     _simulate_loads),
    ("stage3", "repro.cpu.timing", "TimingModel.simulate_packed", None,
     _packed_loads),
    ("stage3", "repro.sim.single", "build_stage3_events", None, None),
    ("stage3", "repro.sim.single", "demand_load_arrays", None, None),
    ("multi", "repro.sim.multi", "MultiProgrammedRunner.thread_data",
     None, None),
    ("multi", "repro.sim.multi", "MultiProgrammedRunner.run_mix", None, None),
    ("artifacts", "repro.exec.artifacts", "ArtifactCache.load_segments",
     None, _lookup),
    ("artifacts", "repro.exec.artifacts", "ArtifactCache.load_upper",
     None, _lookup),
    ("artifacts", "repro.exec.artifacts", "ArtifactCache.store_segments",
     None, None),
    ("artifacts", "repro.exec.artifacts", "ArtifactCache.store_upper",
     None, None),
    ("store", "repro.exec.store", "ResultStore.get", None, _lookup),
    ("store", "repro.exec.store", "ResultStore.get_bytes", None, _read),
    ("store", "repro.exec.store", "ResultStore.put", None, None),
    ("store", "repro.exec.store", "ResultStore.put_bytes", None, _write),
    ("store", "repro.exec.store", "ResultStore.stat_bytes", None, None),
    ("graph", "repro.graph.planner", "plan_cells", None, None),
    ("dispatch", "repro.exec.runner", "ParallelRunner.run", None, None),
    ("dispatch", "repro.exec.runner", "ParallelRunner.run_search_batches",
     None, None),
    ("search", "repro.search.evaluator", "FeatureSetEvaluator.evaluate_many",
     None, _evaluations),
)

#: Every layer the summary reports, in pipeline order.  ``stage2`` is
#: the sum of the per-policy ``stage2.*`` spans and ``stage2.kernel``.
LAYERS = ("traces", "stage1", "stage2", "stage2.lru", "stage2.hawkeye",
          "stage2.perceptron", "stage2.min", "stage2.kernel", "stage3",
          "multi", "artifacts", "store", "graph", "dispatch", "search")


class Tracer:
    """In-memory span recorder over call-through wrappers."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []   # [name, start, end, parent]
        self.counters: Dict[str, float] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, layer: Any,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer(args) if callable(layer) else layer
            token = None
            if before is not None:
                args, token = before(args)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if after is not None:
                after(counters, name, args, result, token)
            return result

        return wrapper

    def install(self) -> None:
        for layer, module_name, target, before, after in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in target:
                class_name, attr = target.split(".")
                owner = getattr(module, class_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, original,
                            self.wrap(original, layer, before, after))
            else:
                original = getattr(module, target)
                wrapper = self.wrap(original, layer, before, after)
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, target, None) is original:
                        self._patch(loaded, target, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any,
               wrapper: Callable) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> bool:
        """Restore every original; True when each one is back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        restored = all(vars(owner)[attr] is original
                       for owner, attr, original in self._patches)
        self._patches = []
        return restored

    def summary(self, wall_s: float) -> Dict[str, Any]:
        """Per-layer calls/self time/share over a traced wall time."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in LAYERS}
        for index, (name, start, end, parent) in enumerate(self.spans):
            own = end - start - child[index]
            for key in {name, name.split(".")[0]}:
                entry = layers.setdefault(key, {"calls": 0, "self_s": 0.0})
                entry["calls"] += 1
                entry["self_s"] += own
        for key, value in self.counters.items():
            layer, counter = key.rsplit(".", 1)
            layers.setdefault(layer, {"calls": 0, "self_s": 0.0})[counter] = value
            if layer.startswith("stage2."):
                stage2 = layers["stage2"]
                stage2[counter] = stage2.get(counter, 0) + value
        attributed = sum(entry["self_s"] for name, entry in layers.items()
                         if "." not in name)
        return {
            "wall_s": wall_s,
            "wrapped_calls": len(self.spans),
            "unattributed_s": wall_s - attributed,
            "layers": derive(layers, wall_s),
        }


#: Layer fields computed from the counted ones by :func:`derive`.
DERIVED = ("share", "ns_per_access", "hit_ratio", "llc_per_access")


def derive(layers: Dict[str, Dict[str, float]],
           wall_s: float) -> Dict[str, Dict[str, float]]:
    """Add each layer's ratios, computed from its counts, in place."""
    for entry in layers.values():
        entry["share"] = entry["self_s"] / wall_s if wall_s > 0 else 0.0
        if entry.get("accesses"):
            entry["ns_per_access"] = entry["self_s"] * 1e9 / entry["accesses"]
        if entry.get("lookups"):
            entry["hit_ratio"] = entry.get("hits", 0) / entry["lookups"]
        if entry.get("llc_accesses"):
            entry["llc_per_access"] = entry["llc_accesses"] / entry["accesses"]
    return layers


def wrapper_cost_s(calls: int = 20_000, trials: int = 5) -> float:
    """Micro-timed cost of one wrapped call over a plain call."""
    def noop():
        return None

    wrapped = Tracer().wrap(noop, "probe")
    costs = []
    for _ in range(trials):
        started = time.perf_counter()
        for _ in range(calls):
            noop()
        plain = time.perf_counter() - started
        started = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - started - plain) / calls)
    return max(0.0, statistics.median(costs))
