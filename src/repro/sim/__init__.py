"""Simulation drivers: hierarchy stage, LLC stage, timing, runners, ROC."""

from repro.sim.hierarchy import (
    SERVICE_L1,
    SERVICE_L2,
    HierarchyConfig,
    UpperLevelResult,
    UpperLevels,
)
from repro.sim.llc import (
    LLCAccess,
    LLCColumns,
    LLCResult,
    LLCSimulator,
    LLCStats,
)
from repro.sim.multi import (
    MixResult,
    MultiProgrammedRunner,
    ThreadData,
    normalized_weighted_speedups,
)
from repro.sim.roc import RocResult, TrainedMultiperspective, measure_roc
from repro.sim.single import (
    BenchmarkResult,
    SegmentResult,
    SingleThreadRunner,
    cross_validated_configs,
    demand_load_events,
    speedups_over_lru,
)

__all__ = [
    "SERVICE_L1",
    "SERVICE_L2",
    "HierarchyConfig",
    "UpperLevelResult",
    "UpperLevels",
    "LLCAccess",
    "LLCColumns",
    "LLCResult",
    "LLCSimulator",
    "LLCStats",
    "MixResult",
    "MultiProgrammedRunner",
    "ThreadData",
    "normalized_weighted_speedups",
    "RocResult",
    "TrainedMultiperspective",
    "measure_roc",
    "BenchmarkResult",
    "SegmentResult",
    "SingleThreadRunner",
    "cross_validated_configs",
    "demand_load_events",
    "speedups_over_lru",
]
