"""Experiment execution engine: parallel fan-out + on-disk result cache.

See DESIGN.md section 8 ("Experiment execution engine") for the cache
key schema and determinism guarantees.
"""

from repro.config import DEFAULT_CACHE_DIR, ConfigError
from repro.exec.cachekey import (
    SCHEMA_VERSION,
    canonical_json,
    stable_hash,
    task_seed,
)
from repro.exec.backends import (
    BackendUnavailable,
    Frame,
    WorkerFleetBackend,
)
from repro.exec.faults import (
    CellExecutionError,
    CellFailure,
    RemoteCellError,
    parse_fault_spec,
)
from repro.exec.manifest import RunManifest, list_runs
from repro.exec.progress import CellOutcome, ExecReport
from repro.exec.runner import (
    MixCell,
    ParallelRunner,
    SearchBatchCell,
    SearchCell,
    SingleCell,
    SuiteSpec,
    TraceSpec,
)
from repro.exec.store import CacheStats, ResultStore

__all__ = [
    "SCHEMA_VERSION",
    "canonical_json",
    "stable_hash",
    "task_seed",
    "BackendUnavailable",
    "Frame",
    "WorkerFleetBackend",
    "CellExecutionError",
    "CellFailure",
    "ConfigError",
    "RemoteCellError",
    "parse_fault_spec",
    "RunManifest",
    "list_runs",
    "CellOutcome",
    "ExecReport",
    "MixCell",
    "ParallelRunner",
    "SearchBatchCell",
    "SearchCell",
    "SingleCell",
    "SuiteSpec",
    "TraceSpec",
    "DEFAULT_CACHE_DIR",
    "CacheStats",
    "ResultStore",
]
