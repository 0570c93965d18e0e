"""repro — a from-scratch reproduction of *Multiperspective Reuse
Prediction* (Jimenez & Teran, MICRO 2017).

The package provides:

* ``repro.core`` — the multiperspective reuse predictor and the MPPPB
  placement/promotion/bypass policy (the paper's contribution),
  including the published Table 1/2 feature sets.
* ``repro.cache`` — set-associative cache structures and replacement
  policies (LRU, tree-PLRU, SRRIP/BRRIP/DRRIP, static MDPP, Belady's
  MIN with optimal bypass).
* ``repro.predictors`` — the SDBP, Perceptron, and Hawkeye baselines.
* ``repro.cpu`` / ``repro.sim`` — stream prefetcher, analytic
  out-of-order timing, the three-stage trace-driven simulator, and the
  single-thread / multi-programmed runners.
* ``repro.traces`` — synthetic SPEC-like workloads and FIESTA-style
  multi-programmed mixes.
* ``repro.search`` — the random-search + hill-climbing feature
  exploration of Section 5.
* ``repro.exec`` — the parallel experiment engine: cache-aware fan-out
  of experiment cells across worker processes with a content-addressed
  on-disk result cache (``REPRO_JOBS`` / ``REPRO_CACHE_DIR``).

See ``examples/quickstart.py`` for a complete runnable example.
"""

from repro.config import PAPER, SMALL, TINY, ReproScale, get_scale
from repro.core import (
    MPPPBConfig,
    MPPPBPolicy,
    MultiperspectivePredictor,
    multi_core_tuned_config,
    multi_programmed_config,
    parse_feature,
    parse_feature_set,
    single_thread_config,
    table_1a_features,
    table_1b_features,
    table_2_features,
)
from repro.exec import (
    MixCell,
    ParallelRunner,
    ResultStore,
    SearchCell,
    SingleCell,
    SuiteSpec,
    TraceSpec,
)
from repro.policies import make_policy, policy_factory, policy_names
from repro.sim import (
    HierarchyConfig,
    MixResult,
    MultiProgrammedRunner,
    SingleThreadRunner,
    TrainedMultiperspective,
    cross_validated_configs,
    measure_roc,
    normalized_weighted_speedups,
    speedups_over_lru,
)
from repro.traces import (
    Segment,
    Trace,
    all_segments,
    benchmark_names,
    build_segments,
    build_suite,
    generate_mixes,
    split_train_test,
)
from repro.util import geometric_mean, mpki, weighted_speedup

__version__ = "1.0.0"

__all__ = [
    "PAPER",
    "SMALL",
    "TINY",
    "ReproScale",
    "get_scale",
    "MPPPBConfig",
    "MPPPBPolicy",
    "MultiperspectivePredictor",
    "multi_core_tuned_config",
    "multi_programmed_config",
    "parse_feature",
    "parse_feature_set",
    "single_thread_config",
    "table_1a_features",
    "table_1b_features",
    "table_2_features",
    "MixCell",
    "ParallelRunner",
    "ResultStore",
    "SearchCell",
    "SingleCell",
    "SuiteSpec",
    "TraceSpec",
    "make_policy",
    "policy_factory",
    "policy_names",
    "HierarchyConfig",
    "MixResult",
    "MultiProgrammedRunner",
    "SingleThreadRunner",
    "TrainedMultiperspective",
    "cross_validated_configs",
    "measure_roc",
    "normalized_weighted_speedups",
    "speedups_over_lru",
    "Segment",
    "Trace",
    "all_segments",
    "benchmark_names",
    "build_segments",
    "build_suite",
    "generate_mixes",
    "split_train_test",
    "geometric_mean",
    "mpki",
    "weighted_speedup",
    "__version__",
]
