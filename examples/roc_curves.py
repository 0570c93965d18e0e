#!/usr/bin/env python
"""Measure reuse-predictor accuracy the way Figure 1 / Figure 8 does.

Each predictor runs in *measure-only* mode: the LLC stays under plain
LRU while the predictor's confidence for every access is logged, then
labeled dead or live by the block's actual fate.  Sweeping a threshold
yields the ROC curve; the paper's claim is that the multiperspective
predictor dominates SDBP and Perceptron in the 25-31% false-positive
region that the bypass optimization operates in (Section 6.3).

Run with::

    python examples/roc_curves.py
"""

from repro import (
    TrainedMultiperspective,
    build_segments,
    get_scale,
    measure_roc,
    single_thread_config,
)
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.sdbp import SDBPPredictor
from repro.sim.hierarchy import UpperLevels
from repro.util.stats import auc


def main() -> None:
    scale = get_scale()
    hierarchy = scale.hierarchy
    num_sets = hierarchy.llc_sets

    segment = build_segments(
        "sphinx3", hierarchy.llc_bytes, accesses=scale.segment_accesses
    )[0]
    upper = UpperLevels(hierarchy).run(segment.trace)
    warmup = len(upper.llc_stream) // 4
    print(f"Workload: {segment.name}, LLC stream of "
          f"{len(upper.llc_stream)} accesses\n")

    predictors = {
        "sdbp": SDBPPredictor(num_sets),
        "perceptron": PerceptronPredictor(num_sets),
        "multiperspective": TrainedMultiperspective(
            single_thread_config("a"), llc_sets=num_sets
        ),
    }

    print(f"{'predictor':18s} {'AUC':>6s}   TPR at FPR = 10% / 25% / 31% / 50%")
    for name, predictor in predictors.items():
        result = measure_roc(
            predictor, upper.llc_stream, segment.trace.pcs, hierarchy,
            warmup=warmup,
        )
        points = result.curve(result.default_thresholds(65))
        area = auc(points)
        ordered = sorted(points, key=lambda p: p.false_positive_rate)

        def tpr_at(fpr_target: float) -> float:
            feasible = [p for p in ordered if p.false_positive_rate <= fpr_target]
            return max((p.true_positive_rate for p in feasible), default=0.0)

        row = " / ".join(f"{tpr_at(f):.3f}" for f in (0.10, 0.25, 0.31, 0.50))
        print(f"{name:18s} {area:6.3f}   {row}")


if __name__ == "__main__":
    main()
