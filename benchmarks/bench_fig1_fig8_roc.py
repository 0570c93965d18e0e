"""Figure 1 / Figure 8: ROC curves for SDBP, Perceptron, and
Multiperspective reuse predictors (Section 6.3).

The paper's claim: in the 25-31% false-positive region where the
bypass optimization operates, the multiperspective predictor provides
a lower false positive rate and higher true positive rate than SDBP
and Perceptron.  We reproduce the measure-only methodology (LRU cache,
predictions logged but not applied), average the curves over a
benchmark sample, and print TPR at fixed FPR operating points plus
AUC.  Hawkeye is excluded exactly as the paper excludes it.
"""

from __future__ import annotations

import numpy as np

from _shared import SCALE, header, single_thread_runner, single_thread_suite
from repro import TrainedMultiperspective, measure_roc, single_thread_config
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.sdbp import SDBPPredictor
from repro.util.stats import auc, roc_curve_fast

ROC_BENCHMARKS = ("sphinx3", "soplex", "mcf", "dealII", "lbm")
OPERATING_FPRS = (0.10, 0.25, 0.28, 0.31, 0.50)


def _predictor(name: str, num_sets: int):
    if name == "sdbp":
        return SDBPPredictor(num_sets)
    if name == "perceptron":
        return PerceptronPredictor(num_sets)
    return TrainedMultiperspective(single_thread_config("a"),
                                   llc_sets=num_sets)


def run_roc_experiment():
    hierarchy = SCALE.hierarchy
    num_sets = hierarchy.llc_sets
    suite = single_thread_suite()
    runner = single_thread_runner()

    curves = {}
    for predictor_name in ("sdbp", "perceptron", "multiperspective"):
        all_conf, all_labels = [], []
        for bench in ROC_BENCHMARKS:
            # One (heaviest-weight) segment per benchmark keeps the
            # pooled measurement tractable; curves are pooled raw.
            for segment in suite[bench][:1]:
                upper = runner.upper_result(segment)
                predictor = _predictor(predictor_name, num_sets)
                result = measure_roc(
                    predictor, upper.llc_stream, segment.trace.pcs,
                    hierarchy, warmup=len(upper.llc_stream) // 4,
                )
                # Normalize confidences per predictor scale before pooling.
                rng = max(1.0, predictor.confidence_range)
                all_conf.extend(c / rng for c in result.confidences)
                all_labels.extend(result.labels)
        thresholds = np.linspace(-1.05, 1.05, 85)
        curves[predictor_name] = roc_curve_fast(all_conf, all_labels,
                                                list(thresholds))
    return curves


def print_roc(curves) -> None:
    header(
        "Figure 1 / Figure 8 - ROC curves for three reuse predictors",
        f"Averaged over {len(ROC_BENCHMARKS)} benchmarks; "
        "paper: multiperspective dominates in the 25-31% FPR region.",
    )
    print(f"{'predictor':18s} {'AUC':>6s}  "
          + "  ".join(f"TPR@{int(100 * f)}%" for f in OPERATING_FPRS))
    for name, points in curves.items():
        ordered = sorted(points, key=lambda p: p.false_positive_rate)

        def tpr_at(target: float) -> float:
            feasible = [p.true_positive_rate for p in ordered
                        if p.false_positive_rate <= target]
            return max(feasible, default=0.0)

        row = "  ".join(f"{tpr_at(f):7.3f}" for f in OPERATING_FPRS)
        print(f"{name:18s} {auc(points):6.3f}  {row}")


def test_fig1_fig8_roc(benchmark, capsys):
    curves = benchmark.pedantic(run_roc_experiment, rounds=1, iterations=1)
    with capsys.disabled():
        print_roc(curves)

    def tpr_at(points, target):
        return max((p.true_positive_rate for p in points
                    if p.false_positive_rate <= target), default=0.0)

    # The reproduction target: multiperspective wins the bypass region.
    for fpr in (0.25, 0.28, 0.31):
        multi = tpr_at(curves["multiperspective"], fpr)
        assert multi >= tpr_at(curves["sdbp"], fpr) - 0.02
        assert multi >= tpr_at(curves["perceptron"], fpr) - 0.02
