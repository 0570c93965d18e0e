"""Accuracy-ordering tests on a realistic workload (mini Figure 8).

The paper's central accuracy claim is that the multiperspective
predictor beats SDBP and Perceptron in the operating region of the
bypass optimization.  The bench harness verifies this over the full
suite; here a single mixed workload checks the ordering holds at unit
test scale, keeping the claim protected by the fast suite too.
"""

import pytest

from repro.core.presets import single_thread_config
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.sdbp import SDBPPredictor
from repro.sim.hierarchy import HierarchyConfig, UpperLevels
from repro.sim.roc import TrainedMultiperspective, measure_roc
from repro.traces.workloads import build_segments
from repro.util.stats import auc

SMALL = HierarchyConfig(l1_kib=4, l1_ways=4, l2_kib=16, l2_ways=8,
                        llc_kib=128, llc_ways=16)


@pytest.fixture(scope="module")
def llc_inputs():
    segment = build_segments("sphinx3", SMALL.llc_bytes, accesses=25_000)[0]
    upper = UpperLevels(SMALL).run(segment.trace)
    return upper.llc_stream, segment.trace.pcs


def roc_auc(predictor, llc_inputs):
    stream, pcs = llc_inputs
    result = measure_roc(predictor, stream, pcs, SMALL,
                         warmup=len(stream) // 4)
    return auc(result.curve(result.default_thresholds(49)))


@pytest.fixture(scope="module")
def aucs(llc_inputs):
    num_sets = SMALL.llc_sets
    return {
        "sdbp": roc_auc(SDBPPredictor(num_sets, sampler_sets=32), llc_inputs),
        "perceptron": roc_auc(
            PerceptronPredictor(num_sets, sampler_sets=32), llc_inputs),
        "multiperspective": roc_auc(
            TrainedMultiperspective(
                single_thread_config("a", sampler_sets=32),
                llc_sets=num_sets),
            llc_inputs),
    }


class TestAccuracyOrdering:
    def test_all_predictors_beat_chance(self, aucs):
        for name, value in aucs.items():
            assert value > 0.55, f"{name} AUC {value:.3f}"

    def test_multiperspective_at_least_competitive(self, aucs):
        # The paper's Figure 8: multiperspective matches or beats the
        # single-perspective baselines (small slack for one workload).
        assert aucs["multiperspective"] >= aucs["sdbp"] - 0.05
        assert aucs["multiperspective"] >= aucs["perceptron"] - 0.05

    def test_multiperspective_strong_in_absolute_terms(self, aucs):
        assert aucs["multiperspective"] > 0.7
