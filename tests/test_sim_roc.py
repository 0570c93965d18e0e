"""Tests for the measure-only ROC harness (Section 6.3)."""

from unittest import mock

import pytest

from repro.config import TINY
from repro.core.presets import single_thread_config
from repro.predictors.perceptron import PerceptronPredictor
from repro.predictors.sdbp import SDBPPredictor
from repro.sim.hierarchy import UpperLevels
from repro.sim.llc import LLCAccess
from repro.sim.roc import RocResult, TrainedMultiperspective, measure_roc
from repro.traces.workloads import build_segments
from repro.util.stats import auc

SETS, WAYS = 16, 4
CAPACITY = SETS * WAYS * 64


def stream(blocks, pcs):
    return [
        LLCAccess(pc=pcs[i], block=b, offset=0, is_write=False,
                  is_prefetch=False, mem_index=i, instr_index=4 * i)
        for i, b in enumerate(blocks)
    ]


def hot_cold_workload(rounds=300):
    """Hot loop (always reused) + cold stream (never reused).

    Three hot blocks plus one cold block per round share a 4-way set,
    so the hot blocks survive (live labels) while every cold block is
    evicted without reuse (dead labels).
    """
    blocks, pcs = [], []
    cold = 10_000
    for _ in range(rounds):
        for k in range(3):
            blocks.append(k * SETS)       # hot: 3 blocks, set 0
            pcs.append(0x500 + 4 * k)
        blocks.append(cold * SETS)        # cold: one-shot, set 0
        pcs.append(0x900)
        cold += 1
    return stream(blocks, pcs), pcs


class TestMeasureRoc:
    def _roc(self, predictor):
        llc_stream, pcs = hot_cold_workload()
        return measure_roc(predictor, llc_stream, pcs, CAPACITY, WAYS,
                           warmup=len(llc_stream) // 3)

    def test_lengths_match(self):
        result = self._roc(SDBPPredictor(SETS, sampler_sets=8, sampler_ways=4))
        assert len(result.confidences) == len(result.labels)
        assert len(result.confidences) > 0

    def test_labels_contain_both_classes(self):
        result = self._roc(SDBPPredictor(SETS, sampler_sets=8, sampler_ways=4))
        assert any(result.labels) and not all(result.labels)

    @pytest.mark.parametrize("make", [
        lambda: SDBPPredictor(SETS, sampler_sets=8, sampler_ways=4),
        lambda: PerceptronPredictor(SETS, sampler_sets=8, sampler_ways=4,
                                    theta=20),
        lambda: TrainedMultiperspective(
            single_thread_config("a", sampler_sets=8), llc_sets=SETS),
    ])
    def test_predictors_beat_coin_flip(self, make):
        """On a separable workload every predictor's AUC must beat 0.5."""
        result = self._roc(make())
        points = result.curve(result.default_thresholds(33))
        assert auc(points) > 0.6, f"{result.predictor_name} AUC too low"

    def test_multiperspective_auc_strong(self):
        result = self._roc(TrainedMultiperspective(
            single_thread_config("a", sampler_sets=8), llc_sets=SETS))
        points = result.curve(result.default_thresholds(33))
        assert auc(points) > 0.8

    def test_curve_rates_monotone(self):
        result = self._roc(SDBPPredictor(SETS, sampler_sets=8, sampler_ways=4))
        points = result.curve(result.default_thresholds(21))
        fprs = [p.false_positive_rate for p in points]
        tprs = [p.true_positive_rate for p in points]
        assert fprs == sorted(fprs, reverse=True)
        assert tprs == sorted(tprs, reverse=True)

    def test_default_thresholds_span_confidences(self):
        result = self._roc(SDBPPredictor(SETS, sampler_sets=8, sampler_ways=4))
        thresholds = result.default_thresholds(11)
        assert thresholds[0] < min(result.confidences)
        assert thresholds[-1] > max(result.confidences)

    def test_empty_result_thresholds(self):
        result = RocResult("x", (), ())
        assert result.default_thresholds() == [0.0]

    def test_kernel_columns_match_closures(self):
        """A TrainedMultiperspective's indices come from the stream's
        kernel columns; its feature closures give the same result."""
        segment = build_segments("soplex", TINY.hierarchy.llc_bytes, 2_000)[0]
        stream = UpperLevels(TINY.hierarchy).run(segment.trace).llc_stream
        ways = TINY.hierarchy.llc_ways
        num_sets = TINY.hierarchy.llc_bytes // (ways * 64)

        def roc():
            predictor = TrainedMultiperspective(single_thread_config("a"),
                                                llc_sets=num_sets)
            return measure_roc(predictor, stream, segment.trace.pcs,
                               TINY.hierarchy.llc_bytes, ways,
                               warmup=len(stream) // 4)

        columns = roc()
        with mock.patch.object(TrainedMultiperspective, "on_stream",
                               lambda self, *_: self.on_llc_access):
            closures = roc()
        assert columns == closures
        assert any(columns.labels) and not all(columns.labels)
