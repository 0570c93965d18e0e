"""The one entry to the columnar Stage-2 kernel.

Figs. 3, 4, 6 and 7 compare policies by replaying one policy-invariant
LLC stream once per policy.  :class:`BatchLLCSimulator` replays it for
K >= 1 policies of one exact type in :data:`KERNELS` (MPPPB, LRU,
Perceptron or Hawkeye); a subclass may override any hook, so it has no
row and replays on :class:`~repro.sim.llc.LLCSimulator`.  The policies
share their LLC geometry and what their kind's lowering reads, so per
window of :data:`repro.sim.llc.WINDOW` accesses the stream-only inputs
are lowered once (:mod:`repro.sim.kernel.columns`) and each policy's
kernel replays them against its own cache and tables, carried from
window to window (:mod:`repro.sim.kernel.numpy_backend` for MPPPB,
:mod:`repro.sim.kernel.baselines` for the rest).

MPPPB candidates differ in their feature sets, so their lowering is a
shared slot layout: :func:`_descriptor` splits every candidate feature
into a *static* part (a pure function of the access) and at most one
*dynamic* bit (``insert`` / ``burst`` / ``lastmiss``, a function of
the candidate's cache state), and :func:`_build_programs` deduplicates
the static parts across the union of all candidates' features into
the slots :func:`repro.sim.kernel.columns.lower_stream` lowers.

Results are bit-identical to K sequential
:class:`~repro.sim.llc.LLCSimulator` replays, which
:func:`repro.sim.single.replay_segment` runs instead under
``REPRO_STAGE2_KERNEL=off``; ``tests/test_sim_batch.py``,
``tests/test_kernel.py`` and the determinism suite pin the two
together.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro import obs
from repro.cache.cache import SetAssociativeCache
from repro.cache.replacement.lru import LRUPolicy
from repro.core.features import BLOCK_OFFSET_BITS, _normalize_range, Feature
from repro.core.mpppb import MPPPBPolicy
from repro.predictors.hawkeye import HawkeyePolicy
from repro.predictors.perceptron import PerceptronPolicy
from repro.sim.kernel import baselines, columns, numpy_backend
from repro.sim.llc import LLCAccess, LLCResult, flush_llc_metrics

# -- shared slot layout ----------------------------------------------------
#
# A feature's table index decomposes into a *static* part (a pure
# function of the access) and at most one *dynamic* bit (a function of
# the candidate's cache state).  Descriptors name the static part so
# identical extractions collapse to one shared slot across the union
# of a batch's features.

_DYNAMIC_FAMILIES = ("burst", "insert", "lastmiss")


def _descriptor(feature: Feature) -> Tuple:
    """Classify one feature for the shared/per-candidate split."""
    family = feature.family
    if family in _DYNAMIC_FAMILIES:
        return ("dyn", family, feature.xor_pc)
    if family == "bias":
        return ("hx",) if feature.xor_pc else ("const0",)
    if family == "pc":
        limit = 63
        source = "pc" if feature.depth == 0 else f"pd{feature.depth}"
    elif family == "address":
        limit, source = 63, "addr"
    else:  # offset
        limit, source = BLOCK_OFFSET_BITS - 1, "off"
    lo, hi = _normalize_range(feature.begin, feature.end, limit)
    raw = (source, lo, hi, feature.value_bits)
    return ("sx", raw) if feature.xor_pc else ("s", raw)


def _build_programs(
    feature_sets: Sequence[Sequence[Feature]],
) -> Tuple[List[Tuple[Tuple, ...]], bool, Tuple[Tuple, ...]]:
    """Per-candidate entry layouts and the shared slots of a batch.

    Static descriptors are deduplicated across the union of all
    candidates' features; each candidate's entries reference shared
    slot positions (offset by one when slot 0 holds the PC hash).
    Returns ``(entry_sets, needs_h, slots)``: the kernel compiles each
    candidate's entries, and :func:`~repro.sim.kernel.columns.
    lower_stream` lowers ``slots`` to arrays.
    """
    slot_of: Dict[Tuple, int] = {}
    slots: List[Tuple] = []
    needs_h = any(
        feature.xor_pc for features in feature_sets for feature in features
    )
    entry_sets: List[Tuple[Tuple, ...]] = []
    base = 1 if needs_h else 0
    for features in feature_sets:
        entries: List[Tuple] = []
        for feature in features:
            desc = _descriptor(feature)
            kind = desc[0]
            if kind in ("dyn", "const0"):
                entries.append(desc)
            elif kind == "hx":
                entries.append(("slot", 0))
            else:
                slot = slot_of.get(desc)
                if slot is None:
                    slot = len(slots)
                    slot_of[desc] = slot
                    slots.append(desc)
                entries.append(("slot", slot + base))
        entry_sets.append(tuple(entries))
    return entry_sets, needs_h, tuple(slots)


def _mpppb_inputs(policy: MPPPBPolicy) -> Tuple:
    sampler = policy.sampler
    return (sampler.mapper._stride, sampler.mapper.sampler_sets,
            sampler.tag_bits)


def _mpppb_lowering(policies: Sequence[MPPPBPolicy], pc_trace):
    """Lower the batch's shared slots; each candidate's program is its
    entry layout over them."""
    entry_sets, needs_h, slots = _build_programs(
        [policy.config.features for policy in policies])
    num_sets = policies[0].num_sets
    inputs = _mpppb_inputs(policies[0])
    hist = np.asarray(pc_trace, dtype=np.uint64)

    def lower(window):
        return columns.lower_stream(window, hist, num_sets, *inputs, slots,
                                    needs_h).arrays()

    ncols = len(slots) + needs_h
    return lower, [(entries, ncols, needs_h) for entries in entry_sets]


class Kernel(NamedTuple):
    """How the columnar kernel replays one exact policy type.

    ``inputs(policy)`` is what the lowering reads from a policy beside
    its LLC geometry, equal across a batch.  ``lowering(policies,
    pc_trace)`` returns ``(lower, programs)``: ``lower(window)`` gives
    a window's columns in the order the kernel reads them, and
    ``programs[k]`` is what it compiled for policy ``k`` (``None`` for a
    fixed-shape kernel).  ``plan(policy, cache, program)`` returns
    ``(kernel, state, finish)``; ``finish(totals)`` writes the carried
    state back after the last window.
    """

    inputs: Callable[[Any], Tuple]
    lowering: Callable[..., Tuple[Callable, Sequence]]
    plan: Callable[..., Tuple[Callable, Tuple, Callable]]


#: The kernel kind of each policy type, by exact type.
KERNELS: Dict[type, Kernel] = {
    MPPPBPolicy: Kernel(_mpppb_inputs, _mpppb_lowering, numpy_backend.plan),
    LRUPolicy: Kernel(lambda policy: (), baselines.lru_lowering,
                      baselines.lru_plan),
    PerceptronPolicy: Kernel(baselines.predictor_inputs,
                             baselines.perceptron_lowering,
                             baselines.perceptron_plan),
    HawkeyePolicy: Kernel(baselines.predictor_inputs,
                          baselines.hawkeye_lowering,
                          baselines.hawkeye_plan),
}


# -- the batched simulator -------------------------------------------------


class BatchLLCSimulator:
    """Replays one LLC stream against K policies of one kernel kind.

    Equivalent to K :class:`~repro.sim.llc.LLCSimulator` replays over
    the same stream, but the per-access stream decode and
    policy-invariant context are computed once and broadcast.  The
    policies must have one exact type in :data:`KERNELS` (else
    ``TypeError``) and share their LLC geometry and lowering inputs
    (else ``ValueError``), as the candidates of one
    :class:`~repro.search.evaluator.FeatureSetEvaluator` do; each
    replays on a fresh cache of that geometry.
    """

    def __init__(self, policies: Sequence[Any]) -> None:
        if not policies:
            raise ValueError("batch needs at least one policy")
        self.policies = list(policies)
        first = self.policies[0]
        kind = KERNELS.get(type(first))
        if kind is None or any(type(policy) is not type(first)
                               for policy in self.policies):
            raise TypeError(
                "BatchLLCSimulator replays policies of one exact type "
                f"among {sorted(t.__name__ for t in KERNELS)}; got "
                f"{sorted({type(p).__name__ for p in self.policies})}")
        for policy in self.policies:
            if policy.num_sets != first.num_sets or policy.ways != first.ways:
                raise ValueError("batched policies must share LLC geometry")
            if kind.inputs(policy) != kind.inputs(first):
                raise ValueError("batched policies must share their "
                                 "sampler layout and table widths")
        self._kind = kind
        self.caches = [SetAssociativeCache(first.num_sets, first.ways)
                       for _ in self.policies]

    def run(
        self,
        stream: Sequence[LLCAccess],
        pc_trace: Sequence[int] = (),
        warmup: int = 0,
    ) -> List[LLCResult]:
        """Replay ``stream`` for every policy; one result per policy.

        Results (outcomes, measured and warm stats) and all policy
        state finish exactly as K sequential :meth:`LLCSimulator.run`
        calls would leave them, and so does the telemetry each replay
        records.
        """
        kind = self._kind
        lower, programs = kind.lowering(self.policies, pc_trace)
        plans = [kind.plan(policy, cache, program) for policy, cache, program
                 in zip(self.policies, self.caches, programs)]
        replays = columns.replay_windows(
            stream, warmup, lower,
            [(kernel, state) for kernel, state, _ in plans])
        for (_, _, finish), (_, totals) in zip(plans, replays):
            finish(totals)
        results = [result for result, _ in replays]
        if obs.enabled():
            # Same once-per-replay aggregate flush as LLCSimulator.run.
            for policy, result in zip(self.policies, results):
                flush_llc_metrics(result.stats, policy)
        return results
