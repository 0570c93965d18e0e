"""Shared-context batched Stage-2 replay (the feature-search hot path).

The Section-5 feature search evaluates many candidate MPPPB
configurations against the *same* policy-invariant Stage-1 LLC stream.
Per-access context — set index, partial tag, sampler set, PC hash,
address/PC bit slices with their folds, history probes — depends only
on the stream, never on cache state, so it is identical for every
candidate.  :class:`BatchLLCSimulator` splits the replay accordingly:

1. **Slot layout** (once per batch): every candidate feature is
   classified by :func:`_descriptor` into a *static* part (a pure
   function of the access) and at most one *dynamic* bit (``insert`` /
   ``burst`` / ``lastmiss``, a function of the candidate's cache
   state).  :func:`_build_programs` deduplicates the static parts
   across the union of all candidates' features into shared slots.
2. **Lowering** (once per window of :data:`repro.sim.llc.WINDOW`
   accesses): :func:`repro.sim.kernel.columns.lower_stream` computes
   the stream columns and every shared slot as numpy arrays over the
   window.
3. **Per-candidate replay** (K times per window): the columnar kernel
   (:mod:`repro.sim.kernel.numpy_backend`) replays each candidate
   against its own :class:`~repro.cache.cache.SetAssociativeCache`,
   sampler, and perceptron tables, carried from window to window.

Results are bit-identical to K sequential
:class:`~repro.sim.llc.LLCSimulator` + :class:`~repro.core.mpppb.
MPPPBPolicy` replays, which :func:`repro.sim.single.replay_segment`
runs instead under ``REPRO_STAGE2_KERNEL=off``;
``tests/test_sim_batch.py``, ``tests/test_kernel.py`` and the
determinism suite pin the two together.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro import obs
from repro.cache.cache import SetAssociativeCache
from repro.core.features import BLOCK_OFFSET_BITS, _normalize_range, Feature
from repro.core.mpppb import MPPPBPolicy
from repro.sim.kernel import numpy_backend
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


# -- the batched simulator -------------------------------------------------


class BatchLLCSimulator:
    """Replays one LLC stream against K MPPPB candidates in one pass.

    Equivalent to K :class:`~repro.sim.llc.LLCSimulator` replays over
    the same stream, but the per-access stream decode and
    candidate-invariant feature context are computed once and
    broadcast.  Candidates must share LLC geometry and sampler layout
    (guaranteed when they come from one
    :class:`~repro.search.evaluator.FeatureSetEvaluator`, whose
    candidates differ only in their feature tuples); each replays on a
    fresh cache of that geometry.
    """

    def __init__(self, policies: Sequence[MPPPBPolicy]) -> None:
        if not policies:
            raise ValueError("batch needs at least one candidate policy")
        self.policies = list(policies)
        first = self.policies[0]
        for policy in self.policies:
            if not isinstance(policy, MPPPBPolicy):
                raise TypeError(
                    "BatchLLCSimulator only replays MPPPBPolicy candidates; "
                    f"got {type(policy).__name__}"
                )
            if policy.num_sets != first.num_sets or policy.ways != first.ways:
                raise ValueError("batched candidates must share LLC geometry")
            sampler, ref = policy.sampler, first.sampler
            if (sampler.mapper._stride != ref.mapper._stride
                    or sampler.mapper.sampler_sets != ref.mapper.sampler_sets
                    or sampler.tag_bits != ref.tag_bits):
                raise ValueError(
                    "batched candidates must share sampler geometry"
                )
        self.num_sets = first.num_sets
        self.ways = first.ways
        self.caches = [SetAssociativeCache(self.num_sets, self.ways)
                       for _ in self.policies]
        self._entry_sets, self._needs_h, self._slots = _build_programs(
            [policy.config.features for policy in self.policies]
        )

    def run(
        self,
        stream: Sequence[LLCAccess],
        pc_trace: Sequence[int] = (),
        warmup: int = 0,
    ) -> List[LLCResult]:
        """Replay ``stream`` for every candidate; one result per policy.

        Results (outcomes, measured and warm stats) and all candidate
        state (cache contents, default-policy recency, sampler entries,
        perceptron weights, bypass/promotion counters) finish exactly
        as K sequential :meth:`LLCSimulator.run` calls would leave
        them, and so does the telemetry each replay records.
        """
        replays = numpy_backend.replay_all(self, stream, pc_trace, warmup)
        if obs.enabled():
            # Same once-per-replay aggregate flush as LLCSimulator.run.
            for policy, result in zip(self.policies, replays):
                flush_llc_metrics(result.stats, policy)
        return replays
