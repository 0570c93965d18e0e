"""Predictor accuracy measurement — ROC curves (Section 6.3, Figures 1, 8).

The paper measures each predictor in a mode where it *predicts but
does not act*: the LLC stays under plain LRU so the predictor's
decisions cannot feed back into the measurement.  Every access logs
the predictor's confidence; the access's ground-truth label — dead
(the block was not reused before eviction) or live — is resolved by
the block's subsequent fate in the LRU cache.  Sweeping a threshold
over the logged confidences yields false/true positive rates.

Hawkeye is deliberately excluded (Section 6.3): it learns from an
OPT approximation rather than an LRU sampler, so its positives are
not comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.cache.access import AccessContext
from repro.cache.replacement.lru import LRUPolicy
from repro.core.features import Feature
from repro.core.mpppb import MPPPBConfig
from repro.core.predictor import MultiperspectivePredictor
from repro.core.sampler import MultiperspectiveSampler
from repro.predictors.base import ReusePredictor
from repro.sim.batch import _build_programs
from repro.sim.hierarchy import HierarchyConfig
from repro.sim.kernel import columns
from repro.sim.llc import LLCAccess, LLCSimulator
from repro.util.stats import RocPoint, roc_curve_fast

OnAccess = Callable[[int, AccessContext, bool], float]


def _column_indices(
    features: Sequence[Feature],
    sampler: MultiperspectiveSampler,
    stream: Sequence[LLCAccess],
    pc_trace: Sequence[int],
) -> Callable[[AccessContext], List[int]]:
    """The index vector of each access of ``stream``, read from the
    Stage-2 kernel's columns.

    ``stream`` is lowered once (:func:`repro.sim.kernel.columns.
    lower_stream`) over the slots :func:`repro.sim.batch._build_programs`
    lays out for ``features``.  Access ``ctx.stream_index`` reads its
    static slots; each ``insert``/``burst``/``lastmiss`` feature XORs
    its dynamic bit into 0, or into the hashed-PC slot when the feature
    XORs the PC, as :func:`repro.sim.kernel.numpy_backend._index_exprs`
    composes it.  Equal, access by access, to the
    :meth:`~repro.core.features.Feature.compile` closures; every call
    builds a fresh list, since sampler entries keep it.
    """
    [entries], needs_h, slots = _build_programs([features])
    mapper = sampler.mapper
    lowered = columns.lower_stream(
        stream, pc_trace, mapper.llc_sets, mapper._stride,
        mapper.sampler_sets, sampler.tag_bits, slots, needs_h)
    values = [col.tolist() for col in lowered.cols]
    zeros = [0] * lowered.n
    bases: List[List[int]] = []
    flips: dict = {"insert": [], "burst": [], "lastmiss": []}
    for position, entry in enumerate(entries):
        if entry[0] == "slot":
            bases.append(values[entry[1]])
        elif entry[0] == "const0":
            bases.append(zeros)
        else:  # ("dyn", family, xor)
            bases.append(values[0] if entry[2] else zeros)
            flips[entry[1]].append(position)
    inserts, bursts, lastmisses = (
        tuple(flips[family]) for family in ("insert", "burst", "lastmiss"))

    def indices(ctx: AccessContext) -> List[int]:
        i = ctx.stream_index
        row = [base[i] for base in bases]
        if ctx.is_insert:
            for position in inserts:
                row[position] ^= 1
        if ctx.is_mru_hit:
            for position in bursts:
                row[position] ^= 1
        if ctx.last_was_miss:
            for position in lastmisses:
                row[position] ^= 1
        return row

    return indices


class TrainedMultiperspective(ReusePredictor):
    """Predictor + sampler bundle with no cache-management action.

    This is the measure-only form of MPPPB's prediction machinery:
    identical features, tables, and sampler training, but the
    confidence is only recorded, never acted upon.
    """

    name = "multiperspective"

    def __init__(self, config: MPPPBConfig, llc_sets: int) -> None:
        self.predictor = MultiperspectivePredictor(config.features)
        self.sampler = MultiperspectiveSampler(
            self.predictor,
            llc_sets=llc_sets,
            sampler_sets=config.sampler_sets,
            theta=config.theta,
        )

    def on_llc_access(self, set_idx: int, ctx: AccessContext, hit: bool) -> float:
        return self._observe(set_idx, ctx, self.predictor.indices(ctx))

    def on_stream(self, stream: Sequence[LLCAccess],
                  pc_trace: Sequence[int]) -> OnAccess:
        """:meth:`on_llc_access` for the accesses of ``stream``, with the
        index vectors read from its kernel columns
        (:func:`_column_indices`) instead of the feature closures."""
        indices = _column_indices(self.predictor.features, self.sampler,
                                  stream, pc_trace)
        observe = self._observe
        return lambda set_idx, ctx, hit: observe(set_idx, ctx, indices(ctx))

    def _observe(self, set_idx: int, ctx: AccessContext,
                 indices: List[int]) -> float:
        confidence = self.predictor.predict(indices)
        self.sampler.observe(set_idx, ctx, indices, confidence)
        return float(confidence)

    @property
    def confidence_range(self) -> float:
        return self.predictor.confidence_range


class _ProbePolicy(LRUPolicy):
    """LRU replacement that logs predictions and resolves their labels."""

    def __init__(self, num_sets: int, ways: int, on_llc_access: OnAccess,
                 warmup: int) -> None:
        super().__init__(num_sets, ways)
        self.on_llc_access = on_llc_access
        self.warmup = warmup
        self._access_count = 0
        self.confidences: List[float] = []
        self.labels: List[bool] = []
        # Pending prediction id per (set, way); -1 means none.
        self._pending: List[List[int]] = [[-1] * ways for _ in range(num_sets)]
        self._deferred: List[Optional[bool]] = []
        self._current_id = -1

    def on_access(self, set_idx: int, ctx: AccessContext, hit: bool, way: int) -> None:
        confidence = self.on_llc_access(set_idx, ctx, hit)
        measured = self._access_count >= self.warmup
        self._access_count += 1
        if hit and self._pending[set_idx][way] >= 0:
            # The previous prediction for this block resolves as live.
            self._deferred[self._pending[set_idx][way]] = False
            self._pending[set_idx][way] = -1
        if measured:
            self._deferred.append(None)
            self._current_id = len(self._deferred) - 1
            self.confidences.append(confidence)
        else:
            self._current_id = -1
        if hit:
            self._pending[set_idx][way] = self._current_id

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        super().on_fill(set_idx, way, ctx)
        # The prediction logged by on_access for this miss now tracks
        # the filled block.
        self._pending[set_idx][way] = self._current_id

    def on_evict(self, set_idx: int, way: int, block: int) -> None:
        super().on_evict(set_idx, way, block)
        pending = self._pending[set_idx][way]
        if pending >= 0:
            self._deferred[pending] = True  # dead: evicted without reuse
        self._pending[set_idx][way] = -1

    def resolve(self) -> Tuple[List[float], List[bool]]:
        """Finalize labels; still-resident predictions count as dead."""
        labels = [True if label is None else label for label in self._deferred]
        return self.confidences, labels


@dataclass(frozen=True)
class RocResult:
    predictor_name: str
    confidences: Tuple[float, ...]
    labels: Tuple[bool, ...]

    def curve(self, thresholds: Sequence[float]) -> List[RocPoint]:
        return roc_curve_fast(list(self.confidences), list(self.labels),
                              list(thresholds))

    def default_thresholds(self, count: int = 33) -> List[float]:
        """An evenly spaced threshold sweep over the confidence range."""
        if not self.confidences:
            return [0.0]
        lo = min(self.confidences) - 1
        hi = max(self.confidences) + 1
        step = (hi - lo) / max(1, count - 1)
        return [lo + step * i for i in range(count)]


def measure_roc(
    predictor: ReusePredictor,
    stream: Sequence[LLCAccess],
    pc_trace: Sequence[int],
    hierarchy: HierarchyConfig,
    warmup: int = 0,
) -> RocResult:
    """Run a predictor in measure-only mode over one LLC stream, on
    ``hierarchy``'s LLC geometry.

    A :class:`TrainedMultiperspective` reads its index vectors from the
    stream's Stage-2 kernel columns (:meth:`TrainedMultiperspective.
    on_stream`); every other predictor runs its own
    ``on_llc_access``.
    """
    on_access = (predictor.on_stream(stream, pc_trace)
                 if isinstance(predictor, TrainedMultiperspective)
                 else predictor.on_llc_access)
    probe = _ProbePolicy(hierarchy.llc_sets, hierarchy.llc_ways, on_access,
                         warmup)
    LLCSimulator(probe).run(stream, pc_trace=pc_trace, warmup=warmup)
    confidences, labels = probe.resolve()
    return RocResult(
        predictor_name=predictor.name,
        confidences=tuple(confidences),
        labels=tuple(labels),
    )
