"""The multiperspective reuse predictor (Sections 3.1, 3.4, 3.5).

Organized as a hashed perceptron: each feature indexes its own weight
table; the weights selected by the current access are summed into a
confidence value, saturated to the sampler's 9-bit signed confidence
field.  Positive confidence predicts the block *dead*.

Training is delegated to the sampler (:mod:`repro.core.sampler`),
which calls back into :meth:`train_live` / :meth:`train_dead` for
individual features — the paper's selective per-feature-associativity
training rule.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

from repro.cache.access import AccessContext
from repro.core.features import Feature
from repro.core.tables import WeightTable
from repro.predictors.base import ReusePredictor

CONFIDENCE_BITS = 9
CONFIDENCE_MIN = -(1 << (CONFIDENCE_BITS - 1))   # -256
CONFIDENCE_MAX = (1 << (CONFIDENCE_BITS - 1)) - 1  # +255


class MultiperspectivePredictor(ReusePredictor):
    """Hashed-perceptron dead-block predictor over parameterized features."""

    name = "multiperspective"

    def __init__(self, features: Sequence[Feature]) -> None:
        if not features:
            raise ValueError("predictor needs at least one feature")
        self.features: Tuple[Feature, ...] = tuple(features)
        self.tables: List[WeightTable] = [
            WeightTable(f.table_size) for f in self.features
        ]
        # The per-feature table indices for an access: the vector stored
        # in a sampler entry (Section 3.3) so training can reach the
        # exact weights that produced the block's last confidence value.
        index_fns = tuple(f.compile() for f in self.features)
        self.indices: Callable[[AccessContext], List[int]] = (
            lambda ctx: [index(ctx) for index in index_fns])
        self.associativities: Tuple[int, ...] = tuple(
            f.associativity for f in self.features
        )
        # The raw weight lists, hoisted once: WeightTable never rebinds
        # its ``weights`` list (reset mutates in place), so predict()
        # can skip one attribute hop per feature per access.
        self._weights: List[List[int]] = [t.weights for t in self.tables]

    @property
    def confidence_range(self) -> float:
        return float(CONFIDENCE_MAX)

    def predict(self, indices: Sequence[int]) -> int:
        """Sum the selected weights into a saturated 9-bit confidence."""
        total = 0
        for weights, index in zip(self._weights, indices):
            total += weights[index]
        if total > CONFIDENCE_MAX:
            return CONFIDENCE_MAX
        if total < CONFIDENCE_MIN:
            return CONFIDENCE_MIN
        return total

    def on_llc_access(self, set_idx: int, ctx: AccessContext, hit: bool) -> float:
        """Stateless prediction (the :class:`ReusePredictor` interface).

        Sampler-driven training is owned by the policy/probe that also
        owns the sampler; see :class:`repro.core.mpppb.MPPPBPolicy`
        and :class:`repro.sim.roc.TrainedMultiperspective`.
        """
        return float(self.predict(self.indices(ctx)))

    def train_live(self, feature_idx: int, table_index: int) -> None:
        """The block was reused within this feature's associativity."""
        self.tables[feature_idx].decrement(table_index)

    def train_dead(self, feature_idx: int, table_index: int) -> None:
        """The block was demoted past this feature's associativity."""
        self.tables[feature_idx].increment(table_index)

    def storage_bits(self) -> int:
        """Table storage in bits (the Section 4.4 overhead accounting)."""
        return sum(table.storage_bits() for table in self.tables)

    def reset(self) -> None:
        for table in self.tables:
            table.reset()
