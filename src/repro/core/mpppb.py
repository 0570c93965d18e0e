"""MPPPB: Multiperspective Placement, Promotion, and Bypass
(Sections 3.6 and 3.7).

The multiperspective predictor's confidence drives all three cache
management decisions on top of a default replacement policy:

* **Bypass** — on a miss, confidence above tau_bypass keeps the block
  out of the LLC entirely.
* **Placement** — otherwise the fill lands in one of three demoted
  recency positions pi_1..pi_3 chosen by thresholds tau_1 > tau_2 >
  tau_3, or in the MRU position when the confidence is below tau_3.
* **Promotion** — on a hit, confidence above tau_no_promote leaves the
  block in its current position instead of promoting it.

The default policy is static MDPP for single-thread configurations
(16 tree-PLRU positions) and SRRIP for multi-core ones (4 RRPV
levels) — exactly the paper's two variants.  Unlike the Perceptron
baseline, no per-block dead bit exists: a dead prediction is recorded
*implicitly* by where the block sits in the recency stack.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence, Tuple, Union

from repro import obs
from repro.cache.access import AccessContext
from repro.cache.replacement.base import ReplacementPolicy
from repro.cache.replacement.mdpp import MDPPPolicy
from repro.cache.replacement.srrip import SRRIPPolicy
from repro.core.features import Feature
from repro.core.predictor import MultiperspectivePredictor
from repro.core.sampler import DEFAULT_THETA, MultiperspectiveSampler

#: Telemetry bucket bounds for the predictor-confidence histogram.
#: Confidence is a sum of up to 16 six-bit weights (each in [-32, 31]),
#: so the practical range is roughly [-512, 496]; the buckets are
#: densest around the decision thresholds (tau_3..tau_bypass live in
#: roughly [0, 128]).
CONFIDENCE_BUCKETS = (-256, -128, -64, -32, -16, 0, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class MPPPBConfig:
    """All tunables of one MPPPB instance.

    Thresholds must satisfy tau_bypass >= tau_1 > tau_2 > tau_3 so the
    placement cascade of Section 3.6 is well defined; placements are
    recency positions of the default policy (0..15 for MDPP, RRPV
    0..3 for SRRIP), ordered least-favorable first.
    """

    features: Tuple[Feature, ...]
    default_policy: str = "mdpp"
    tau_bypass: int = 110
    taus: Tuple[int, int, int] = (70, 30, 0)
    placements: Tuple[int, int, int] = (15, 13, 10)
    tau_no_promote: int = 90
    sampler_sets: int = 64
    theta: int = DEFAULT_THETA

    def __post_init__(self) -> None:
        if self.default_policy not in ("mdpp", "srrip"):
            raise ValueError("default_policy must be 'mdpp' or 'srrip'")
        t1, t2, t3 = self.taus
        if not (self.tau_bypass >= t1 > t2 > t3):
            raise ValueError("thresholds must satisfy tau0 >= tau1 > tau2 > tau3")
        if len(self.placements) != 3:
            raise ValueError("exactly three placement positions required")

    def with_features(self, features: Sequence[Feature]) -> "MPPPBConfig":
        return replace(self, features=tuple(features))


class MPPPBPolicy(ReplacementPolicy):
    """The paper's proposed cache management policy."""

    name = "mpppb"

    def __init__(self, num_sets: int, ways: int, config: MPPPBConfig) -> None:
        super().__init__(num_sets, ways)
        self.config = config
        self.predictor = MultiperspectivePredictor(config.features)
        self.sampler = MultiperspectiveSampler(
            self.predictor,
            llc_sets=num_sets,
            sampler_sets=config.sampler_sets,
            theta=config.theta,
        )
        if config.default_policy == "mdpp":
            self.default: Union[MDPPPolicy, SRRIPPolicy] = MDPPPolicy(
                num_sets, ways
            )
            self._mru_position = 0
            max_position = ways - 1
        else:
            self.default = SRRIPPolicy(num_sets, ways)
            self._mru_position = 0
            max_position = self.default.rrpv_max
        for position in config.placements:
            if not 0 <= position <= max_position:
                raise ValueError(
                    f"placement {position} out of range 0..{max_position} "
                    f"for default policy {config.default_policy!r}"
                )
        self._confidence = 0
        self.bypasses = 0
        self.promotions_suppressed = 0
        # Bound-method caches for the per-access path: on_access runs
        # once per LLC access and these three lookups dominate it.
        self._indices = self.predictor.indices
        self._predict = self.predictor.predict
        self._observe = self.sampler.observe
        # Telemetry: None when disabled, so the per-access cost of the
        # confidence histogram is a single ``is not None`` test.  The
        # histogram observes predictions; it never influences them.
        self._conf_hist = obs.histogram("mpppb/confidence",
                                        CONFIDENCE_BUCKETS)

    # -- prediction plumbing ----------------------------------------------

    def on_access(self, set_idx: int, ctx: AccessContext, hit: bool, way: int) -> None:
        indices = self._indices(ctx)
        self._confidence = confidence = self._predict(indices)
        if self._conf_hist is not None:
            self._conf_hist.observe(confidence)
        self._observe(set_idx, ctx, indices, confidence)

    # -- bypass -------------------------------------------------------------

    def should_bypass(self, set_idx: int, ctx: AccessContext) -> bool:
        if self._confidence > self.config.tau_bypass:
            self.bypasses += 1
            return True
        return False

    # -- placement ------------------------------------------------------------

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        confidence = self._confidence
        t1, t2, t3 = self.config.taus
        p1, p2, p3 = self.config.placements
        if confidence > t1:
            position = p1
        elif confidence > t2:
            position = p2
        elif confidence > t3:
            position = p3
        else:
            position = self._mru_position
        self.default.place(set_idx, way, position)

    # -- promotion -------------------------------------------------------------

    def on_hit(self, set_idx: int, way: int, ctx: AccessContext) -> None:
        if self._confidence > self.config.tau_no_promote:
            self.promotions_suppressed += 1
            return
        self.default.on_hit(set_idx, way, ctx)

    # -- replacement delegation -------------------------------------------------

    def choose_victim(self, set_idx: int, ctx: AccessContext) -> int:
        return self.default.choose_victim(set_idx, ctx)

    def on_evict(self, set_idx: int, way: int, block: int) -> None:
        self.default.on_evict(set_idx, way, block)

    def is_mru(self, set_idx: int, way: int) -> bool:
        return self.default.is_mru(set_idx, way)

    # -- reporting ----------------------------------------------------------------

    def storage_bits(self) -> int:
        """Predictor + sampler + default-policy state (Section 4.4)."""
        if isinstance(self.default, MDPPPolicy):
            default_bits = 15 * self.num_sets
        else:
            default_bits = 2 * self.ways * self.num_sets
        return (
            self.predictor.storage_bits()
            + self.sampler.storage_bits()
            + default_bits
        )
