"""The shared-tier circuit breaker (DESIGN.md §16).

Mechanism for the mesh's degraded modes lives with each component
(worker heartbeat thread in :mod:`repro.exec.worker`, per-slot
liveness tracking in :mod:`repro.exec.backends.fleet`); their settings
live in the run config (:mod:`repro.config`).  This module holds the
breaker state machine :class:`~repro.exec.store.TieredResultStore`
guards every shared-tier operation with.
"""

from __future__ import annotations

import time
from typing import Callable

#: Consecutive shared-tier IO failures before the breaker opens.
BREAKER_THRESHOLD = 3

#: Seconds an open breaker waits before a half-open probe.
BREAKER_COOLDOWN_S = 5.0


# -- circuit breaker --------------------------------------------------------

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """Closed → open → half-open state machine over a flaky dependency.

    The classic degradation guard: ``threshold`` *consecutive*
    failures open the breaker, after which :meth:`allow` answers False
    (callers skip the dependency entirely — no per-op stall) until
    ``cooldown`` seconds pass; then exactly one probe is allowed
    (half-open).  A successful probe closes the breaker; a failed one
    re-opens it for another cooldown.

    Deliberately not thread-safe: each store instance lives on one
    thread (the parent drive loop, or one worker process), and a rare
    racy double-probe is harmless.
    """

    def __init__(self, threshold: int = BREAKER_THRESHOLD,
                 cooldown: float = BREAKER_COOLDOWN_S,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self.state = CLOSED
        self.failures = 0       # consecutive failures while closed
        self.trips = 0          # transitions into OPEN
        self.skips = 0          # operations short-circuited while open
        self._opened_at = 0.0

    def allow(self) -> bool:
        """May the caller touch the dependency right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self._clock() - self._opened_at >= self.cooldown:
                self.state = HALF_OPEN
                return True  # the single half-open probe
            self.skips += 1
            return False
        # HALF_OPEN: a probe is already in flight this window.
        self.skips += 1
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.state = CLOSED

    def record_failure(self) -> bool:
        """Fold one failure in; True when this call *opened* the breaker."""
        if self.state == HALF_OPEN:
            # The probe failed: straight back to open, new cooldown.
            self.state = OPEN
            self._opened_at = self._clock()
            self.trips += 1
            return True
        self.failures += 1
        if self.state == CLOSED and self.failures >= self.threshold:
            self.state = OPEN
            self._opened_at = self._clock()
            self.trips += 1
            return True
        return False

