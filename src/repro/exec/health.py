"""Health knobs and degraded-mode machinery for the execution mesh.

This module centralizes the policy side of DESIGN.md §16 — the pieces
that decide *when* the mesh should treat a component as unhealthy and
what the degraded behavior is.  Mechanism lives with the component
(worker heartbeat thread in :mod:`repro.exec.worker`, per-slot
liveness tracking in :mod:`repro.exec.backends.fleet`, shared-tier
short-circuiting in :mod:`repro.exec.store`, duplicate submission in
:mod:`repro.exec.runner`); the knobs and the breaker state machine
live here so every layer resolves them identically.

Knobs (all off by default — a run that never opts in pays nothing):

* ``REPRO_HEARTBEAT`` — heartbeat interval in seconds.  While a cell
  runs, a worker emits a ``heartbeat`` frame this often; the
  parent declares a silent busy slot lost after the timeout below.
* ``REPRO_HEARTBEAT_TIMEOUT`` — seconds of silence before a busy slot
  is declared lost (default ``HEARTBEAT_TIMEOUT_INTERVALS`` × the
  interval).
* ``--hedge`` / ``REPRO_HEDGE`` — straggler hedge multiple: when a
  running cell exceeds this multiple of the observed median cell
  duration and an idle slot exists, a duplicate is launched and the
  first completion wins (bit-identical by construction — both copies
  share the cache key and therefore the deterministic seed).
* ``REPRO_BREAKER_THRESHOLD`` / ``REPRO_BREAKER_COOLDOWN`` — the
  shared-tier circuit breaker: consecutive IO failures before the
  shared store tier is opened (skipped), and seconds before a
  half-open probe retries it.  ``REPRO_BREAKER=off`` disables the
  breaker entirely (every op hits the shared tier, failures and all).
* ``REPRO_SSH_CONNECT_TIMEOUT`` — ssh ``ConnectTimeout`` for ssh
  workers, and the hello-handshake deadline their ``start()`` enforces.
* ``REPRO_MANIFEST_FSYNC`` — fsync the run manifest's ``.done`` log on
  every append (durability over speed; off by default).
"""

from __future__ import annotations

import os
import time
from typing import Callable, Optional

from repro.exec.faults import ConfigError

#: ``REPRO_*`` values that disable an optional feature.
_OFF = ("", "off", "none", "0")

#: Default multiple of the heartbeat interval a busy slot may stay
#: silent before it is declared lost.
HEARTBEAT_TIMEOUT_INTERVALS = 5

#: Default consecutive shared-tier IO failures before the breaker opens.
BREAKER_THRESHOLD = 3

#: Default seconds an open breaker waits before a half-open probe.
BREAKER_COOLDOWN_S = 5.0

#: Default ssh ``ConnectTimeout`` (and hello-handshake deadline).
SSH_CONNECT_TIMEOUT_S = 10.0


def _positive_float(name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be a number of seconds, got {raw!r}") from None
    if value <= 0:
        raise ConfigError(f"{name} must be > 0, got {raw!r}")
    return value


def heartbeat_interval() -> Optional[float]:
    """Heartbeat interval seconds from ``REPRO_HEARTBEAT``; None = off."""
    raw = (os.environ.get("REPRO_HEARTBEAT", "") or "").strip().lower()
    if raw in _OFF:
        return None
    return _positive_float("REPRO_HEARTBEAT", raw)


def heartbeat_timeout(interval: Optional[float] = None) -> Optional[float]:
    """Silence budget for a busy slot; None when heartbeats are off.

    Explicit ``REPRO_HEARTBEAT_TIMEOUT`` wins; otherwise several
    intervals (:data:`HEARTBEAT_TIMEOUT_INTERVALS`).  A timeout without
    an interval is meaningless (the parent would declare every busy
    slot lost), so ``None`` interval always resolves to ``None``.
    """
    if interval is None:
        interval = heartbeat_interval()
    if interval is None:
        return None
    raw = (os.environ.get("REPRO_HEARTBEAT_TIMEOUT", "") or "").strip().lower()
    if raw in _OFF:
        return interval * HEARTBEAT_TIMEOUT_INTERVALS
    return _positive_float("REPRO_HEARTBEAT_TIMEOUT", raw)


def resolve_hedge(hedge: Optional[float] = None) -> Optional[float]:
    """Hedge multiple from ``--hedge`` / ``REPRO_HEDGE``; None = off."""
    if hedge is None:
        raw = (os.environ.get("REPRO_HEDGE", "") or "").strip().lower()
        if raw in _OFF:
            return None
        try:
            hedge = float(raw)
        except ValueError:
            raise ConfigError(
                f"REPRO_HEDGE must be a multiple >= 1, got {raw!r}") from None
    if hedge <= 0:
        return None
    if hedge < 1.0:
        raise ConfigError(
            f"hedge multiple must be >= 1, got {hedge!r} "
            f"(--hedge / REPRO_HEDGE)")
    return hedge


def breaker_threshold() -> Optional[int]:
    """Consecutive failures before the shared tier opens; None = no breaker."""
    if (os.environ.get("REPRO_BREAKER", "").strip().lower()
            in ("off", "none", "0")):
        return None
    raw = (os.environ.get("REPRO_BREAKER_THRESHOLD", "") or "").strip()
    if not raw:
        return BREAKER_THRESHOLD
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_BREAKER_THRESHOLD must be an integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigError(
            f"REPRO_BREAKER_THRESHOLD must be >= 1, got {value}")
    return value


def breaker_cooldown() -> float:
    """Seconds an open breaker waits before probing the shared tier."""
    raw = (os.environ.get("REPRO_BREAKER_COOLDOWN", "") or "").strip()
    if not raw:
        return BREAKER_COOLDOWN_S
    return _positive_float("REPRO_BREAKER_COOLDOWN", raw)


def ssh_connect_timeout() -> Optional[float]:
    """ssh ``ConnectTimeout`` seconds; None disables the fast-fail."""
    raw = (os.environ.get("REPRO_SSH_CONNECT_TIMEOUT", "") or "")
    raw = raw.strip().lower()
    if raw in ("off", "none", "0"):
        return None
    if not raw:
        return SSH_CONNECT_TIMEOUT_S
    return _positive_float("REPRO_SSH_CONNECT_TIMEOUT", raw)


def manifest_fsync() -> bool:
    """Whether ``.done`` appends fsync (``REPRO_MANIFEST_FSYNC``)."""
    return (os.environ.get("REPRO_MANIFEST_FSYNC", "").strip().lower()
            in ("1", "true", "yes", "on"))


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


def make_breaker() -> Optional[CircuitBreaker]:
    """Breaker configured from the environment; None when disabled."""
    threshold = breaker_threshold()
    if threshold is None:
        return None
    return CircuitBreaker(threshold=threshold, cooldown=breaker_cooldown())
