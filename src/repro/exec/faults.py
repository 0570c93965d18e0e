"""Deterministic fault injection and failure records for ``repro.exec``.

The fault-tolerance layer needs two things this module provides:

* **Structured failure records** — :class:`CellFailure` captures how a
  cell died (exception type, traceback, attempt count) instead of
  letting the exception abort the whole run, and
  :class:`CellExecutionError` is the typed exception raised in
  ``on_error="raise"`` mode (and by callers that cannot tolerate
  partial results, like the feature-search evaluator).

* **A deterministic fault-injection harness** — ``REPRO_FAULT_INJECT``
  describes faults to inject into cell execution so the test suite and
  CI can prove the hard invariant: a run with injected crashes,
  hangs, and retries produces results bit-identical to a clean run.

``REPRO_FAULT_INJECT`` grammar::

    spec    := clause (';' clause)*
    clause  := kind (':' option (',' option)*)?
    kind    := 'raise' | 'crash' | 'hang' | 'corrupt'
             | 'frame-drop' | 'frame-trunc' | 'frame-delay' | 'frame-dup'
             | 'hb-loss'
    option  := 'every=N' | 'phase=K' | 'times=T' | 'seconds=S'
             | 'key=HEXPREFIX'

Selection is *key-based*, never order-based: a rule fires for a cell
when its ``key=`` prefix matches the cell's cache key, or (without a
``key=``) when ``task_seed(key) % every == phase``.  ``times`` bounds
the attempts the rule fires on (attempts ``1..times``, default 1), so
a retried cell eventually runs clean; ``seconds`` is the hang
duration.  Keys and attempt numbers are deterministic, so the same
spec injects the same faults into the same cells regardless of worker
count or scheduling.

Kinds:

* ``raise`` — raise :class:`InjectedFault` inside the cell body
  (exercises retry and failure collection);
* ``crash`` — ``os._exit`` the worker process (exercises worker-loss
  recovery; degrades to ``raise`` when executed in-process so a serial
  run is not killed);
* ``hang`` — sleep ``seconds`` before running the cell (exercises the
  per-cell watchdog timeout);
* ``corrupt`` — after the result is stored, overwrite the blob with a
  kind-matching but undecodable payload (exercises the
  "corruption is a miss" re-execution path).

Network-chaos kinds (DESIGN.md §16) simulate partitions and flaky
links rather than cell bugs:

* ``frame-drop`` — the worker silently discards the cell's result
  frame (a partition after compute: recovery needs heartbeats or the
  cell watchdog);
* ``frame-trunc`` — the worker writes a truncated result frame and
  dies (a torn write mid-stream: the parent sees ``FrameTruncated``
  and declares the slot lost);
* ``frame-delay`` — the worker sleeps ``seconds`` *after* running the
  cell, before writing the result (a slow link, distinct from ``hang``
  which stalls before compute);
* ``frame-dup`` — the worker writes the result frame twice (a
  retransmit; the parent must ignore the duplicate);
* ``hb-loss`` — the worker suppresses heartbeat frames for the
  selected cell while still computing (a one-way partition: the
  parent's heartbeat timeout must fire even though the cell would
  eventually finish).

Examples::

    REPRO_FAULT_INJECT="raise:every=5"            # ~20% of cells fail once
    REPRO_FAULT_INJECT="crash:key=3fa2"           # kill the worker on one cell
    REPRO_FAULT_INJECT="hang:key=3fa2,seconds=30" # one straggler
    REPRO_FAULT_INJECT="raise:every=7;corrupt:every=11"
    REPRO_FAULT_INJECT="frame-drop:every=6;hb-loss:every=4"
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro import config
from repro.config import ConfigError
from repro.exec.cachekey import task_seed

#: Exit status used by injected worker crashes (arbitrary, nonzero).
CRASH_EXIT_CODE = 13

#: ``result`` payload written by ``corrupt`` faults: the right shape to
#: pass the store's schema/kind checks, guaranteed to fail every cell's
#: ``decode``.
CORRUPT_RESULT = "__repro-fault-corrupt__"

FAULT_KINDS = ("raise", "crash", "hang", "corrupt",
               "frame-drop", "frame-trunc", "frame-delay", "frame-dup",
               "hb-loss")

#: Kinds that mangle the worker→parent result frame.
FRAME_KINDS = ("frame-drop", "frame-trunc", "frame-delay", "frame-dup")


class InjectedFault(RuntimeError):
    """Exception raised by ``raise`` (and in-process ``crash``) faults."""


class RemoteCellError(RuntimeError):
    """A cell raised on the far side of a process boundary.

    Workers cannot ship exception *objects* back (the type may not
    unpickle, and a hostile/corrupt stream must never drive arbitrary
    unpickling on the parent), so they ship structured fields
    instead.  This wrapper carries them; :func:`make_failure`
    unwraps it so the recorded :class:`CellFailure` names the original
    remote exception type — a run's failure records read the same
    whether the cell died in-process or in a worker.
    """

    def __init__(self, exc_type: str, message: str,
                 remote_traceback: str = "") -> None:
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback
        super().__init__(message)


class CellExecutionError(RuntimeError):
    """A cell failed terminally (retries exhausted, not recoverable).

    Raised by ``on_error="raise"`` runs after in-flight work drains,
    and by callers (e.g. the search evaluator) that cannot proceed on
    partial results.  ``failure`` holds the first terminal
    :class:`CellFailure` when one is available.
    """

    def __init__(self, failure: Optional["CellFailure"] = None,
                 message: Optional[str] = None) -> None:
        self.failure = failure
        if message is None:
            message = ("cell execution failed" if failure is None
                       else failure.summary())
        super().__init__(message)


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one cell's terminal failure."""

    label: str
    key: str
    kind: str            # "error" | "timeout"
    exc_type: str
    message: str
    traceback: str
    attempts: int
    seconds: float = 0.0

    def summary(self) -> str:
        return (f"{self.label}: {self.exc_type}: {self.message} "
                f"[{self.kind}, {self.attempts} attempt(s)]")


def make_failure(label: str, key: str, exc: BaseException, kind: str,
                 attempts: int, seconds: float = 0.0) -> CellFailure:
    """Build a :class:`CellFailure` from a caught exception.

    Exceptions re-raised from worker processes chain the remote
    traceback via ``__cause__``; ``format_exception`` renders the full
    chain, so the worker-side frames survive into the record.  A
    :class:`RemoteCellError` from a worker is unwrapped to its carried
    remote type and traceback, so failure records name the original
    exception.
    """
    if isinstance(exc, RemoteCellError):
        return CellFailure(label=label, key=key, kind=kind,
                           exc_type=exc.exc_type, message=str(exc),
                           traceback=exc.remote_traceback,
                           attempts=attempts, seconds=seconds)
    tb = "".join(traceback.format_exception(type(exc), exc,
                                            exc.__traceback__))
    return CellFailure(label=label, key=key, kind=kind,
                       exc_type=type(exc).__name__, message=str(exc),
                       traceback=tb, attempts=attempts, seconds=seconds)


# -- fault-injection spec --------------------------------------------------


@dataclass(frozen=True)
class FaultRule:
    """One clause of a ``REPRO_FAULT_INJECT`` spec."""

    kind: str
    every: int = 1
    phase: int = 0
    times: int = 1
    seconds: float = 3600.0
    key: str = ""

    def selects(self, key: str, attempt: int) -> bool:
        if attempt > self.times:
            return False
        if self.key:
            return key.startswith(self.key)
        return task_seed(key) % self.every == self.phase


def parse_fault_spec(spec: str) -> Tuple[FaultRule, ...]:
    """Parse a ``REPRO_FAULT_INJECT`` spec; :class:`ConfigError` if bad."""
    rules = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        kind, _, rest = clause.partition(":")
        kind = kind.strip().lower()
        if kind not in FAULT_KINDS:
            raise ConfigError(
                f"REPRO_FAULT_INJECT: unknown fault kind {kind!r} in "
                f"{clause!r} (expected one of {', '.join(FAULT_KINDS)})")
        options: Dict[str, str] = {}
        if rest:
            for option in rest.split(","):
                name, sep, value = option.partition("=")
                if not sep:
                    raise ConfigError(
                        f"REPRO_FAULT_INJECT: malformed option {option!r} "
                        f"in {clause!r} (expected name=value)")
                options[name.strip().lower()] = value.strip()
        try:
            rule = FaultRule(
                kind=kind,
                every=int(options.pop("every", 1)),
                phase=int(options.pop("phase", 0)),
                times=int(options.pop("times", 1)),
                seconds=float(options.pop("seconds", 3600.0)),
                key=options.pop("key", ""),
            )
        except ValueError:
            raise ConfigError(
                f"REPRO_FAULT_INJECT: non-numeric option value in "
                f"{clause!r}") from None
        if options:
            raise ConfigError(
                f"REPRO_FAULT_INJECT: unknown option(s) "
                f"{sorted(options)} in {clause!r}")
        if rule.every < 1:
            raise ConfigError(
                f"REPRO_FAULT_INJECT: every must be >= 1 in {clause!r}")
        rules.append(rule)
    return tuple(rules)


@dataclass(frozen=True)
class FaultPlan:
    """Parsed spec plus the two injection hooks the runner calls."""

    rules: Tuple[FaultRule, ...]

    def fire(self, key: str, attempt: int, in_worker: bool = False) -> None:
        """Worker-side hook, called just before a cell executes.

        May raise :class:`InjectedFault`, kill the process, or sleep.
        Only the execution kinds act here: ``corrupt`` is parent-side,
        and the chaos kinds have their own hooks below.
        """
        for rule in self.rules:
            if (rule.kind not in ("raise", "crash", "hang")
                    or not rule.selects(key, attempt)):
                continue
            if rule.kind == "hang":
                time.sleep(rule.seconds)
            elif rule.kind == "crash" and in_worker:
                os._exit(CRASH_EXIT_CODE)
            else:  # "raise", or "crash" outside a worker process
                raise InjectedFault(
                    f"injected {rule.kind} fault "
                    f"(key={key[:12]}, attempt={attempt})")

    def corrupts(self, key: str, attempt: int) -> bool:
        """Parent-side hook: corrupt this cell's stored result blob?"""
        return any(rule.kind == "corrupt" and rule.selects(key, attempt)
                   for rule in self.rules)

    def frame_action(self, key: str, attempt: int) -> Optional[FaultRule]:
        """Worker-side hook: how to mangle this cell's result frame.

        Returns the first matching ``frame-*`` rule (``rule.kind``
        names the action, ``rule.seconds`` the delay for
        ``frame-delay``), or ``None`` to write the frame normally.
        """
        for rule in self.rules:
            if rule.kind in FRAME_KINDS and rule.selects(key, attempt):
                return rule
        return None

    def suppresses_heartbeat(self, key: str, attempt: int) -> bool:
        """Worker-side hook: silence heartbeats while this cell runs?"""
        return any(rule.kind == "hb-loss" and rule.selects(key, attempt)
                   for rule in self.rules)


def active_plan() -> Optional[FaultPlan]:
    """The plan described by ``REPRO_FAULT_INJECT``, or ``None``.

    Read per call (workers see the parent's settings only once its
    snapshot is applied) with one environment lookup and a parse cached
    by the raw spec string.
    """
    return config.env_value("fault_inject")


def corrupt_result_blob(store: Any, key: str, kind: str) -> None:
    """Overwrite ``key``'s result blob with an undecodable payload.

    The payload keeps the correct schema stamp and cell ``kind`` so it
    defeats the store-level checks and exercises the decode layer,
    which must treat it as a cache miss and re-execute the cell.
    """
    store.put(key, {"kind": kind, "result": CORRUPT_RESULT})
