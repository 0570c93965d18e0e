"""The execution-backend interface the parallel drive loop speaks.

A backend owns a set of worker slots and moves *execution requests*
(picklable dicts built by the runner: cell, key, artifact roots,
attempt, telemetry flag) to wherever the work happens, then
streams completion :class:`Frame` records back.  The drive loop in
:class:`~repro.exec.runner.ParallelRunner` is backend-agnostic: it
keeps a sliding submission window, routes ``ok`` frames to settle,
``error`` frames through retry/failure handling, and ``lost`` frames
(a worker died under the task) through the requeue + rebuild machinery
that previously only knew about ``BrokenProcessPool``.

Contract highlights:

* ``submit`` either accepts the task or raises
  :class:`BackendUnavailable` (no capacity / broken transport); the
  caller requeues and triggers a rebuild.
* ``poll`` blocks up to ``timeout`` seconds (``None`` = until
  something completes) and returns every frame that is ready.  A frame
  is emitted at most once per submitted task id.
* ``rebuild`` tears down every worker, returns the task ids that were
  in flight (the caller decides whether their attempts are bumped),
  and restores full submission capacity.
* ``discard`` forgets an in-flight task: a late completion for it must
  not surface as a frame.  ``kill=True`` (watchdog expiry) may retire
  the slot until the next rebuild; ``kill=False`` (the losing copy of
  a hedge race) must leave the slot healthy — it frees up whenever the
  duplicate work finishes.
* ``close`` is idempotent and must never raise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, List, Optional

#: Frame statuses a backend may emit.
FRAME_OK = "ok"
FRAME_ERROR = "error"
FRAME_LOST = "lost"


class BackendUnavailable(RuntimeError):
    """The backend cannot accept or continue work until rebuilt."""


@dataclass
class Frame:
    """One completion record streamed back from a backend.

    ``payload`` depends on ``status``: the ``(result, seconds,
    artifact-delta, telemetry)`` tuple for ``ok``, an exception object
    for ``error`` (a :class:`~repro.exec.faults.RemoteCellError` when
    the failure happened across a process/host boundary), and a
    human-readable reason string for ``lost``.
    """

    task_id: int
    status: str
    payload: Any = None


class ExecutionBackend(ABC):
    """Pluggable transport executing pickled cells on worker slots."""

    #: Short name recorded in reports, manifests, and telemetry.
    name = "?"

    #: Number of worker slots (max in-flight submissions).
    workers = 0

    @abstractmethod
    def start(self) -> None:
        """Bring the worker slots up; raises if none can start."""

    @abstractmethod
    def submit(self, task_id: int, request: Any) -> None:
        """Dispatch one request; :class:`BackendUnavailable` if unable."""

    @abstractmethod
    def poll(self, timeout: Optional[float]) -> List[Frame]:
        """Frames completed within ``timeout`` seconds (None = block)."""

    @abstractmethod
    def in_flight(self) -> List[int]:
        """Task ids submitted but not yet resolved by a frame."""

    @abstractmethod
    def discard(self, task_id: int, kill: bool = True) -> None:
        """Forget an in-flight task; its late completion is dropped.

        ``kill=False`` is the soft variant for hedge-race losers: the
        task is forgotten but its slot stays usable.
        """

    @abstractmethod
    def rebuild(self) -> List[int]:
        """Restart every worker; returns the dropped in-flight ids."""

    @abstractmethod
    def close(self) -> None:
        """Tear everything down.  Idempotent; never raises."""
