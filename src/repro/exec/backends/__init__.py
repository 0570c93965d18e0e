"""The worker transport the parallel drive loop speaks.

:class:`WorkerFleetBackend` is the only way a cell reaches a worker
process.  Its slots are local children forked from this process,
sized by ``--jobs``; off Linux they spawn ``python -m
repro.exec.worker`` instead.
"""

from __future__ import annotations

from repro.exec.backends.fleet import (
    FRAME_ERROR,
    FRAME_LOST,
    FRAME_OK,
    HEARTBEAT_LOST,
    BackendUnavailable,
    Frame,
    WorkerFleetBackend,
    knob_env,
    worker_command,
)

__all__ = [
    "BackendUnavailable",
    "FRAME_ERROR",
    "FRAME_LOST",
    "FRAME_OK",
    "Frame",
    "HEARTBEAT_LOST",
    "WorkerFleetBackend",
    "knob_env",
    "worker_command",
]
