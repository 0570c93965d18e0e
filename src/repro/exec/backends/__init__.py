"""The worker transport the parallel drive loop speaks.

:class:`WorkerFleetBackend` is the only way a cell reaches a worker
process.  By default its slots are local children forked from this
process, sized by ``--jobs``.  A ``--workers host[:slots],...`` spec
(or ``REPRO_WORKERS``) selects :class:`SSHBackend` instead: the same
framing protocol tunneled over ``ssh host python -m
repro.exec.worker``, sized by the summed per-host slots.
"""

from __future__ import annotations

from typing import Optional

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
from repro.exec.backends.ssh import (
    SSHBackend,
    parse_worker_spec,
    total_slots,
)


def create_backend(slots: int,
                   workers_spec: Optional[str]) -> WorkerFleetBackend:
    """The transport for one drive: ssh slots for a spec, else local."""
    if workers_spec is not None:
        return SSHBackend(parse_worker_spec(workers_spec))
    return WorkerFleetBackend(slots)


__all__ = [
    "BackendUnavailable",
    "FRAME_ERROR",
    "FRAME_LOST",
    "FRAME_OK",
    "Frame",
    "HEARTBEAT_LOST",
    "SSHBackend",
    "WorkerFleetBackend",
    "create_backend",
    "knob_env",
    "parse_worker_spec",
    "total_slots",
    "worker_command",
]
