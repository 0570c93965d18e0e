"""Long-lived cell-execution worker: one slot of a
:class:`~repro.exec.backends.fleet.WorkerFleetBackend`.

On Linux a slot is a child forked from the parent that calls
:func:`worker_main` on a pipe pair; elsewhere (and in tests that run
custom workers) it runs ``python -m repro.exec.worker`` and serves
stdin/stdout.  Either way the worker speaks the framing protocol from
:mod:`repro.exec.protocol`:

* on startup it emits a ``hello`` frame (pid + protocol version);
* ``config`` frames apply environment knobs (``REPRO_*``) before any
  cell runs — the only state propagation a spawned worker gets;
* ``run`` frames carry a task id plus a nested pickle of the execution
  request; the worker decodes it, runs the cell through exactly the
  same :func:`~repro.exec.runner._execute_cell` entry point a serial
  run uses (so results are bit-identical), and replies with a
  ``result`` frame — or an ``error`` frame whose structured fields
  (exception type, message, remote traceback) the parent folds into a
  :class:`~repro.exec.faults.CellFailure`;
* ``shutdown`` (or EOF on the request stream) ends the loop cleanly.

Stray ``print`` calls inside simulation code must never corrupt the
frame stream, so :func:`worker_main` rebinds ``sys.stdout`` to stderr
before any cell runs.  Per-process memoization (segments, runners,
artifact caches) accumulates across the cells one worker executes; a
forked slot also starts with whatever the parent had memoized.
"""

from __future__ import annotations

import os
import pickle
import sys
import threading
import time
import traceback
from typing import Any, BinaryIO, Dict

from repro import config
from repro.exec import faults
from repro.exec.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    FrameError,
    read_frame,
    write_frame,
)

#: Serializes the outbound frame stream between the serve loop and the
#: heartbeat thread.  ``write_frame`` issues one buffered write, but
#: two concurrent writers could still interleave at the OS pipe layer.
_WRITE_LOCK = threading.Lock()


def _write_locked(writer: BinaryIO, message: Dict[str, Any]) -> None:
    with _WRITE_LOCK:
        write_frame(writer, message)


class _Heartbeat:
    """Emits ``heartbeat`` frames every ``interval`` s while a cell runs.

    Started after a ``run`` request decodes, stopped before its result
    (or error) frame is written.  The beat runs on a daemon thread so a
    cell that wedges the interpreter's main thread — a hang, a stuck
    syscall short of a full freeze — still announces liveness, while a
    dead or partitioned process goes silent, which is exactly the
    distinction the parent's heartbeat timeout draws.
    """

    def __init__(self, writer: BinaryIO, task_id: Any,
                 interval: float) -> None:
        self._writer = writer
        self._task_id = task_id
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._beat, name="repro-heartbeat", daemon=True)

    def start(self) -> None:
        self._thread.start()

    def _beat(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                _write_locked(self._writer, {"op": "heartbeat",
                                             "id": self._task_id})
            except Exception:
                # Parent gone (broken pipe) or stream unusable; the
                # serve loop will find out on its own next write.
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=self._interval + 1.0)


def apply_env(env: Dict[str, Any]) -> None:
    """Apply a ``config`` frame's environment map to this process.

    ``None`` values unset; everything else is stringified.  Only the
    mapping's own keys are touched, so a worker keeps its inherited
    environment for anything the parent did not explicitly propagate.
    """
    for name, value in env.items():
        if not isinstance(name, str):
            continue
        if value is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = str(value)


def execute_request(request: Dict[str, Any]) -> Any:
    """Run one decoded execution request through the shared entry point."""
    from repro.exec.runner import _execute_cell

    return _execute_cell(
        request["cell"],
        request["key"],
        request.get("artifact_root"),
        request.get("attempt", 1),
        True,
        request.get("telemetry", False),
    )


def _error_frame(task_id: Any, exc: BaseException) -> Dict[str, Any]:
    return {
        "op": "error",
        "id": task_id,
        "exc_type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)),
    }


def _write_truncated(writer: BinaryIO, message: Dict[str, Any]) -> None:
    """``frame-trunc`` chaos: half a frame on the wire, then die.

    Simulates a worker whose connection tears mid-write — the parent's
    ``read_frame`` raises ``FrameTruncated`` and the slot is lost.
    """
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    header = MAGIC + len(payload).to_bytes(4, "little")
    writer.write(header + payload[:max(1, len(payload) // 2)])
    writer.flush()
    os._exit(faults.CRASH_EXIT_CODE)


def _handle_run(message: Dict[str, Any], writer: BinaryIO) -> None:
    task_id = message.get("id")
    try:
        request = pickle.loads(message["task"])
    except Exception as exc:
        _write_locked(writer, _error_frame(task_id, exc))
        return
    key = str(request.get("key", ""))
    attempt = int(request.get("attempt", 1))
    plan = faults.active_plan()
    interval = config.env_value("heartbeat")
    beat = None
    if interval is not None and not (
            plan is not None and plan.suppresses_heartbeat(key, attempt)):
        beat = _Heartbeat(writer, task_id, interval)
        beat.start()
    try:
        try:
            payload = execute_request(request)
        except Exception as exc:
            _write_locked(writer, _error_frame(task_id, exc))
            return
    finally:
        if beat is not None:
            beat.stop()
    reply = {"op": "result", "id": task_id, "payload": payload}
    rule = plan.frame_action(key, attempt) if plan is not None else None
    if rule is not None:
        if rule.kind == "frame-drop":
            return  # computed, never reported: a post-compute partition
        if rule.kind == "frame-trunc":
            _write_truncated(writer, reply)  # exits the process
        if rule.kind == "frame-delay":
            time.sleep(rule.seconds)
    try:
        _write_locked(writer, reply)
        if rule is not None and rule.kind == "frame-dup":
            _write_locked(writer, reply)
    except FrameError:
        raise
    except Exception as exc:
        # The result itself failed to pickle/frame; surface that as a
        # structured failure rather than dying with a half-built frame
        # already on the wire... write_frame buffers the whole frame
        # before writing, so the stream is still clean here.
        _write_locked(writer, _error_frame(task_id, exc))


def serve(reader: BinaryIO, writer: BinaryIO) -> int:
    """Frame loop: read requests until EOF/shutdown.  Returns exit code."""
    write_frame(writer, {"op": "hello", "pid": os.getpid(),
                         "protocol": PROTOCOL_VERSION})
    while True:
        try:
            message = read_frame(reader)
        except FrameError:
            # The inbound stream is unrecoverable (truncated/corrupt
            # frame); exit nonzero so the parent records a worker loss.
            return 1
        if message is None:
            return 0
        op = message.get("op") if isinstance(message, dict) else None
        if op == "shutdown":
            return 0
        if op == "config":
            apply_env(dict(message.get("env") or {}))
        elif op == "run":
            _handle_run(message, writer)
        else:
            write_frame(writer, {
                "op": "error", "id": None, "exc_type": "ProtocolError",
                "message": f"unknown frame op {op!r}", "traceback": "",
            })


def worker_main(reader: BinaryIO, writer: BinaryIO) -> int:
    """Serve as this process's whole job; returns its exit code.

    Frames own ``writer``; prints (ours and any stray ones inside
    simulation code) are rerouted to stderr, so they can reach neither
    the frame stream nor, in a forked slot, the parent's stdout.
    """
    sys.stdout = sys.stderr
    try:
        return serve(reader, writer)
    except BrokenPipeError:
        return 1
    except KeyboardInterrupt:
        return 130


def main() -> int:
    return worker_main(sys.stdin.buffer, sys.stdout.buffer)


if __name__ == "__main__":
    raise SystemExit(main())
