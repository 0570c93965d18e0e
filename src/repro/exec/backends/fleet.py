"""``WorkerFleetBackend``: N long-lived worker subprocesses speaking
the length-prefixed pickle framing protocol over stdin/stdout pipes.

This is the transport-agnostic core of the distributed mesh: the
backend only needs an argv per slot that starts
``python -m repro.exec.worker`` *somewhere* — a local subprocess here,
an ``ssh host ...`` tunnel in :mod:`repro.exec.backends.ssh`.  One
daemon reader thread per worker pumps inbound frames into a shared
queue; the drive loop's ``poll`` drains it.  A worker whose stream
ends (crash, kill, dropped connection, corrupt frame) surfaces as a
``lost`` frame for whatever task it was running, and the runner's
requeue + rebuild machinery — the same path that handles
``BrokenProcessPool`` — guarantees the cell still runs exactly once
per key.

Environment/knob propagation: after the ``hello`` handshake each
worker receives one ``config`` frame carrying a snapshot of the
parent's ``REPRO_*`` environment, so fault-injection specs, kernel
backends, scale knobs, and the shared-store tier behave identically on
every host.
"""

from __future__ import annotations

import os
import pickle
import queue
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence

from repro.exec import health
from repro.exec.backends.base import (
    FRAME_ERROR,
    FRAME_LOST,
    FRAME_OK,
    BackendUnavailable,
    ExecutionBackend,
    Frame,
)
from repro.exec.faults import RemoteCellError
from repro.exec.protocol import FrameError, read_frame, write_frame

#: How long ``close`` waits for a worker to exit after stdin EOF
#: before escalating to terminate/kill.
_CLOSE_GRACE_S = 2.0

#: Lines of worker stderr retained per slot for failure diagnosis.
_STDERR_TAIL_LINES = 20

#: Marker embedded in heartbeat-timeout lost frames so the runner can
#: count them separately from plain worker deaths.
HEARTBEAT_LOST = "heartbeat-lost"


def worker_command() -> List[str]:
    """Argv that starts one local worker (monkeypatchable in tests)."""
    return [sys.executable, "-m", "repro.exec.worker"]


def knob_env() -> Dict[str, str]:
    """Snapshot of the ``REPRO_*`` knobs to propagate to workers."""
    return {name: value for name, value in os.environ.items()
            if name.startswith("REPRO_")}


@dataclass
class _Worker:
    """One slot: a subprocess plus its in-flight bookkeeping."""

    proc: subprocess.Popen
    index: int
    task_id: Optional[int] = None
    alive: bool = True
    ready: bool = False
    last_seen: float = 0.0
    thread: Optional[threading.Thread] = field(default=None, repr=False)
    stderr_thread: Optional[threading.Thread] = field(default=None,
                                                      repr=False)
    stderr_tail: Deque[str] = field(
        default_factory=lambda: deque(maxlen=_STDERR_TAIL_LINES),
        repr=False)


class WorkerFleetBackend(ExecutionBackend):
    """Worker slots backed by long-lived framing-protocol subprocesses."""

    name = "fleet"

    def __init__(self, commands: Sequence[Sequence[str]],
                 env: Optional[Dict[str, str]] = None) -> None:
        if not commands:
            raise BackendUnavailable("worker fleet needs at least one slot")
        self._commands = [list(command) for command in commands]
        self._env = dict(env) if env is not None else knob_env()
        self.workers = len(self._commands)
        self._fleet: List[_Worker] = []
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._discarded: set = set()
        self._hb_timeout = health.heartbeat_timeout()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._fleet:
            return
        for index, command in enumerate(self._commands):
            worker = self._spawn(index, command)
            if worker is None:
                self.close()
                raise BackendUnavailable(
                    f"worker slot {index} failed to start: "
                    f"{' '.join(command)}")
            self._fleet.append(worker)

    def _spawn(self, index: int, command: Sequence[str]
               ) -> Optional[_Worker]:
        try:
            proc = subprocess.Popen(list(command), stdin=subprocess.PIPE,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE)
        except OSError:
            return None
        worker = _Worker(proc=proc, index=index)
        worker.last_seen = time.monotonic()
        worker.thread = threading.Thread(
            target=self._pump, args=(worker,), daemon=True,
            name=f"repro-fleet-{index}")
        worker.thread.start()
        worker.stderr_thread = threading.Thread(
            target=self._drain_stderr, args=(worker,), daemon=True,
            name=f"repro-fleet-{index}-stderr")
        worker.stderr_thread.start()
        try:
            write_frame(proc.stdin, {"op": "config", "env": self._env})
        except Exception:
            self._shutdown_worker(worker)
            return None
        return worker

    def _pump(self, worker: _Worker) -> None:
        """Reader thread: inbound frames -> the shared event queue."""
        stream = worker.proc.stdout
        while True:
            try:
                message = read_frame(stream)
            except (FrameError, OSError, ValueError):
                # Truncated/corrupt stream or closed pipe: the worker
                # is gone for our purposes.
                message = None
            if message is not None:
                # Any inbound frame — result, error, heartbeat — proves
                # the worker is alive; the timestamp feeds the parent's
                # heartbeat timeout.
                worker.last_seen = time.monotonic()
            self._events.put((worker, message))
            if message is None:
                return

    @staticmethod
    def _drain_stderr(worker: _Worker) -> None:
        """Reader thread: worker stderr -> tail ring + parent stderr.

        The pass-through keeps worker diagnostics visible exactly as
        when stderr was inherited; the ring keeps the final lines
        available after the process is gone, which is when they matter.
        """
        stream = worker.proc.stderr
        if stream is None:
            return
        try:
            for raw in iter(stream.readline, b""):
                line = raw.decode("utf-8", errors="replace").rstrip("\n")
                worker.stderr_tail.append(line)
                try:
                    print(line, file=sys.stderr)
                except Exception:
                    pass  # interpreter shutdown; keep the ring anyway
        except Exception:
            pass
        try:
            stream.close()
        except Exception:
            pass

    @staticmethod
    def _stderr_tail(worker: _Worker) -> str:
        """Render a worker's retained stderr tail for failure messages."""
        if worker.stderr_thread is not None:
            # The pipe usually drains within moments of death; give it
            # a beat so the tail includes the worker's last words.
            worker.stderr_thread.join(timeout=0.2)
        lines = list(worker.stderr_tail)
        if not lines:
            return ""
        return ("worker stderr tail:\n  "
                + "\n  ".join(lines))

    # -- work --------------------------------------------------------------

    def submit(self, task_id: int, request: Any) -> None:
        worker = self._idle_worker()
        if worker is None:
            raise BackendUnavailable("no live idle worker slot")
        frame = {"op": "run", "id": task_id,
                 "task": pickle.dumps(request,
                                      protocol=pickle.HIGHEST_PROTOCOL)}
        try:
            write_frame(worker.proc.stdin, frame)
        except Exception as exc:
            worker.alive = False
            tail = self._stderr_tail(worker)
            raise BackendUnavailable(
                f"worker slot {worker.index} rejected work: {exc}"
                + (f"\n{tail}" if tail else ""))
        worker.task_id = task_id
        worker.last_seen = time.monotonic()

    def _idle_worker(self) -> Optional[_Worker]:
        for worker in self._fleet:
            if worker.alive and worker.task_id is None:
                return worker
        return None

    def poll(self, timeout: Optional[float]) -> List[Frame]:
        frames: List[Frame] = []
        block = any(worker.task_id is not None for worker in self._fleet
                    if worker.alive) or timeout is not None
        # With heartbeats on, a blocking poll must wake often enough to
        # notice a slot going silent even when no frames arrive at all
        # (a partitioned worker sends nothing) — cap the wait at a
        # fraction of the timeout budget.
        if self._hb_timeout is not None and block:
            quantum = min(max(self._hb_timeout / 4.0, 0.05), 1.0)
            timeout = quantum if timeout is None else min(timeout, quantum)
        try:
            event = self._events.get(timeout=timeout) if block \
                else self._events.get_nowait()
        except queue.Empty:
            frames.extend(self._check_heartbeats())
            return frames
        while True:
            frame = self._handle_event(*event)
            if frame is not None:
                frames.append(frame)
            try:
                event = self._events.get_nowait()
            except queue.Empty:
                frames.extend(self._check_heartbeats())
                return frames

    def _check_heartbeats(self) -> List[Frame]:
        """Declare busy-but-silent slots lost after the heartbeat timeout.

        The slot's process is killed outright: it is either dead
        already, frozen, or partitioned from us, and its task is about
        to be requeued — letting it linger risks a duplicate late
        result after the task re-runs.  The kill's stream EOF surfaces
        as a ``None`` event whose task id is already cleared, so death
        is not double-reported.

        A slot whose ``hello`` has not arrived is skipped: interpreter
        start-up can outlast a short timeout, and silence only counts
        from the ``hello`` on.  Before it, a dead worker still surfaces
        as EOF and a hung one through the cell watchdog.
        """
        if self._hb_timeout is None:
            return []
        frames: List[Frame] = []
        now = time.monotonic()
        for worker in self._fleet:
            if (not worker.alive or not worker.ready
                    or worker.task_id is None):
                continue
            silent = now - worker.last_seen
            if silent < self._hb_timeout:
                continue
            task_id, worker.task_id = worker.task_id, None
            worker.alive = False
            try:
                worker.proc.kill()
            except Exception:
                pass
            if task_id in self._discarded:
                self._discarded.discard(task_id)
                continue
            reason = (f"worker slot {worker.index} {HEARTBEAT_LOST}: "
                      f"silent for {silent:.1f}s "
                      f"(timeout {self._hb_timeout:.1f}s)")
            tail = self._stderr_tail(worker)
            if tail:
                reason += "\n" + tail
            frames.append(Frame(task_id, FRAME_LOST, reason))
        return frames

    def _handle_event(self, worker: _Worker, message: Any
                      ) -> Optional[Frame]:
        if message is None:
            # Stream ended: worker death.  Whatever it was running is
            # lost; an idle worker's death just shrinks capacity until
            # the next rebuild.
            worker.alive = False
            task_id, worker.task_id = worker.task_id, None
            if task_id is None or task_id in self._discarded:
                self._discarded.discard(task_id)
                return None
            reason = f"worker slot {worker.index} died mid-cell"
            tail = self._stderr_tail(worker)
            if tail:
                reason += "\n" + tail
            return Frame(task_id, FRAME_LOST, reason)
        op = message.get("op") if isinstance(message, dict) else None
        if op == "hello":
            worker.ready = True
            return None
        if op not in ("result", "error"):
            return None
        task_id = message.get("id")
        if task_id is None:
            task_id = worker.task_id
        if worker.task_id == task_id:
            worker.task_id = None
        if task_id is None or task_id in self._discarded:
            self._discarded.discard(task_id)
            return None
        if op == "result":
            return Frame(task_id, FRAME_OK, message.get("payload"))
        exc = RemoteCellError(
            exc_type=str(message.get("exc_type", "RuntimeError")),
            message=str(message.get("message", "")),
            remote_traceback=str(message.get("traceback", "")))
        return Frame(task_id, FRAME_ERROR, exc)

    def in_flight(self) -> List[int]:
        return [worker.task_id for worker in self._fleet
                if worker.task_id is not None
                and worker.task_id not in self._discarded]

    def discard(self, task_id: int, kill: bool = True) -> None:
        # The worker under a discarded (timed-out) task keeps crunching
        # until the next rebuild reclaims the slot; until then any late
        # completion for the task is filtered out here.  With
        # ``kill=False`` (a hedge race's losing copy) the slot stays
        # healthy: its eventual result frame is filtered by the
        # ``_discarded`` set and clears ``task_id``, freeing the slot
        # with no rebuild at all.
        self._discarded.add(task_id)
        if not kill:
            return
        for worker in self._fleet:
            if worker.task_id == task_id:
                worker.task_id = None
                worker.alive = False  # slot unusable until rebuild
                return

    def _await_ready(self, timeout: float) -> None:
        """Block until every slot's ``hello`` lands; fail fast otherwise.

        Used by the SSH backend's ``start()`` so an unreachable host
        surfaces as a clean :class:`BackendUnavailable` within the
        connect timeout rather than a hang at first ``submit``.  Safe
        only before work is submitted (events drained here can only be
        hellos or deaths).
        """
        deadline = time.monotonic() + timeout
        while not all(worker.ready for worker in self._fleet):
            dead = next((w for w in self._fleet if not w.alive), None)
            if dead is not None:
                tail = self._stderr_tail(dead)
                index = dead.index
                self.close()
                raise BackendUnavailable(
                    f"worker slot {index} died before its hello"
                    + (f"\n{tail}" if tail else ""))
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                pending = [w.index for w in self._fleet if not w.ready]
                self.close()
                raise BackendUnavailable(
                    f"worker slot(s) {pending} not ready within "
                    f"{timeout:.0f}s")
            try:
                event = self._events.get(timeout=min(remaining, 0.25))
            except queue.Empty:
                continue
            self._handle_event(*event)

    def rebuild(self) -> List[int]:
        dropped = self.in_flight()
        self.close()
        self._discarded.clear()
        self.start()
        return dropped

    def close(self) -> None:
        fleet, self._fleet = self._fleet, []
        for worker in fleet:
            self._shutdown_worker(worker)
        # Drop queued events from the old generation of workers so a
        # post-rebuild poll cannot see stale frames.
        while True:
            try:
                self._events.get_nowait()
            except queue.Empty:
                break

    @staticmethod
    def _shutdown_worker(worker: _Worker) -> None:
        proc = worker.proc
        # An idle healthy worker exits cleanly on stdin EOF; a busy or
        # broken one (hung cell, dead pipe) gets terminated outright —
        # waiting politely on a straggler is exactly what the watchdog
        # rebuild exists to avoid.
        graceful = worker.alive and worker.task_id is None
        worker.alive = False
        try:
            if proc.stdin is not None:
                proc.stdin.close()  # EOF => clean worker exit
        except Exception:
            pass
        if not graceful:
            try:
                proc.terminate()
            except Exception:
                pass
        try:
            proc.wait(timeout=_CLOSE_GRACE_S)
        except Exception:
            try:
                proc.kill()
                proc.wait(timeout=_CLOSE_GRACE_S)
            except Exception:
                pass
        try:
            if proc.stdout is not None:
                proc.stdout.close()
        except Exception:
            pass
        if worker.stderr_thread is not None:
            # Let the drain thread finish the pipe (it closes it on
            # EOF); fall back to closing it ourselves if it is stuck.
            worker.stderr_thread.join(timeout=_CLOSE_GRACE_S)
        try:
            if proc.stderr is not None:
                proc.stderr.close()
        except Exception:
            pass
