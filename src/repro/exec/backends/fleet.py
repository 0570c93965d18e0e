"""``WorkerFleetBackend``: the one transport that carries cells to worker
processes, over the length-prefixed pickle framing protocol.

Every slot is a process running :func:`repro.exec.worker.serve` on a
pair of pipes.  On Linux the local slots are children forked from this
process: a fork starts in milliseconds with the simulation stack
already imported, where an exec'd ``python -m repro.exec.worker`` pays
about half a second of interpreter start and imports on every drive.
Off Linux, where a fork without exec is not safe, slots spawn that
worker module from an argv instead, as do the tests that pass one argv
per slot to run custom workers.  Everything above the spawn is shared.
One daemon reader thread per worker pumps inbound frames into a queue
that the drive loop's ``poll`` drains.  A worker whose stream ends
(crash, kill, closed pipe, corrupt frame) surfaces as a ``lost`` frame
for whatever task it was running, and the runner's requeue + rebuild
machinery guarantees the cell still runs exactly once per key.

The contract :class:`~repro.exec.runner.ParallelRunner` relies on:

* ``submit`` either accepts the task or raises
  :class:`BackendUnavailable` (no live idle slot, broken pipe); the
  caller requeues and triggers a rebuild.
* ``poll`` blocks up to ``timeout`` seconds (``None`` = until
  something completes) and returns every frame that is ready.  A frame
  is emitted at most once per submitted task id.
* ``rebuild`` tears down every worker, returns the task ids that were
  in flight, and restores full submission capacity.
* ``discard`` forgets an in-flight task (watchdog expiry) and retires
  its slot until the next rebuild: a late completion for it never
  surfaces as a frame.
* ``close`` is idempotent, never raises, and reaps every worker.

Fork rules, each one load-bearing:

* A child keeps exactly two of the fleet's pipe ends, its own.  A
  sibling holding another slot's request pipe keeps that slot from
  seeing EOF, so an idle ``close`` would wait out ``_CLOSE_GRACE_S``
  per slot; one holding its reply pipe hides that slot's death.
* Every slot forks before any reader thread starts, and ``close``
  joins the readers before a rebuild forks again: a fork beside live
  threads can deadlock the child.
* The child leaves through ``os._exit``, never back into the parent's
  stack, with ``sys.stdout`` rebound to stderr: fd 1 is still the
  parent's stdout.

Settings propagation: after start each worker receives one ``config``
frame carrying a snapshot of the parent's ``REPRO_*`` environment, so
the settings workers read (:func:`repro.config.env_value`: fault
injection, heartbeats, the Stage-2 kernel switch) match the parent's,
spawned slots included.
"""

from __future__ import annotations

import os
import pickle
import queue
import signal
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    BinaryIO,
    Deque,
    Dict,
    List,
    NoReturn,
    Optional,
    Sequence,
    Union,
)

from repro import config
from repro.exec.faults import RemoteCellError
from repro.exec.protocol import FrameError, read_frame, write_frame

#: Frame statuses the backend emits.
FRAME_OK = "ok"
FRAME_ERROR = "error"
FRAME_LOST = "lost"

#: How long ``close`` waits for a worker to exit after stdin EOF
#: before escalating to terminate/kill.
_CLOSE_GRACE_S = 2.0

#: Lines of worker stderr retained per spawned slot for failure
#: diagnosis.  Forked slots write straight to the inherited stderr.
_STDERR_TAIL_LINES = 20

#: Marker embedded in heartbeat-timeout lost frames so the runner can
#: count them separately from plain worker deaths.
HEARTBEAT_LOST = "heartbeat-lost"

#: Heartbeat intervals a busy slot may stay silent before it is
#: declared lost.
HEARTBEAT_TIMEOUT_INTERVALS = 5

#: Local slots fork from this process only where a fork without exec
#: is safe; elsewhere they spawn the worker module.
_FORK_LOCAL = sys.platform.startswith("linux")


class BackendUnavailable(RuntimeError):
    """The backend cannot accept or continue work until rebuilt."""


@dataclass
class Frame:
    """One completion record streamed back from a worker.

    ``payload`` depends on ``status``: the ``(result, seconds,
    artifact-delta, telemetry)`` tuple for ``ok``, a
    :class:`~repro.exec.faults.RemoteCellError` for ``error``, and a
    human-readable reason string for ``lost``.
    """

    task_id: int
    status: str
    payload: Any = None


def worker_command() -> List[str]:
    """Argv that spawns one local worker where slots cannot fork."""
    return [sys.executable, "-m", "repro.exec.worker"]


def knob_env() -> Dict[str, str]:
    """Snapshot of the ``REPRO_*`` knobs to propagate to workers."""
    return {name: value for name, value in os.environ.items()
            if name.startswith("REPRO_")}


class _ForkedProcess:
    """``Popen``-shaped handle on a forked worker child."""

    stderr = None  # the child writes to the inherited stderr

    def __init__(self, pid: int, stdin: BinaryIO, stdout: BinaryIO) -> None:
        self.pid = pid
        self.stdin = stdin
        self.stdout = stdout
        self.returncode: Optional[int] = None

    def poll(self) -> Optional[int]:
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:
                pid, status = self.pid, 0  # reaped by someone else
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: Optional[float] = None) -> int:
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            if deadline is not None and time.monotonic() >= deadline:
                raise subprocess.TimeoutExpired(f"pid {self.pid}", timeout)
            time.sleep(delay)
            delay = min(delay * 2, 0.05)
        return self.returncode

    def _signal(self, signum: int) -> None:
        # Never signal a reaped child: its pid may belong to another
        # process by now.
        if self.poll() is None:
            os.kill(self.pid, signum)

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)


def _serve_child(request_fd: int, reply_fd: int,
                 fleet_fds: Sequence[int]) -> NoReturn:
    """Body of a forked slot: keep its own pipe pair, serve, exit."""
    code = 1
    try:
        # Imported here: ``python -m repro.exec.worker`` must find the
        # module unimported when the package initialises.
        from repro.exec.worker import worker_main

        for fd in fleet_fds:
            if fd not in (request_fd, reply_fd):
                os.close(fd)
        code = worker_main(os.fdopen(request_fd, "rb"),
                           os.fdopen(reply_fd, "wb"))
    except Exception:
        traceback.print_exc()  # the parent sees this slot's loss
    finally:
        os._exit(code)


def _fork_workers(count: int) -> List[_ForkedProcess]:
    """Fork ``count`` children, each serving frames on its own pipes.

    Every pipe exists before the first fork and the parent closes the
    child-side ends only after the last one, so one rule covers every
    child: it sees the whole fleet's ends and closes all but its own two.
    """
    pipes: List[tuple] = []  # (request r, request w, reply r, reply w)
    pids: List[int] = []
    # Buffered output would otherwise be flushed by parent and child.
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except Exception:
            pass
    try:
        for _ in range(count):
            pipes.append(os.pipe() + os.pipe())
        fleet_fds = [fd for ends in pipes for fd in ends]
        for request_r, _, _, reply_w in pipes:
            pid = os.fork()
            if pid == 0:
                _serve_child(request_r, reply_w, fleet_fds)
            pids.append(pid)
    except OSError as exc:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for ends in pipes:
            for fd in ends:
                os.close(fd)
        raise BackendUnavailable(f"cannot fork local workers: {exc}")
    procs = []
    for pid, (request_r, request_w, reply_r, reply_w) in zip(pids, pipes):
        os.close(request_r)
        os.close(reply_w)
        procs.append(_ForkedProcess(pid, os.fdopen(request_w, "wb"),
                                    os.fdopen(reply_r, "rb")))
    return procs


@dataclass
class _Worker:
    """One slot: a worker process plus its in-flight bookkeeping."""

    proc: Any  # subprocess.Popen or _ForkedProcess
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


class WorkerFleetBackend:
    """Worker slots speaking the framing protocol (see the module doc).

    ``slots`` is a local slot count, or one argv per slot to spawn.
    """

    def __init__(self, slots: Union[int, Sequence[Sequence[str]]],
                 env: Optional[Dict[str, str]] = None) -> None:
        if isinstance(slots, int):
            # ``None``: fork every local slot from this process.
            self._commands: Optional[List[List[str]]] = (
                None if _FORK_LOCAL else [worker_command()] * slots)
            self.workers = slots
        else:
            self._commands = [list(command) for command in slots]
            self.workers = len(self._commands)
        if self.workers < 1:
            raise BackendUnavailable("worker fleet needs at least one slot")
        self._env = dict(env) if env is not None else knob_env()
        self._fleet: List[_Worker] = []
        self._events: "queue.Queue[tuple]" = queue.Queue()
        self._discarded: set = set()
        interval = config.env_value("heartbeat")
        self._hb_timeout: Optional[float] = (
            None if interval is None
            else interval * HEARTBEAT_TIMEOUT_INTERVALS)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._fleet:
            return
        procs = (_fork_workers(self.workers) if self._commands is None
                 else self._spawn_workers(self._commands))
        # Reader threads start only once every slot exists.
        now = time.monotonic()
        self._fleet = [_Worker(proc=proc, index=index, last_seen=now)
                       for index, proc in enumerate(procs)]
        for worker in self._fleet:
            worker.thread = threading.Thread(
                target=self._pump, args=(worker,), daemon=True,
                name=f"repro-fleet-{worker.index}")
            worker.thread.start()
            if worker.proc.stderr is not None:
                worker.stderr_thread = threading.Thread(
                    target=self._drain_stderr, args=(worker,), daemon=True,
                    name=f"repro-fleet-{worker.index}-stderr")
                worker.stderr_thread.start()
        for worker in self._fleet:
            try:
                write_frame(worker.proc.stdin,
                            {"op": "config", "env": self._env})
            except Exception:
                self.close()
                raise BackendUnavailable(
                    f"worker slot {worker.index} failed to start")

    @staticmethod
    def _spawn_workers(commands: Sequence[Sequence[str]]
                       ) -> List[subprocess.Popen]:
        procs: List[subprocess.Popen] = []
        for index, command in enumerate(commands):
            try:
                procs.append(subprocess.Popen(
                    list(command), stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE, stderr=subprocess.PIPE))
            except OSError:
                for proc in procs:
                    proc.kill()
                    proc.communicate()
                raise BackendUnavailable(
                    f"worker slot {index} failed to start: "
                    f"{' '.join(command)}")
        return procs

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
                if worker.task_id is not None]

    def discard(self, task_id: int) -> None:
        # The worker under a discarded (timed-out) task keeps crunching
        # until the next rebuild reclaims the slot; until then any late
        # completion for the task is filtered out here.
        self._discarded.add(task_id)
        for worker in self._fleet:
            if worker.task_id == task_id:
                worker.task_id = None
                worker.alive = False  # slot unusable until rebuild
                return

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
        # The worker is gone, so its streams end: join their readers
        # (a rebuild must not fork beside them), then close the pipes.
        # A reader still blocked in a read holds its stream's lock, and
        # closing that stream would hang; such a stream is left open.
        for thread, stream in ((worker.thread, proc.stdout),
                               (worker.stderr_thread, proc.stderr)):
            if thread is not None:
                thread.join(timeout=_CLOSE_GRACE_S)
            if stream is None or (thread is not None and thread.is_alive()):
                continue
            try:
                stream.close()
            except Exception:
                pass
