"""Tests for the worker transport: framing protocol, worker serve loop,
and the fleet backend's forked local slots and spawned slots.

The live-process tests fork or spawn real workers and drive them
through the exact frames the runner sends, so every failure mode the
drive loop depends on — structured errors, worker loss, discard
filtering, rebuilds — is exercised against the real transport, not a
mock.
"""

import io
import os
import pickle
import sys
import time

import pytest

from repro.config import TINY
from repro.exec import ParallelRunner, SingleCell, TraceSpec, stable_hash
from repro.exec.backends import (
    FRAME_ERROR,
    FRAME_LOST,
    FRAME_OK,
    BackendUnavailable,
    WorkerFleetBackend,
    worker_command,
)
from repro.exec.backends.fleet import _CLOSE_GRACE_S, _ForkedProcess
from repro.exec.faults import RemoteCellError, make_failure
from repro.exec.protocol import (
    MAGIC,
    PROTOCOL_VERSION,
    FrameError,
    FrameOversized,
    FrameTruncated,
    read_frame,
    write_frame,
)
from repro.exec.worker import serve

ACCESSES = 2_000


def _cell(benchmark="gamess", policy="lru"):
    return SingleCell(
        trace=TraceSpec(benchmark, TINY.hierarchy.llc_bytes, ACCESSES),
        policy=policy,
        hierarchy=TINY.hierarchy,
        warmup_fraction=TINY.warmup_fraction,
    )


def _request(cell):
    return {
        "cell": cell,
        "key": stable_hash(cell.key_payload()),
        "artifact_root": None,
        "attempt": 1,
        "telemetry": False,
    }


def _serial_result(cell):
    from repro.exec.runner import _execute_cell

    result, _, _, _ = _execute_cell(
        cell, stable_hash(cell.key_payload()), None, 1, False, False)
    return result


def _encode(*messages) -> io.BytesIO:
    stream = io.BytesIO()
    for message in messages:
        write_frame(stream, message)
    stream.seek(0)
    return stream


def _decode_all(buffer: bytes):
    stream = io.BytesIO(buffer)
    frames = []
    while True:
        message = read_frame(stream)
        if message is None:
            return frames
        frames.append(message)


def _run_frame(task_id, request):
    return {"op": "run", "id": task_id,
            "task": pickle.dumps(request,
                                 protocol=pickle.HIGHEST_PROTOCOL)}


class TestFraming:
    def test_round_trip(self):
        stream = _encode({"op": "hello", "pid": 42}, {"op": "shutdown"})
        assert read_frame(stream) == {"op": "hello", "pid": 42}
        assert read_frame(stream) == {"op": "shutdown"}
        assert read_frame(stream) is None  # clean EOF

    def test_empty_stream_is_clean_eof(self):
        assert read_frame(io.BytesIO(b"")) is None

    def test_truncated_header(self):
        with pytest.raises(FrameTruncated):
            read_frame(io.BytesIO(MAGIC + b"\x10"))

    def test_truncated_payload(self):
        stream = _encode({"op": "run", "id": 1})
        whole = stream.getvalue()
        with pytest.raises(FrameTruncated):
            read_frame(io.BytesIO(whole[:-3]))

    def test_bad_magic(self):
        with pytest.raises(FrameError):
            read_frame(io.BytesIO(b"XXXX" + (4).to_bytes(4, "little") + b"abcd"))

    def test_oversized_declared_length_never_allocates(self):
        huge = (1 << 31).to_bytes(4, "little")
        with pytest.raises(FrameOversized):
            read_frame(io.BytesIO(MAGIC + huge))

    def test_oversized_write_refused(self, monkeypatch):
        from repro.exec import protocol

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 64)
        with pytest.raises(FrameOversized):
            protocol.write_frame(io.BytesIO(), {"blob": "x" * 1_000})

    def test_undecodable_payload(self):
        junk = b"\x00not a pickle"
        stream = io.BytesIO(
            MAGIC + len(junk).to_bytes(4, "little") + junk)
        with pytest.raises(FrameError):
            read_frame(stream)


class TestWorkerServe:
    """The worker frame loop, driven in-process over BytesIO pipes."""

    def _serve(self, *messages):
        writer = io.BytesIO()
        code = serve(_encode(*messages), writer)
        return code, _decode_all(writer.getvalue())

    def test_hello_then_clean_eof(self):
        code, frames = self._serve()
        assert code == 0
        [hello] = frames
        assert hello["op"] == "hello"
        assert hello["protocol"] == PROTOCOL_VERSION

    def test_shutdown_op_exits_cleanly(self):
        code, frames = self._serve({"op": "shutdown"})
        assert code == 0
        assert len(frames) == 1  # just the hello

    def test_truncated_request_stream_exits_nonzero(self):
        reader = io.BytesIO(MAGIC + (100).to_bytes(4, "little") + b"short")
        writer = io.BytesIO()
        assert serve(reader, writer) == 1

    def test_unknown_op_yields_protocol_error(self):
        code, frames = self._serve({"op": "launch-missiles"},
                                   {"op": "shutdown"})
        assert code == 0
        error = frames[1]
        assert error["op"] == "error"
        assert error["exc_type"] == "ProtocolError"

    def test_corrupt_nested_task_pickle_is_structured_error(self):
        # The envelope parses; the nested request does not.  The reply
        # must carry the task id so the parent can settle the cell.
        code, frames = self._serve(
            {"op": "run", "id": 7, "task": b"\x00garbage"})
        assert code == 0
        error = frames[1]
        assert error["op"] == "error"
        assert error["id"] == 7

    def test_unimportable_cell_class_is_structured_error(self):
        # A GLOBAL opcode naming a module the worker does not have:
        # exactly what an unknown cell type looks like on the wire.
        bad_task = b"cno_such_module_xyz\nNoSuchCell\n."
        code, frames = self._serve({"op": "run", "id": 3, "task": bad_task})
        assert code == 0
        error = frames[1]
        assert error["op"] == "error"
        assert error["id"] == 3
        assert "no_such_module_xyz" in error["message"]

    def test_config_frame_applies_and_unsets_env(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        code, frames = self._serve(
            {"op": "config",
             "env": {"REPRO_FAULT_INJECT": "raise:every=1,times=99"}},
            _run_frame(5, _request(_cell())),
            {"op": "config", "env": {"REPRO_FAULT_INJECT": None}},
        )
        assert code == 0
        error = frames[1]
        assert error["op"] == "error"
        assert error["id"] == 5
        assert error["exc_type"] == "InjectedFault"
        assert "REPRO_FAULT_INJECT" not in os.environ

    def test_run_executes_cell_bit_identically(self):
        cell = _cell()
        code, frames = self._serve(_run_frame(11, _request(cell)))
        assert code == 0
        reply = frames[1]
        assert reply["op"] == "result"
        assert reply["id"] == 11
        result, seconds, _, _ = reply["payload"]
        assert result == _serial_result(cell)
        assert seconds >= 0.0


def _poll_until(backend, deadline_s=120.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        frames = backend.poll(timeout=0.5)
        if frames:
            return frames
    raise AssertionError("no frame from backend before deadline")


def _await_hellos(backend, deadline_s=30.0):
    deadline = time.monotonic() + deadline_s
    while not all(worker.ready for worker in backend._fleet):
        assert time.monotonic() < deadline, "workers never said hello"
        assert backend.poll(timeout=0.1) == []


class TestWorkerFleetBackend:
    """Live workers over real pipes: forked local slots, except where a
    test names the spawned worker module (the non-Linux path)."""

    def test_executes_cell_and_matches_serial(self):
        cell = _cell()
        backend = WorkerFleetBackend([worker_command()])
        backend.start()
        try:
            backend.submit(1, _request(cell))
            assert backend.in_flight() == [1]
            [frame] = _poll_until(backend)
            assert frame.task_id == 1
            assert frame.status == FRAME_OK
            result, _, _, _ = frame.payload
            assert result == _serial_result(cell)
            assert backend.in_flight() == []
        finally:
            backend.close()

    def test_remote_exception_surfaces_original_type(self):
        backend = WorkerFleetBackend(
            1,
            env={"REPRO_FAULT_INJECT": "raise:every=1,times=99"})
        backend.start()
        try:
            backend.submit(1, _request(_cell()))
            [frame] = _poll_until(backend)
            assert frame.status == FRAME_ERROR
            exc = frame.payload
            assert isinstance(exc, RemoteCellError)
            # make_failure unwraps the remote wrapper, so the recorded
            # failure names the original exception type.
            failure = make_failure("cell", "key", exc, "error", 1)
            assert failure.exc_type == "InjectedFault"
            assert "InjectedFault" in failure.traceback
        finally:
            backend.close()

    def test_killed_worker_yields_lost_frame(self):
        backend = WorkerFleetBackend(
            1,
            env={"REPRO_FAULT_INJECT": "hang:every=1,seconds=600,times=99"})
        backend.start()
        try:
            backend.submit(4, _request(_cell()))
            backend._fleet[0].proc.kill()
            [frame] = _poll_until(backend)
            assert frame.task_id == 4
            assert frame.status == FRAME_LOST
            assert backend.in_flight() == []
        finally:
            backend.close()

    def test_submit_beyond_capacity_is_unavailable(self):
        backend = WorkerFleetBackend(
            1,
            env={"REPRO_FAULT_INJECT": "hang:every=1,seconds=600,times=99"})
        backend.start()
        try:
            backend.submit(1, _request(_cell()))
            with pytest.raises(BackendUnavailable):
                backend.submit(2, _request(_cell("soplex")))
        finally:
            backend.close()

    def test_discarded_task_never_surfaces(self):
        backend = WorkerFleetBackend(
            1,
            env={"REPRO_FAULT_INJECT": "hang:every=1,seconds=600,times=99"})
        backend.start()
        try:
            backend.submit(9, _request(_cell()))
            backend.discard(9)
            assert backend.in_flight() == []
            backend._fleet[0].proc.kill()
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                assert backend.poll(timeout=0.2) == []
                if not backend._fleet[0].alive:
                    break
        finally:
            backend.close()

    def test_rebuild_returns_dropped_ids_and_restores_capacity(self):
        backend = WorkerFleetBackend(
            1,
            env={"REPRO_FAULT_INJECT": "hang:every=1,seconds=600,times=1"})
        backend.start()
        try:
            backend.submit(1, _request(_cell()))
            assert backend.rebuild() == [1]
            # The hang rule fired on attempt 1; the resubmitted attempt
            # runs clean on the fresh worker.
            request = _request(_cell())
            request["attempt"] = 2
            backend.submit(2, request)
            [frame] = _poll_until(backend)
            assert frame.task_id == 2
            assert frame.status == FRAME_OK
        finally:
            backend.close()

    def test_close_is_idempotent(self):
        backend = WorkerFleetBackend(1)
        backend.start()
        backend.close()
        backend.close()
        assert backend.in_flight() == []


#: A worker that sleeps for a second before serving: longer than the
#: 0.5 s heartbeat timeout that ``REPRO_HEARTBEAT=0.1`` implies.
_SLOW_START_WORKER = [
    sys.executable, "-c",
    "import runpy, time; time.sleep(1.0); "
    "runpy.run_module('repro.exec.worker', run_name='__main__')",
]


class TestWorkerHealth:
    """Heartbeat liveness: hung or partitioned workers are declared
    lost after the heartbeat timeout instead of waiting for the
    cell watchdog; healthy-but-slow cells stay alive."""

    def test_silent_busy_worker_declared_lost(self, monkeypatch):
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.setenv(
            "REPRO_FAULT_INJECT",
            "hb-loss:every=1,times=99;hang:every=1,seconds=600,times=99")
        backend = WorkerFleetBackend(1)
        assert backend._hb_timeout == pytest.approx(0.5)
        backend.start()
        try:
            started = time.monotonic()
            backend.submit(3, _request(_cell()))
            [frame] = _poll_until(backend, deadline_s=60.0)
            elapsed = time.monotonic() - started
            assert frame.task_id == 3
            assert frame.status == FRAME_LOST
            assert "heartbeat-lost" in frame.payload
            # The 600s hang was cut down to the heartbeat timeout.
            assert elapsed < 30.0
            assert backend.in_flight() == []
        finally:
            backend.close()

    def test_heartbeats_keep_slow_cell_alive(self, monkeypatch):
        # The cell stalls for several heartbeat timeouts, but the
        # worker's beat thread keeps the slot marked live: the result
        # must arrive as a normal OK frame, never a false loss.
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           "hang:every=1,seconds=2,times=99")
        cell = _cell()
        backend = WorkerFleetBackend(1)
        backend.start()
        try:
            backend.submit(5, _request(cell))
            [frame] = _poll_until(backend, deadline_s=60.0)
            assert frame.task_id == 5
            assert frame.status == FRAME_OK
            result, _, _, _ = frame.payload
            assert result == _serial_result(cell)
        finally:
            backend.close()

    def test_slow_starting_worker_is_not_lost(self, monkeypatch):
        # Silence before the hello is start-up, not a hang: a cell
        # submitted right after start() must come back as a normal OK
        # frame even though the worker boots slower than the timeout.
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.1")
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        cell = _cell()
        backend = WorkerFleetBackend([_SLOW_START_WORKER])
        backend.start()
        try:
            backend.submit(6, _request(cell))
            [frame] = _poll_until(backend, deadline_s=60.0)
            assert frame.task_id == 6
            assert frame.status == FRAME_OK
            result, _, _, _ = frame.payload
            assert result == _serial_result(cell)
        finally:
            backend.close()

    def test_heartbeats_off_cost_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
        backend = WorkerFleetBackend(1)
        assert backend._hb_timeout is None
        assert backend._check_heartbeats() == []


class TestDiscardSemantics:
    def test_hard_discard_retires_slot_until_rebuild(self):
        backend = WorkerFleetBackend(
            1,
            env={"REPRO_FAULT_INJECT": "hang:every=1,seconds=600,times=1"})
        backend.start()
        try:
            backend.submit(7, _request(_cell()))
            backend.discard(7)  # watchdog-style abandonment
            assert backend.in_flight() == []
            with pytest.raises(BackendUnavailable):
                backend.submit(8, _request(_cell("soplex")))
            # The discarded task was already abandoned, so the rebuild
            # reports nothing to requeue — but restores capacity, and
            # no late frame from the old generation ever surfaces.
            assert backend.rebuild() == []
            assert backend.poll(timeout=0.1) == []
            request = _request(_cell())
            request["attempt"] = 2  # the times=1 hang rule skips this
            backend.submit(9, request)
            [frame] = _poll_until(backend)
            assert frame.task_id == 9
            assert frame.status == FRAME_OK
        finally:
            backend.close()

    def test_idle_worker_death_shrinks_capacity(self):
        backend = WorkerFleetBackend(
            2,
            env={"REPRO_FAULT_INJECT": "hang:every=1,seconds=600,times=99"})
        backend.start()
        try:
            victim = backend._fleet[0]
            victim.proc.kill()
            deadline = time.monotonic() + 30.0
            while victim.alive and time.monotonic() < deadline:
                # An idle death produces no lost frame — no task was
                # riding the slot — it only shrinks capacity.
                assert backend.poll(timeout=0.2) == []
            assert not victim.alive
            backend.submit(1, _request(_cell()))
            with pytest.raises(BackendUnavailable):
                backend.submit(2, _request(_cell("soplex")))
        finally:
            backend.close()


#: A worker that shouts on stderr before serving: exercises the
#: stderr ring buffer that failure messages quote.
_NOISY_WORKER = [
    sys.executable, "-c",
    "import sys, runpy; print('chaos-canary: mount gone', file=sys.stderr); "
    "sys.stderr.flush(); sys.argv = sys.argv[:1]; "
    "runpy.run_module('repro.exec.worker', run_name='__main__')",
]


class TestStderrTail:
    def test_lost_frame_carries_stderr_tail(self):
        backend = WorkerFleetBackend(
            [_NOISY_WORKER],
            env={"REPRO_FAULT_INJECT": "hang:every=1,seconds=600,times=99"})
        backend.start()
        try:
            worker = backend._fleet[0]
            # Wait for the worker to boot (hello) and the canary line
            # to land in the ring before killing it mid-cell.
            deadline = time.monotonic() + 60.0
            while not (worker.ready and worker.stderr_tail):
                assert time.monotonic() < deadline
                backend.poll(timeout=0.1)
            backend.submit(4, _request(_cell()))
            worker.proc.kill()
            [frame] = _poll_until(backend)
            assert frame.status == FRAME_LOST
            assert "worker stderr tail" in frame.payload
            assert "chaos-canary: mount gone" in frame.payload
        finally:
            backend.close()

    def test_tail_ring_is_bounded(self):
        from repro.exec.backends.fleet import _STDERR_TAIL_LINES, _Worker

        worker = _Worker(proc=None, index=0)
        for index in range(_STDERR_TAIL_LINES * 3):
            worker.stderr_tail.append(f"line {index}")
        assert len(worker.stderr_tail) == _STDERR_TAIL_LINES
        assert worker.stderr_tail[0] == f"line {_STDERR_TAIL_LINES * 2}"


class TestLocalPoolBackend:
    """The default local slot: a child forked from this process."""

    def test_executes_cell_and_matches_serial(self):
        cell = _cell()
        backend = WorkerFleetBackend(1)
        backend.start()
        try:
            [worker] = backend._fleet
            assert isinstance(worker.proc, _ForkedProcess)
            assert worker.proc.pid != os.getpid()
            backend.submit(1, _request(cell))
            [frame] = _poll_until(backend)
            assert frame.status == FRAME_OK
            result, _, _, _ = frame.payload
            assert result == _serial_result(cell)
        finally:
            backend.close()
        assert worker.proc.returncode == 0  # reaped, clean exit on EOF


class TestForkHygiene:
    """Each forked child keeps only its own pipe pair.  A child holding
    a sibling's ends would keep that sibling from seeing EOF on close
    and hide the sibling's death from the parent."""

    def test_idle_close_is_prompt(self):
        backend = WorkerFleetBackend(2)
        backend.start()
        procs = [worker.proc for worker in backend._fleet]
        try:
            _await_hellos(backend)
        finally:
            started = time.monotonic()
            backend.close()
            elapsed = time.monotonic() - started
        assert elapsed < _CLOSE_GRACE_S / 4
        # Both children left on stdin EOF and were reaped by close().
        assert [proc.returncode for proc in procs] == [0, 0]

    def test_sigkill_of_one_busy_slot_loses_only_that_cell(self):
        victim, survivor = _cell(), _cell("soplex")
        victim_key = stable_hash(victim.key_payload())
        backend = WorkerFleetBackend(
            2, env={"REPRO_FAULT_INJECT":
                    f"hang:key={victim_key[:16]},seconds=600,times=99"})
        backend.start()
        try:
            backend.submit(1, _request(victim))
            backend.submit(2, _request(survivor))
            assert backend._fleet[0].task_id == 1
            backend._fleet[0].proc.kill()
            frames = {}
            deadline = time.monotonic() + 30.0
            while len(frames) < 2:
                assert time.monotonic() < deadline, frames
                for frame in backend.poll(timeout=0.5):
                    frames[frame.task_id] = frame
            assert frames[1].status == FRAME_LOST
            assert "died mid-cell" in frames[1].payload
            assert frames[2].status == FRAME_OK
            result, _, _, _ = frames[2].payload
            assert result == _serial_result(survivor)
        finally:
            backend.close()


class TestBackendResolution:
    def test_slot_sizing(self):
        engine = ParallelRunner(jobs=4, store=None)
        assert engine.jobs == 4
