"""Length-prefixed pickle framing between the parent and its workers.

Every pipe the worker fleet speaks — to a forked worker, or to the
stdin/stdout of a spawned one — carries the same byte stream: a
sequence of self-delimiting frames, each a small pickled message::

    magic "RPF1" | uint32-LE payload length | pickle payload

Messages are plain dicts with an ``op`` field; the interesting ops are

* parent -> worker: ``config`` (environment/knob propagation),
  ``run`` (``id`` plus a *nested* pickle of the execution request), and
  ``shutdown``;
* worker -> parent: ``hello`` (pid + protocol version, sent once on
  startup), ``result`` (``id`` + the execution payload), ``error``
  (``id`` + structured exception fields), and ``heartbeat`` (``id`` of
  the running task, emitted every ``REPRO_HEARTBEAT`` seconds while a
  cell executes so the parent can tell a long cell from a dead slot;
  receivers that predate it ignore unknown ops, so it needs no
  protocol-version bump).

The ``run`` request rides as nested bytes deliberately: the envelope
unpickles with builtins only, so a cell class the worker cannot import
(or a corrupt cell pickle) fails *inside* the worker's request decode
and comes back as a structured ``error`` frame carrying the task id —
never as a dead connection the parent has to guess about.

Framing failures are typed: :class:`FrameTruncated` for streams that
end mid-frame, :class:`FrameOversized` for length prefixes beyond
:data:`MAX_FRAME_BYTES` (a corrupt or hostile peer, not a real
message), and :class:`FrameError` for bad magic or undecodable
payloads.  Readers treat any of them as the end of that worker — the
runner's worker-loss machinery (requeue + respawn) takes over.
"""

from __future__ import annotations

import pickle
from typing import Any, BinaryIO, Optional

MAGIC = b"RPF1"

#: Bump when the message vocabulary changes incompatibly; ``hello``
#: frames carry it so mismatched peers fail fast and loudly.
PROTOCOL_VERSION = 1

#: Ceiling on one frame's payload.  Real messages (cells, results,
#: telemetry) are kilobytes to a few megabytes; a length prefix past
#: this is stream corruption and must not drive a giant allocation.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_HEADER_BYTES = len(MAGIC) + 4


class FrameError(RuntimeError):
    """The byte stream does not parse as a frame."""


class FrameTruncated(FrameError):
    """The stream ended in the middle of a frame."""


class FrameOversized(FrameError):
    """A frame's declared length exceeds :data:`MAX_FRAME_BYTES`."""


def write_frame(stream: BinaryIO, message: Any) -> None:
    """Pickle ``message`` and write one framed record, flushed."""
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameOversized(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit")
    stream.write(MAGIC + len(payload).to_bytes(4, "little") + payload)
    stream.flush()


def _read_exact(stream: BinaryIO, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on clean EOF at byte 0."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = stream.read(remaining)
        if not chunk:
            if not chunks:
                return None
            got = count - remaining
            raise FrameTruncated(
                f"stream ended after {got} of {count} frame bytes")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(stream: BinaryIO) -> Optional[Any]:
    """Read one frame; ``None`` on clean EOF between frames.

    Raises :class:`FrameError` (or a subclass) for truncation, bad
    magic, oversized declared lengths, and payloads that fail to
    unpickle.  All of them mean the stream is unrecoverable — framing
    carries no resync marker, so the caller must drop the connection.
    """
    header = _read_exact(stream, _HEADER_BYTES)
    if header is None:
        return None
    if header[:len(MAGIC)] != MAGIC:
        raise FrameError(f"bad frame magic {header[:len(MAGIC)]!r}")
    length = int.from_bytes(header[len(MAGIC):], "little")
    if length > MAX_FRAME_BYTES:
        raise FrameOversized(
            f"declared frame length {length} exceeds the "
            f"{MAX_FRAME_BYTES}-byte frame limit")
    payload = _read_exact(stream, length)
    if payload is None:
        raise FrameTruncated("stream ended before the frame payload")
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise FrameError(f"frame payload failed to unpickle: {exc}") from exc
