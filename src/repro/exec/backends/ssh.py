"""``SSHBackend``: the fleet framing protocol tunneled over ``ssh``.

Each slot is one ``ssh host python -m repro.exec.worker`` subprocess;
stdin/stdout of the ssh client *are* the frame stream, so everything
in :class:`~repro.exec.backends.fleet.WorkerFleetBackend` — pumps,
worker-loss frames, config-frame knob propagation, rebuilds — works
unchanged.  The only new machinery is the host spec, which on its own
selects this backend over the local forked slots:

    --workers "hostA:4,hostB:2,hostC"

gives hostA four slots, hostB two, hostC one.  Settings
(:mod:`repro.config`):

* ``REPRO_REMOTE_PYTHON`` — interpreter to run on the remote side
  (default ``python3``); the repo must be importable there (installed,
  or exported via a remote ``PYTHONPATH``).
* ``REPRO_SSH_COMMAND`` — the ssh client argv prefix (default
  ``ssh -o BatchMode=yes``); tests substitute a local command here to
  exercise the tunnel without an sshd.  An explicit prefix owns the
  whole client configuration — no extra options are appended to it.
* ``REPRO_SSH_CONNECT_TIMEOUT`` — seconds before an unreachable host
  fails (default 10): applied as ``-o ConnectTimeout=…`` on the
  default client command, and as the deadline for the worker ``hello``
  handshake that ``start()`` enforces, so a dead host is a clean
  ``BackendUnavailable`` at startup instead of a hang at first submit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import config
from repro.config import ConfigError
from repro.exec.backends.fleet import WorkerFleetBackend

DEFAULT_SSH_COMMAND = ("ssh", "-o", "BatchMode=yes")

#: Slack added to the connect timeout before the hello handshake is
#: declared failed — covers remote interpreter startup and module
#: import on a reachable host.
_READY_GRACE_S = 20.0


def parse_worker_spec(spec: str,
                      name: str = "--workers") -> List[Tuple[str, int]]:
    """Parse ``host[:slots],...`` into ``[(host, slots), ...]``.

    ``name`` is the setting the spec came from, for error messages.
    """
    hosts: List[Tuple[str, int]] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        host, sep, slots_text = part.rpartition(":")
        if not sep:
            host, slots_text = part, "1"
        try:
            slots = int(slots_text)
        except ValueError:
            raise ConfigError(
                f"{name}: bad slot count {slots_text!r} in {part!r} "
                f"(expected host or host:slots)") from None
        if not host or slots < 1:
            raise ConfigError(
                f"{name}: bad worker spec {part!r} "
                f"(expected host or host:slots with slots >= 1)")
        hosts.append((host, slots))
    if not hosts:
        raise ConfigError(f"{name}: empty worker spec")
    return hosts


def total_slots(spec: str) -> int:
    return sum(slots for _, slots in parse_worker_spec(spec))


class SSHBackend(WorkerFleetBackend):
    """Fleet slots launched on remote hosts through an ssh tunnel."""

    def __init__(self, hosts: Sequence[Tuple[str, int]],
                 env: Optional[Dict[str, str]] = None,
                 python: Optional[str] = None,
                 ssh_command: Optional[Sequence[str]] = None) -> None:
        python = python or config.env_value("remote_python")
        self._connect_timeout = config.env_value("ssh_connect_timeout")
        if ssh_command is None:
            ssh_command = config.env_value("ssh_command")
            if ssh_command is None:
                ssh_command = list(DEFAULT_SSH_COMMAND)
                if self._connect_timeout is not None:
                    ssh_command += [
                        "-o",
                        f"ConnectTimeout={int(self._connect_timeout)}"]
        commands = []
        for host, slots in hosts:
            command = list(ssh_command) + [host, python,
                                           "-m", "repro.exec.worker"]
            commands.extend([command] * slots)
        super().__init__(commands, env=env)

    def start(self) -> None:
        starting = not self._fleet
        super().start()
        if starting and self._connect_timeout is not None:
            self._await_ready(self._connect_timeout + _READY_GRACE_S)
