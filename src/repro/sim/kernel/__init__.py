"""Columnar multi-backend Stage-2 replay kernel.

This package is the third strength reduction of the Stage-2 hot path
(after the fused feature pipeline and the shared-context batch
engine): it lowers a segment's Stage-1 LLC stream into numpy columns
once (:mod:`~repro.sim.kernel.columns`) and replays every candidate
through a backend compiled against that fixed schema —

* ``numpy`` — always available when numpy imports: vectorized column
  lowering plus a per-candidate ``exec``-specialized replay loop with
  the sampler, perceptron sum, and replacement-policy walks inlined
  (:mod:`~repro.sim.kernel.numpy_backend`);
* ``numba`` — optional JIT tier: the same replay expressed over flat
  arrays and ``numba.njit``-compiled on first use
  (:mod:`~repro.sim.kernel.numba_backend`), with a one-line notice
  and graceful fallback to ``numpy`` when requested but absent.

The Perceptron and Hawkeye baselines have one fixed-shape columnar
replay each (:mod:`~repro.sim.kernel.baselines`), used whenever the
resolved backend is not ``off``.

Selection follows the repo's knob pattern (``REPRO_STAGE2_BATCH``,
``REPRO_STAGE3_VECTOR``): the ``REPRO_STAGE2_KERNEL`` environment
variable picks ``off`` / ``numpy`` / ``numba``, defaulting to the best
available backend, and — because every backend is bit-identical to
:class:`~repro.sim.llc.LLCSimulator` (pinned by the determinism suite
and ``tests/test_kernel.py``) — the knob never appears in cache keys.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional, Sequence

try:  # numpy is an optional extra ([perf]); everything degrades.
    import numpy as _np

    _np_error = None
except ImportError as _exc:  # pragma: no cover - exercised via fallback tests
    _np = None
    _np_error = str(_exc)

_DISABLED = ("off", "0", "false", "no", "none")
_AUTO = ("on", "1", "true", "yes", "auto", "best")
_notices_emitted = set()


def _notice(key: str, message: str) -> None:
    """One line to stderr, once per process per condition."""
    if key not in _notices_emitted:
        _notices_emitted.add(key)
        print(f"repro: {message}", file=sys.stderr)


def _numba_available() -> bool:
    from repro.sim.kernel import numba_backend

    return numba_backend.available()


def available_backends() -> dict:
    """Importability of each kernel backend (for perf reports)."""
    return {"numpy": _np is not None, "numba": _numba_available()}


def backend_errors() -> dict:
    """Why each unavailable backend failed to import (``None`` = fine).

    Keeps :func:`available_backends` a plain name→bool map (callers
    parametrize tests on it) while letting perf reports record the
    diagnosis — distinguishing "numba not installed" from "numba's
    llvmlite wheel broke" without rerunning imports by hand.
    """
    from repro.sim.kernel import numba_backend

    return {"numpy": _np_error, "numba": numba_backend.import_error()}


def stage2_kernel_backend() -> str:
    """Resolve ``REPRO_STAGE2_KERNEL`` to ``off``/``numpy``/``numba``.

    Unset (or ``auto``/``on``) picks the best importable backend —
    numba when present, else numpy, else ``off``.  An explicit request
    for a missing backend degrades one tier with a one-line notice
    rather than failing: every backend produces bit-identical results,
    so the choice is purely about speed.
    """
    raw = os.environ.get("REPRO_STAGE2_KERNEL")
    value = (raw or "auto").strip().lower()
    if value in _DISABLED:
        return "off"
    if value == "numpy":
        if _np is None:
            _notice("no-numpy",
                    "REPRO_STAGE2_KERNEL=numpy but numpy is not "
                    "installed; falling back to the Python replay "
                    "(pip install 'repro[perf]')")
            return "off"
        return "numpy"
    if value == "numba":
        if _numba_available():
            return "numba"
        _notice("no-numba",
                "REPRO_STAGE2_KERNEL=numba but numba is not installed; "
                "falling back to the numpy kernel "
                "(pip install 'repro[jit]')")
        if _np is not None:
            return "numpy"
        _notice("no-numpy",
                "numpy is not installed either; falling back to the "
                "Python replay (pip install 'repro[perf]')")
        return "off"
    if value not in _AUTO:
        _notice(f"unknown-{value}",
                f"unknown REPRO_STAGE2_KERNEL={raw!r}; using automatic "
                "backend selection (off|numpy|numba)")
    if _numba_available():
        return "numba"
    if _np is not None:
        return "numpy"
    return "off"


def replay_batch(sim, stream: Sequence, pc_trace: Sequence[int],
                 warmup: int, backend: str) -> Optional[List]:
    """Replay all candidates of ``sim`` through ``backend``.

    Returns one :class:`~repro.sim.llc.LLCResult` per candidate, or
    ``None`` when a precondition fails — the caller
    (:meth:`~repro.sim.batch.BatchLLCSimulator.run`) then falls back
    to the per-access Python replay.  Preconditions are checked for
    every candidate before any candidate state is touched, so a
    ``None`` never leaves a half-replayed batch behind.
    """
    if _np is None:
        return None
    from repro.sim.kernel import columns as _columns

    first = sim.policies[0].sampler
    cols = _columns.lower_stream(
        stream,
        pc_trace,
        sim.num_sets,
        first.mapper._stride,
        first.mapper.sampler_sets,
        first.tag_bits,
        sim._slots,
        sim._needs_h,
    )
    if backend == "numba":
        from repro.sim.kernel import numba_backend

        if numba_backend.available():
            return numba_backend.replay_all(sim, cols, warmup)
        _notice("no-numba",
                "REPRO_STAGE2_KERNEL=numba but numba is not installed; "
                "falling back to the numpy kernel "
                "(pip install 'repro[jit]')")
    from repro.sim.kernel import numpy_backend

    return numpy_backend.replay_all(sim, cols, warmup)
