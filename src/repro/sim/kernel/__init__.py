"""Columnar Stage-2 replay kernel: the one fast path beside the reference.

:class:`~repro.sim.llc.LLCSimulator` is the readable reference replay.
This package is its only fast path: it lowers a segment's Stage-1 LLC
stream into numpy columns once (:mod:`~repro.sim.kernel.columns`) and
replays every MPPPB candidate through a per-candidate ``exec``-
specialized loop with the sampler, perceptron sum, and replacement-
policy walks inlined (:mod:`~repro.sim.kernel.numpy_backend`).  The
LRU, Perceptron and Hawkeye baselines have one fixed-shape columnar
replay each (:mod:`~repro.sim.kernel.baselines`), which
:func:`repro.sim.single.replay_segment` picks by the policy's exact
type for single cells, mix cells and each mix thread's standalone-LRU
baseline.

``REPRO_STAGE2_KERNEL=off`` runs the reference instead, end to end and
inside worker processes (the environment is the one channel they
inherit); :func:`repro.sim.single.replay_segment` is the one reader of
the switch, and the determinism suite uses it to pin both paths to the
same hashes.  Because the kernel is bit-identical to the reference, the
switch never appears in cache keys.
"""

from __future__ import annotations

from repro import config


def stage2_kernel_enabled() -> bool:
    """True unless ``REPRO_STAGE2_KERNEL`` selects the reference replay."""
    return config.env_value("stage2_kernel")
