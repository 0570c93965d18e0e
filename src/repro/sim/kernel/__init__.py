"""Columnar Stage-2 replay kernel: the one fast path beside the reference.

:class:`~repro.sim.llc.LLCSimulator` is the readable reference replay.
This package is its only fast path, and
:class:`repro.sim.batch.BatchLLCSimulator` its one entry: it lowers a
Stage-1 or merged LLC stream into numpy columns one window at a time
(:func:`~repro.sim.kernel.columns.replay_windows`) and replays every
policy of a batch through its kind's loop: an ``exec``-specialized
MPPPB loop with the sampler, perceptron sum, and replacement-policy
walks inlined (:mod:`~repro.sim.kernel.numpy_backend`), or one
fixed-shape loop for each of the LRU, Perceptron and Hawkeye baselines
(:mod:`~repro.sim.kernel.baselines`).

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
