"""Stable, content-addressed cache keys for experiment cells.

Every experiment cell (a single-thread benchmark run, a
multi-programmed mix replay, or a feature-search candidate
evaluation) is identified by the SHA-256 of a canonical JSON payload
describing *everything* that determines its result:

* the trace recipe (benchmark names, LLC sizing used for generation,
  access budget, generator seed),
* the cache hierarchy and timing configuration,
* the policy under test, including the full MPPPB configuration with
  features rendered in the paper's spec notation, and
* ``SCHEMA_VERSION``, which must be bumped whenever a simulator change
  alters results without changing any of the above.

Python's builtin ``hash`` is salted per process and therefore useless
here; canonical JSON + SHA-256 gives the same key across processes,
hosts, and sessions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Dict, Mapping, Optional

from repro.core.mpppb import MPPPBConfig
from repro.cpu.timing import TimingConfig
from repro.sim.hierarchy import HierarchyConfig

#: Bump whenever simulator semantics change in a way that invalidates
#: previously cached results (new timing model, trace generator tweaks,
#: policy behavior fixes, ...).  Old blobs are then treated as misses.
SCHEMA_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Render ``payload`` as order-independent, minimal JSON."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def stable_hash(payload: Mapping) -> str:
    """Hex SHA-256 of the canonical JSON encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def task_seed(key: str) -> int:
    """Deterministic 32-bit seed derived from a cell's cache key.

    Workers (and the bit-identical serial fallback) seed the global
    ``random`` module with this before running a cell, so any code
    that reaches for unseeded randomness still behaves reproducibly
    and identically regardless of which worker executes the cell.
    """
    return int(key[:8], 16)


def hierarchy_payload(hierarchy: HierarchyConfig) -> Dict[str, int]:
    return dataclasses.asdict(hierarchy)


def timing_payload(timing: Optional[TimingConfig]) -> Optional[Dict[str, int]]:
    """``None`` means the runner's default :class:`TimingConfig`."""
    return None if timing is None else dataclasses.asdict(timing)


def mpppb_payload(config: MPPPBConfig) -> Dict[str, Any]:
    """MPPPB tunables with features in the paper's spec notation."""
    return {
        "features": [feature.spec() for feature in config.features],
        "default_policy": config.default_policy,
        "tau_bypass": config.tau_bypass,
        "taus": list(config.taus),
        "placements": list(config.placements),
        "tau_no_promote": config.tau_no_promote,
        "sampler_sets": config.sampler_sets,
        "theta": config.theta,
    }


def policy_payload(name: str, config: Optional[MPPPBConfig]) -> Dict[str, Any]:
    payload: Dict[str, Any] = {"name": name}
    if config is not None:
        payload["mpppb"] = mpppb_payload(config)
    return payload
