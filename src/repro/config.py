"""Run configuration: the scale presets and every ``REPRO_*`` setting.

A reproduced figure depends only on its scale, its policies and its
seed.  The paper simulates one-billion-instruction simpoints on a C++
simulator; a pure-Python reproduction must scale trace lengths, mix
counts and search budgets down while keeping the *ratios* that drive
policy behavior (working-set size relative to cache capacity, sampler
coverage relative to set count) intact.  ``ReproScale`` centralizes
every such knob; named presets cover unit tests (``tiny``), the
benchmark harness (``small``, the default) and full-fidelity runs
(``paper``).

Everything else about a run is execution plumbing, declared once in
:data:`SETTINGS`: each entry names a ``REPRO_*`` variable and/or a CLI
flag, the :class:`RunConfig` field it fills, its parser and its
default.  :func:`resolve_config` is the only parser and validator: the
entry points (``repro.cli.main`` and ``ParallelRunner`` construction)
call it before any work, a flag beats its variable, an undeclared
``REPRO_*`` name is an error, and every bad value fails as one
:class:`ConfigError` line naming the setting.  Hot paths and worker
processes (which see the parent's settings only through the snapshot
applied to their environment) read one setting with
:func:`env_value`, a single environment lookup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.sim.hierarchy import HierarchyConfig


class ConfigError(ValueError):
    """Invalid run configuration: a bad flag or ``REPRO_*`` value.

    Subclasses :class:`ValueError`; the CLI prints it as one
    ``error: ...`` line instead of a traceback.
    """


@dataclass(frozen=True)
class ReproScale:
    """Every knob that trades fidelity for runtime.

    Attributes:
        name: preset name.
        hierarchy: cache geometry for single-thread runs.
        multi_hierarchy: cache geometry for 4-core shared-LLC runs.
        segment_accesses: memory accesses per workload segment.
        warmup_fraction: leading fraction of each segment used to warm
            structures before measurement begins (the paper warms with
            500 M of 1.5 B instructions, i.e. one third).
        mix_count: total multi-programmed mixes generated.
        train_mix_count: leading mixes reserved for parameter training
            (the paper uses 100 of 1000).
        random_feature_sets: feature sets sampled in the Figure 3
            random search.
        hillclimb_steps: hill-climbing iterations per run.
    """

    name: str
    hierarchy: HierarchyConfig
    multi_hierarchy: HierarchyConfig
    segment_accesses: int
    warmup_fraction: float
    mix_count: int
    train_mix_count: int
    random_feature_sets: int
    hillclimb_steps: int


def _single_thread_hierarchy(llc_kib: int) -> HierarchyConfig:
    return HierarchyConfig(
        l1_kib=32,
        l1_ways=8,
        l2_kib=256,
        l2_ways=8,
        llc_kib=llc_kib,
        llc_ways=16,
        block_bytes=64,
    )


TINY = ReproScale(
    name="tiny",
    hierarchy=HierarchyConfig(
        l1_kib=4, l1_ways=4, l2_kib=16, l2_ways=8, llc_kib=64, llc_ways=16, block_bytes=64
    ),
    multi_hierarchy=HierarchyConfig(
        l1_kib=4, l1_ways=4, l2_kib=16, l2_ways=8, llc_kib=256, llc_ways=16, block_bytes=64
    ),
    segment_accesses=4_000,
    warmup_fraction=0.25,
    mix_count=6,
    train_mix_count=2,
    random_feature_sets=8,
    hillclimb_steps=4,
)

SMALL = ReproScale(
    name="small",
    hierarchy=HierarchyConfig(
        l1_kib=8, l1_ways=8, l2_kib=64, l2_ways=8, llc_kib=512, llc_ways=16, block_bytes=64
    ),
    multi_hierarchy=HierarchyConfig(
        l1_kib=8, l1_ways=8, l2_kib=64, l2_ways=8, llc_kib=2048, llc_ways=16, block_bytes=64
    ),
    segment_accesses=60_000,
    warmup_fraction=0.25,
    mix_count=24,
    train_mix_count=4,
    random_feature_sets=24,
    hillclimb_steps=12,
)

PAPER = ReproScale(
    name="paper",
    hierarchy=_single_thread_hierarchy(llc_kib=2048),
    multi_hierarchy=_single_thread_hierarchy(llc_kib=8192),
    segment_accesses=400_000,
    warmup_fraction=0.33,
    mix_count=1000,
    train_mix_count=100,
    random_feature_sets=4000,
    hillclimb_steps=500,
)

_SCALES = {"tiny": TINY, "small": SMALL, "paper": PAPER}

#: Default on-disk result cache, relative to the working directory.
DEFAULT_CACHE_DIR = ".repro-cache"

#: The one set of on/off words every switch, path and duration accepts.
ON_WORDS = ("1", "true", "yes", "on")
OFF_WORDS = ("0", "false", "no", "off", "none")
_OFF = f"off ({'/'.join(OFF_WORDS)})"


# -- parsers: (setting name, raw value) -> field value ----------------------
#
# A raw value is the text of a ``REPRO_*`` variable, or the typed value
# of a flag (argparse or a library keyword).  Text spells "off" with an
# off word; a typed 0 is off too, so ``--cell-timeout 0`` stays "off".


def _word(raw: Any) -> str:
    return str(raw).strip().lower()


def _is_off(raw: Any) -> bool:
    return isinstance(raw, str) and _word(raw) in OFF_WORDS


def _number(name: str, raw: Any, kind: type, what: str) -> Any:
    try:
        return kind(raw.strip() if isinstance(raw, str) else raw)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be {what}, got {raw!r}") from None


def _switch(name: str, raw: Any) -> bool:
    if isinstance(raw, bool):
        return raw
    word = _word(raw)
    if word in ON_WORDS or word in OFF_WORDS:
        return word in ON_WORDS
    raise ConfigError(
        f"{name} must be on ({'/'.join(ON_WORDS)}) or {_OFF}, got {raw!r}")


def _path(name: str, raw: Any) -> Optional[str]:
    if _is_off(raw):
        return None
    if _word(raw) in ON_WORDS:
        raise ConfigError(f"{name} must be a directory or {_OFF}, "
                          f"got {raw!r}")
    return os.fspath(raw)


def _seconds(name: str, raw: Any) -> Optional[float]:
    if _is_off(raw):
        return None
    what = f"a positive number of seconds or {_OFF}"
    value = _number(name, raw, float, what)
    if value == 0 and not isinstance(raw, str):
        return None
    if value <= 0:
        raise ConfigError(f"{name} must be {what}, got {raw!r}")
    return value


def _jobs(name: str, raw: Any) -> int:
    jobs = _number(name, raw, int, "an integer (0 = one per CPU)")
    return jobs if jobs > 0 else os.cpu_count() or 1


def _count(name: str, raw: Any) -> int:
    value = _number(name, raw, int, "an integer >= 0")
    if value < 0:
        raise ConfigError(f"{name} must be an integer >= 0, got {raw!r}")
    return value


def _on_error(name: str, raw: Any) -> str:
    value = _word(raw)
    if value not in ("collect", "raise"):
        raise ConfigError(f"{name} must be 'collect' or 'raise', got {raw!r}")
    return value


def _scale(name: str, raw: Any) -> ReproScale:
    try:
        return _SCALES[str(raw).strip()]
    except KeyError:
        raise ConfigError(
            f"{name} must be one of {', '.join(_SCALES)}, got {raw!r}"
        ) from None


def _fault_plan(name: str, raw: Any) -> Any:
    from repro.exec.faults import FaultPlan, parse_fault_spec

    return FaultPlan(parse_fault_spec(str(raw)))


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Setting:
    """One run setting: where it comes from, how it parses, its default."""

    field: str                  # RunConfig attribute
    env: Optional[str]          # REPRO_* variable, None for a flag only
    flag: Optional[str]         # CLI flag (argparse dest == field), or None
    parse: Callable[[str, Any], Any]
    default: Any


SETTINGS: Tuple[Setting, ...] = (
    # What the figures are computed at, and where results live.
    Setting("scale", "REPRO_SCALE", "--scale", _scale, SMALL),
    Setting("jobs", "REPRO_JOBS", "--jobs", _jobs, 1),
    Setting("cache_dir", "REPRO_CACHE_DIR", "--cache-dir", _path,
            DEFAULT_CACHE_DIR),
    Setting("telemetry", "REPRO_TELEMETRY", "--telemetry", _switch, False),
    # Failure handling: flags only.
    Setting("on_error", None, "--on-error", _on_error, "collect"),
    Setting("retries", None, "--retries", _count, 0),
    Setting("cell_timeout", None, "--cell-timeout", _seconds, None),
    # Deployment: worker liveness, manifest durability.
    Setting("heartbeat", "REPRO_HEARTBEAT", None, _seconds, None),
    Setting("manifest_fsync", "REPRO_MANIFEST_FSYNC", None, _switch, False),
    # Test harness switches.
    Setting("fault_inject", "REPRO_FAULT_INJECT", None, _fault_plan, None),
    Setting("stage2_kernel", "REPRO_STAGE2_KERNEL", None, _switch, True),
)

_BY_FIELD: Dict[str, Setting] = {setting.field: setting
                                 for setting in SETTINGS}

#: Every declared ``REPRO_*`` name.
ENV_NAMES = frozenset(setting.env for setting in SETTINGS if setting.env)


@dataclass(frozen=True)
class RunConfig:
    """One run's resolved settings (see :data:`SETTINGS`)."""

    scale: ReproScale
    jobs: int
    cache_dir: Optional[str]
    telemetry: bool
    on_error: str
    retries: int
    cell_timeout: Optional[float]
    heartbeat: Optional[float]
    manifest_fsync: bool
    fault_inject: Any  # Optional[repro.exec.faults.FaultPlan]
    stage2_kernel: bool


def _unset(raw: Any) -> bool:
    return raw is None or (isinstance(raw, str) and not raw.strip())


#: Parsed environment values by (name, text): hot reads skip the parser,
#: and one spec string always yields the same fault plan object.
_PARSED: Dict[Tuple[str, str], Any] = {}


def _from_env(setting: Setting, raw: str) -> Any:
    key = (setting.env, raw)
    try:
        return _PARSED[key]
    except KeyError:
        _PARSED[key] = value = setting.parse(setting.env, raw)
        return value


def resolve_config(flags: Optional[Mapping[str, Any]] = None) -> RunConfig:
    """Build the run config from flags, ``REPRO_*`` variables, defaults.

    ``flags`` maps field names to flag values; ``None`` or an empty
    string means "not given".  A given flag beats its variable, and an
    empty variable counts as unset.  Raises :class:`ConfigError` for an
    undeclared ``REPRO_*`` name or any bad value.
    """
    flags = flags or {}
    unknown = [field for field in flags
               if field not in _BY_FIELD or _BY_FIELD[field].flag is None]
    if unknown:
        raise TypeError(f"not run-config flags: {sorted(unknown)}")
    for name in sorted(os.environ):
        if name.startswith("REPRO_") and name not in ENV_NAMES:
            raise ConfigError(
                f"{name} is not a setting; the REPRO_* settings are "
                f"{', '.join(sorted(ENV_NAMES))}")
    values = {}
    for setting in SETTINGS:
        raw = flags.get(setting.field)
        if not _unset(raw):
            values[setting.field] = setting.parse(setting.flag, raw)
        elif setting.env:
            values[setting.field] = env_value(setting.field)
        else:
            values[setting.field] = setting.default
    return RunConfig(**values)


def env_value(field: str) -> Any:
    """One setting's value from this process's environment.

    A single lookup (plus a cached parse), for hot paths and for worker
    processes, which receive the parent's ``REPRO_*`` snapshot.
    """
    setting = _BY_FIELD[field]
    raw = os.environ.get(setting.env)
    if _unset(raw):
        return setting.default
    return _from_env(setting, raw)


def get_scale(name: str = "") -> ReproScale:
    """A scale preset by name; empty takes the run config's scale
    (``REPRO_SCALE``, else ``small``)."""
    if not name:
        return resolve_config().scale
    return _scale("scale", name)
