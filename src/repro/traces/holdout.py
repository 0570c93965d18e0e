"""Holdout workloads — the reproduction's SPEC CPU 2017 analog.

Table 3 of the paper deliberately evaluates on SPEC CPU 2017
simpoints because they "became available between the acceptance and
camera ready versions" and therefore played no part in feature
development (Section 6.4).  This module provides the same discipline:
a second, smaller suite of benchmarks, with parameters and seeds
disjoint from :mod:`repro.traces.workloads`, that is never used for
tuning thresholds or searching features.  The names follow the SPEC
CPU 2017 benchmarks Table 3 lists.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.traces.synth import (
    BurstyAccess,
    GatherScatter,
    HotCold,
    ObjectWalk,
    PhaseSpec,
    PointerChase,
    RegionScan,
    ShuffledLoop,
    StackChurn,
    compose,
)
from repro.traces.trace import Segment, Trace

_HOLDOUT_BASE = 0x100 << 40  # disjoint from the main suite's regions
_HOLDOUT_PC = 0x7F0000


def _builders():
    """name -> PhaseSpec builder (base, pc, llc) for the holdout suite."""

    def entry(name, builder):
        return name, builder

    return dict([
        entry("bwaves_17", lambda b, p, l: PhaseSpec([
            (RegionScan(base=b, size=int(5.5 * l), stride=64, pc_base=p,
                        pc_count=3), 1.0),
        ])),
        entry("xalancbmk_17", lambda b, p, l: PhaseSpec([
            (PointerChase(base=b, nodes=max(64, int(1.4 * l) // 96),
                          node_size=96, pc_base=p, payload_fields=2), 3.0),
            (ObjectWalk(base=b + (1 << 30), objects=max(64, int(0.9 * l) // 64),
                        object_size=64, fields=(0, 8, 24), pc_base=p + 0x100), 2.0),
        ])),
        entry("wrf_17", lambda b, p, l: PhaseSpec([
            (ShuffledLoop(base=b, size=int(1.45 * l), pc_base=p), 2.0),
            (HotCold(hot_base=b + (1 << 30), hot_size=int(0.12 * l),
                     cold_base=b + (1 << 31), cold_size=int(1.8 * l),
                     hot_prob=0.72, pc_base=p + 0x100), 1.0),
        ])),
        entry("xz_17", lambda b, p, l: PhaseSpec([
            (ShuffledLoop(base=b, size=int(1.25 * l), pc_base=p,
                          write_ratio=0.3), 2.0),
            (GatherScatter(base=b + (1 << 30), size=int(0.6 * l),
                           pc_base=p + 0x100), 1.0),
        ])),
        entry("roms_17", lambda b, p, l: PhaseSpec([
            (RegionScan(base=b, size=int(3.2 * l), stride=64, pc_base=p), 2.0),
            (ShuffledLoop(base=b + (1 << 31), size=int(1.3 * l),
                          pc_base=p + 0x100), 1.0),
        ])),
        entry("gcc_17", lambda b, p, l: PhaseSpec([
            (ObjectWalk(base=b, objects=max(64, int(2.2 * l) // 160),
                        object_size=160, fields=(0, 16, 48, 96, 136),
                        pc_base=p), 3.0),
            (StackChurn(base=b + (1 << 30), pc_base=p + 0x100), 1.0),
        ])),
        entry("mcf_17", lambda b, p, l: PhaseSpec([
            (PointerChase(base=b, nodes=max(64, int(2.8 * l) // 64),
                          pc_base=p, payload_fields=1), 3.0),
            (ShuffledLoop(base=b + (1 << 31), size=int(1.9 * l),
                          pc_base=p + 0x100), 1.0),
        ])),
        entry("lbm_17", lambda b, p, l: PhaseSpec([
            (RegionScan(base=b, size=int(6.5 * l), stride=64, pc_base=p,
                        pc_count=2, write_ratio=0.5, gap_lo=1, gap_hi=3), 1.0),
        ])),
        entry("leela_17", lambda b, p, l: PhaseSpec([
            (HotCold(hot_base=b, hot_size=int(0.08 * l),
                     cold_base=b + (1 << 30), cold_size=int(0.5 * l),
                     hot_prob=0.85, pc_base=p), 2.0),
            (StackChurn(base=b + (1 << 31), pc_base=p + 0x100), 1.0),
        ])),
        entry("x264_17", lambda b, p, l: PhaseSpec([
            (BurstyAccess(base=b, blocks=max(64, int(0.7 * l) // 64),
                          burst_lo=3, burst_hi=6, pc_base=p), 2.0),
            (RegionScan(base=b + (1 << 30), size=int(0.9 * l), stride=16,
                        pc_base=p + 0x100), 1.0),
        ])),
        entry("omnetpp_17", lambda b, p, l: PhaseSpec([
            (PointerChase(base=b, nodes=max(64, int(1.7 * l) // 128),
                          node_size=128, pc_base=p, payload_fields=2), 2.0),
            (ShuffledLoop(base=b + (1 << 31), size=int(1.35 * l),
                          pc_base=p + 0x100), 1.0),
        ])),
        entry("deepsjeng_17", lambda b, p, l: PhaseSpec([
            (GatherScatter(base=b, size=int(2.1 * l), pc_base=p,
                           write_ratio=0.2), 2.0),
            (HotCold(hot_base=b + (1 << 30), hot_size=int(0.15 * l),
                     cold_base=b + (1 << 31), cold_size=int(1.1 * l),
                     hot_prob=0.65, pc_base=p + 0x100), 1.0),
        ])),
    ])


def holdout_names() -> List[str]:
    """Names of the holdout (SPEC CPU 2017 analog) benchmarks."""
    return list(_builders())


def build_holdout_segments(
    name: str, llc_bytes: int, accesses: int, seed: int = 20170
) -> List[Segment]:
    """Materialize one holdout benchmark (single segment each)."""
    builders = _builders()
    try:
        builder = builders[name]
    except KeyError:
        raise KeyError(
            f"unknown holdout benchmark {name!r}; see holdout_names()"
        ) from None
    index = holdout_names().index(name)
    base = _HOLDOUT_BASE + (index << 36)
    pc_base = _HOLDOUT_PC + index * 0x40000
    phase = builder(base, pc_base, llc_bytes)
    columns = compose(phase, accesses, seed ^ (index * 977))
    trace = Trace(f"{name}.p0", *columns)
    return [Segment(f"{name}.p0", trace, 1.0)]


def build_holdout_suite(
    llc_bytes: int, accesses: int, seed: int = 20170,
    names: Sequence[str] = (),
) -> Dict[str, List[Segment]]:
    selected = list(names) if names else holdout_names()
    return {
        name: build_holdout_segments(name, llc_bytes, accesses, seed)
        for name in selected
    }
