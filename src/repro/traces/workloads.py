"""The 33-benchmark synthetic workload suite.

The paper evaluates 29 SPEC CPU 2006 benchmarks, three CloudSuite
server workloads (data_caching, graph_analytics, sat_solver) and
mlpack-cf, cut into up to six weighted SimPoint segments each, 99
segments in total (Section 4.2).  The proprietary traces are
substituted by deterministic synthetic analogs: each benchmark is a
named mixture of the kernels in :mod:`repro.traces.synth`, sized
*relative to the LLC capacity* so that scaled-down cache geometries
preserve each benchmark's miss-ratio regime.

Kernel mixtures were chosen to mirror each program's published memory
character: ``lbm``/``libquantum``/``bwaves`` stream, ``mcf``/
``omnetpp``/``xalancbmk`` chase pointers, ``gcc``/``perlbench`` walk
objects field by field, ``h264ref`` is bursty, and so on.  The point is
not to clone SPEC but to span the reuse/dead-block spectrum the
multiperspective features discriminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.traces.synth import (
    BurstyAccess,
    ShuffledLoop,
    GatherScatter,
    HotCold,
    ObjectWalk,
    PhaseSpec,
    PointerChase,
    RegionScan,
    StackChurn,
    compose,
)
from repro.traces.trace import Segment, Trace

SpecBuilder = Callable[[int, int, int], PhaseSpec]


@dataclass(frozen=True)
class SegmentSpec:
    """One weighted phase of a benchmark."""

    name: str
    weight: float
    builder: SpecBuilder


@dataclass(frozen=True)
class BenchmarkSpec:
    """A named benchmark: an ordered collection of weighted segments."""

    name: str
    segments: Tuple[SegmentSpec, ...]


def _scan(base, pc, llc, ratio, **kw):
    return RegionScan(base=base, size=max(4096, int(llc * ratio)), pc_base=pc, **kw)


def _thrash(base, pc, llc, ratio, **kw):
    """Irregular cyclic working set slightly larger than the LLC.

    The canonical LRU pathology: with a working set of ``ratio`` times
    the cache, LRU hits nothing while MIN (and a good reuse predictor
    driving bypass) pins ``1/ratio`` of the loop.  The shuffled order
    keeps the stream prefetcher out of the picture, as in mcf-like
    irregular code.  This regime carries most of the policy headroom
    the paper exploits.
    """
    kw.pop("stride", None)
    return ShuffledLoop(base=base, size=max(8192, int(llc * ratio)), pc_base=pc, **kw)


def _chase(base, pc, llc, ratio, **kw):
    nodes = max(64, int(llc * ratio) // 64)
    return PointerChase(base=base, nodes=nodes, pc_base=pc, **kw)


def _hotcold(base, pc, llc, hot_ratio, cold_ratio, **kw):
    return HotCold(
        hot_base=base,
        hot_size=max(4096, int(llc * hot_ratio)),
        cold_base=base + (1 << 30),
        cold_size=max(65536, int(llc * cold_ratio)),
        pc_base=pc,
        **kw,
    )


def _objects(base, pc, llc, ratio, **kw):
    objects = max(64, int(llc * ratio) // 128)
    return ObjectWalk(base=base, objects=objects, pc_base=pc, **kw)


def _bursty(base, pc, llc, ratio, **kw):
    blocks = max(64, int(llc * ratio) // 64)
    return BurstyAccess(base=base, blocks=blocks, pc_base=pc, **kw)


def _gather(base, pc, llc, ratio, **kw):
    return GatherScatter(base=base, size=max(4096, int(llc * ratio)), pc_base=pc, **kw)


def _stack(base, pc, llc, **kw):
    return StackChurn(base=base, pc_base=pc, **kw)


def _suite() -> List[BenchmarkSpec]:
    """Construct the full benchmark table.

    Inside each builder, ``base`` is the benchmark's private address
    region, ``pc`` its private code region, and ``llc`` the LLC
    capacity in bytes.
    """

    def seg(name: str, weight: float, builder: SpecBuilder) -> SegmentSpec:
        return SegmentSpec(name, weight, builder)

    benchmarks: List[BenchmarkSpec] = []

    def add(name: str, *segments: SegmentSpec) -> None:
        benchmarks.append(BenchmarkSpec(name, tuple(segments)))

    # -- SPEC CPU 2006 integer analogs ---------------------------------
    add(
        "perlbench",
        seg("p0", 0.6, lambda b, p, l: PhaseSpec([
            (_objects(b, p, l, 0.5, object_size=96), 3.0),
            (_stack(b + (1 << 28), p + 0x100, l), 2.0),
            (_hotcold(b + (1 << 29), p + 0x200, l, 0.1, 2.0, hot_prob=0.8), 1.0),
        ])),
        seg("p1", 0.4, lambda b, p, l: PhaseSpec([
            (_objects(b, p, l, 1.5, object_size=160), 2.0),
            (_gather(b + (1 << 28), p + 0x300, l, 0.3), 1.0),
        ])),
    )
    add(
        "bzip2",
        seg("p0", 0.7, lambda b, p, l: PhaseSpec([
            (_thrash(b, p, l, 1.3, write_ratio=0.3), 3.0),
            (_hotcold(b + (1 << 29), p + 0x100, l, 0.05, 1.0, hot_prob=0.85), 2.0),
        ])),
        seg("p1", 0.3, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 0.4, stride=64, write_ratio=0.4), 1.0),
        ])),
    )
    add(
        "gcc",
        seg("p0", 0.4, lambda b, p, l: PhaseSpec([
            (_objects(b, p, l, 2.0, object_size=128,
                      fields=(0, 8, 16, 40, 56)), 4.0),
            (_chase(b + (1 << 29), p + 0x100, l, 0.8, payload_fields=1), 1.5),
            (_stack(b + (1 << 30), p + 0x200, l), 1.0),
        ])),
        seg("p1", 0.35, lambda b, p, l: PhaseSpec([
            (_objects(b, p, l, 4.0, object_size=192,
                      fields=(0, 24, 48, 88, 120)), 3.0),
            (_scan(b + (1 << 29), p + 0x300, l, 3.0), 1.0),
        ])),
        seg("p2", 0.25, lambda b, p, l: PhaseSpec([
            (_objects(b, p, l, 0.3, object_size=96), 2.0),
            (_gather(b + (1 << 28), p + 0x400, l, 0.5), 1.0),
        ])),
    )
    add(
        "mcf",
        seg("p0", 0.5, lambda b, p, l: PhaseSpec([
            (_chase(b, p, l, 2.5, payload_fields=2), 4.0),
            (_thrash(b + (1 << 31), p + 0x100, l, 1.8), 1.5),
        ])),
        seg("p1", 0.5, lambda b, p, l: PhaseSpec([
            (_chase(b, p, l, 4.0, payload_fields=1), 3.0),
            (_hotcold(b + (1 << 31), p + 0x200, l, 0.2, 4.0, hot_prob=0.5), 2.0),
        ])),
    )
    add(
        "gobmk",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_stack(b, p, l, max_depth_bytes=32 * 1024), 3.0),
            (_hotcold(b + (1 << 28), p + 0x100, l, 0.15, 0.8, hot_prob=0.75), 2.0),
            (_bursty(b + (1 << 29), p + 0x200, l, 0.2), 1.0),
        ])),
    )
    add(
        "hmmer",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 0.2, stride=64), 3.0),
            (_bursty(b + (1 << 28), p + 0x100, l, 0.05, burst_lo=3, burst_hi=8), 2.0),
        ])),
    )
    add(
        "sjeng",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_gather(b, p, l, 2.5, write_ratio=0.2), 2.0),
            (_stack(b + (1 << 28), p + 0x100, l), 2.0),
            (_hotcold(b + (1 << 29), p + 0x200, l, 0.1, 1.5, hot_prob=0.6), 1.0),
        ])),
    )
    add(
        "libquantum",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 8.0, stride=64, write_ratio=0.5,
                   pc_count=2, gap_lo=1, gap_hi=4), 1.0),
        ])),
    )
    add(
        "h264ref",
        seg("p0", 0.6, lambda b, p, l: PhaseSpec([
            (_bursty(b, p, l, 0.6, burst_lo=3, burst_hi=7), 3.0),
            (_scan(b + (1 << 28), p + 0x100, l, 0.8, stride=16), 2.0),
        ])),
        seg("p1", 0.4, lambda b, p, l: PhaseSpec([
            (_bursty(b, p, l, 1.2, burst_lo=2, burst_hi=5), 2.0),
            (_gather(b + (1 << 28), p + 0x200, l, 0.4), 1.0),
        ])),
    )
    add(
        "omnetpp",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_chase(b, p, l, 2.0, payload_fields=2, node_size=128), 3.0),
            (_objects(b + (1 << 30), p + 0x100, l, 2.0), 1.5),
            (_thrash(b + (1 << 31), p + 0x200, l, 1.4), 1.0),
        ])),
    )
    add(
        "astar",
        seg("p0", 0.5, lambda b, p, l: PhaseSpec([
            (_chase(b, p, l, 1.5, payload_fields=1), 3.0),
            (_thrash(b + (1 << 29), p + 0x100, l, 1.2), 1.0),
        ])),
        seg("p1", 0.5, lambda b, p, l: PhaseSpec([
            (_chase(b, p, l, 2.5), 2.0),
            (_gather(b + (1 << 29), p + 0x200, l, 1.0), 1.0),
        ])),
    )
    add(
        "xalancbmk",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_chase(b, p, l, 1.5, payload_fields=3, node_size=96), 3.0),
            (_objects(b + (1 << 29), p + 0x100, l, 1.0, object_size=64,
                      fields=(0, 8, 16, 32)), 2.0),
            (_thrash(b + (1 << 30), p + 0x200, l, 1.3), 1.0),
        ])),
    )

    # -- SPEC CPU 2006 floating-point analogs --------------------------
    add(
        "bwaves",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 6.0, stride=64, pc_count=3), 3.0),
            (_scan(b + (1 << 31), p + 0x100, l, 6.0, stride=128, pc_count=3), 1.0),
        ])),
    )
    add(
        "gamess",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 0.15, stride=64), 3.0),
            (_bursty(b + (1 << 28), p + 0x100, l, 0.05), 1.0),
        ])),
    )
    add(
        "milc",
        seg("p0", 0.6, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 4.0, stride=64, write_ratio=0.4), 2.0),
            (_gather(b + (1 << 31), p + 0x100, l, 3.0), 1.0),
        ])),
        seg("p1", 0.4, lambda b, p, l: PhaseSpec([
            (_thrash(b, p, l, 1.8), 1.0),
        ])),
    )
    add(
        "zeusmp",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_thrash(b, p, l, 1.9), 2.0),
            (_scan(b + (1 << 30), p + 0x100, l, 0.3, stride=64), 1.0),
        ])),
    )
    add(
        "gromacs",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_hotcold(b, p, l, 0.2, 1.2, hot_prob=0.7), 2.0),
            (_scan(b + (1 << 29), p + 0x100, l, 0.6, stride=32), 1.0),
        ])),
    )
    add(
        "cactusADM",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_thrash(b, p, l, 2.2, write_ratio=0.35), 3.0),
            (_hotcold(b + (1 << 31), p + 0x100, l, 0.08, 2.0, hot_prob=0.65), 1.0),
        ])),
    )
    add(
        "leslie3d",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 2.8, stride=64), 2.0),
            (_thrash(b + (1 << 30), p + 0x100, l, 1.4, write_ratio=0.5), 1.0),
        ])),
    )
    add(
        "namd",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_hotcold(b, p, l, 0.25, 0.8, hot_prob=0.8), 2.0),
            (_bursty(b + (1 << 28), p + 0x100, l, 0.1), 1.0),
        ])),
    )
    add(
        "dealII",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_objects(b, p, l, 1.2, object_size=256,
                      fields=(0, 16, 64, 128, 192)), 2.0),
            (_chase(b + (1 << 30), p + 0x100, l, 0.7), 1.0),
        ])),
    )
    add(
        "soplex",
        seg("p0", 0.5, lambda b, p, l: PhaseSpec([
            (_hotcold(b, p, l, 0.3, 4.0, hot_prob=0.6), 3.0),
            (_thrash(b + (1 << 31), p + 0x100, l, 1.6), 1.5),
        ])),
        seg("p1", 0.5, lambda b, p, l: PhaseSpec([
            (_gather(b, p, l, 1.6, write_ratio=0.1), 2.0),
            (_thrash(b + (1 << 31), p + 0x200, l, 1.3), 1.0),
        ])),
    )
    add(
        "povray",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_stack(b, p, l, max_depth_bytes=24 * 1024), 2.0),
            (_hotcold(b + (1 << 28), p + 0x100, l, 0.12, 0.5, hot_prob=0.85), 2.0),
        ])),
    )
    add(
        "calculix",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 0.8, stride=64), 2.0),
            (_gather(b + (1 << 29), p + 0x100, l, 0.6), 1.0),
        ])),
    )
    add(
        "GemsFDTD",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 4.5, stride=64), 2.0),
            (_thrash(b + (1 << 31), p + 0x100, l, 1.7), 1.0),
        ])),
    )
    add(
        "tonto",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_objects(b, p, l, 0.6, object_size=192), 2.0),
            (_bursty(b + (1 << 28), p + 0x100, l, 0.15), 1.0),
        ])),
    )
    add(
        "lbm",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 7.0, stride=64, write_ratio=0.5,
                   pc_count=2, gap_lo=1, gap_hi=3), 1.0),
        ])),
    )
    add(
        "wrf",
        seg("p0", 0.6, lambda b, p, l: PhaseSpec([
            (_thrash(b, p, l, 1.5), 2.0),
            (_hotcold(b + (1 << 30), p + 0x100, l, 0.15, 1.5, hot_prob=0.7), 1.0),
        ])),
        seg("p1", 0.4, lambda b, p, l: PhaseSpec([
            (_scan(b, p, l, 2.4, stride=128), 1.0),
            (_objects(b + (1 << 30), p + 0x200, l, 0.8), 1.0),
        ])),
    )
    add(
        "sphinx3",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_hotcold(b, p, l, 0.35, 3.0, hot_prob=0.55), 2.0),
            (_thrash(b + (1 << 31), p + 0x100, l, 1.3), 1.5),
        ])),
    )

    # -- CloudSuite analogs ---------------------------------------------
    add(
        "data_caching",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_hotcold(b, p, l, 0.5, 12.0, hot_prob=0.65,
                      write_ratio=0.15), 3.0),
            (_gather(b + (1 << 32), p + 0x100, l, 8.0), 1.0),
        ])),
    )
    add(
        "graph_analytics",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_chase(b, p, l, 3.0, payload_fields=1), 2.0),
            (_thrash(b + (1 << 32), p + 0x100, l, 2.0), 1.5),
            (_gather(b + (1 << 33), p + 0x200, l, 4.0), 1.0),
        ])),
    )
    add(
        "sat_solver",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_chase(b, p, l, 2.0, payload_fields=2), 2.0),
            (_hotcold(b + (1 << 31), p + 0x100, l, 0.2, 5.0, hot_prob=0.6), 2.0),
            (_stack(b + (1 << 32), p + 0x200, l), 1.0),
        ])),
    )
    add(
        "mlpack_cf",
        seg("p0", 1.0, lambda b, p, l: PhaseSpec([
            (_thrash(b, p, l, 1.6), 2.0),
            (_gather(b + (1 << 31), p + 0x100, l, 1.5), 1.5),
            (_hotcold(b + (1 << 32), p + 0x200, l, 0.1, 1.0, hot_prob=0.7), 1.0),
        ])),
    )

    return benchmarks


_SUITE: List[BenchmarkSpec] = _suite()
_BY_NAME: Dict[str, BenchmarkSpec] = {spec.name: spec for spec in _SUITE}


def benchmark_names() -> List[str]:
    """Names of all 33 benchmarks, in suite order."""
    return [spec.name for spec in _SUITE]


def get_benchmark(name: str) -> BenchmarkSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; see benchmark_names()") from None


def segment_names(name: str) -> List[str]:
    """Qualified segment names (``bench.pN``) without building traces.

    The graph planner enumerates a cell's Stage-1 artifact nodes from
    these — the names are static registry data, so planning never pays
    trace synthesis.  Must mirror the names ``build_segments`` gives
    the materialized segments.
    """
    return [f"{name}.{seg.name}" for seg in get_benchmark(name).segments]


def build_segments(
    name: str, llc_bytes: int, accesses: int, seed: int = 2017
) -> List[Segment]:
    """Materialize a benchmark's weighted segments as traces."""
    spec = get_benchmark(name)
    index = benchmark_names().index(name)
    base = (index + 1) << 40
    pc_base = 0x400000 + index * 0x40000
    segments: List[Segment] = []
    for si, seg_spec in enumerate(spec.segments):
        phase = seg_spec.builder(base, pc_base, llc_bytes)
        columns = compose(phase, accesses, seed ^ (index * 131 + si * 17))
        trace = Trace(f"{name}.{seg_spec.name}", *columns)
        segments.append(Segment(f"{name}.{seg_spec.name}", trace, seg_spec.weight))
    return segments


def build_suite(
    llc_bytes: int, accesses: int, seed: int = 2017, names: Sequence[str] = ()
) -> Dict[str, List[Segment]]:
    """Materialize the whole suite (or a named subset)."""
    selected = list(names) if names else benchmark_names()
    return {
        name: build_segments(name, llc_bytes, accesses, seed) for name in selected
    }


def all_segments(
    llc_bytes: int, accesses: int, seed: int = 2017, names: Sequence[str] = ()
) -> List[Segment]:
    """Flatten the suite into the paper's '99 segments' analog."""
    suite = build_suite(llc_bytes, accesses, seed, names)
    return [segment for name in sorted(suite) for segment in suite[name]]
