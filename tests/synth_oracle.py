"""Reference trace synthesis: one tuple per access, one draw per call.

These are the kernels :mod:`repro.traces.synth` writes into columns,
in their readable form: each is a generator yielding ``(pc, address,
is_write, gap)`` tuples (a pointer chase's header loads carry a fifth
``True``, the dependence flag), drawing every bounded integer with
``rng.randrange``.  :func:`compose` pulls one tuple per access and
:func:`build_segments` / :func:`build_holdout_segments` turn the tuples
into traces through :meth:`Trace.from_accesses`.  They read the same
kernel dataclasses and suite recipes as the fast path, so the tests
hold every synthesized trace equal to this model column by column.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Tuple

from repro.traces import holdout, workloads
from repro.traces.synth import (
    BLOCK,
    BurstyAccess,
    GatherScatter,
    HotCold,
    ObjectWalk,
    PhaseSpec,
    PointerChase,
    RegionScan,
    ShuffledLoop,
    StackChurn,
)
from repro.traces.trace import Segment, Trace

AccessTuple = Tuple
KernelStream = Iterator[AccessTuple]


def _pcs(base: int, count: int) -> List[int]:
    return [base + 4 * i for i in range(count)]


def region_scan(k: RegionScan, rng: random.Random) -> KernelStream:
    pcs = _pcs(k.pc_base, k.pc_count)
    offset = rng.randrange(0, max(1, k.size // k.stride)) * k.stride
    i = 0
    while True:
        addr = k.base + (offset % k.size)
        pc = pcs[i % len(pcs)]
        yield pc, addr, rng.random() < k.write_ratio, \
            rng.randrange(k.gap_lo, k.gap_hi + 1)
        offset += k.stride
        i += 1


def pointer_chase(k: PointerChase, rng: random.Random) -> KernelStream:
    order = list(range(k.nodes))
    random.Random(0xC0FFEE ^ k.base).shuffle(order)
    next_node = {order[i]: order[(i + 1) % k.nodes] for i in range(k.nodes)}
    pcs = _pcs(k.pc_base, 1 + k.payload_fields)
    node = order[0]
    while True:
        yield (pcs[0], k.base + node * k.node_size, False,
               rng.randrange(k.gap_lo, k.gap_hi + 1), True)
        for f in range(k.payload_fields):
            yield (pcs[1 + f], k.base + node * k.node_size + 8 * (f + 1),
                   False, rng.randrange(k.gap_lo, k.gap_hi + 1))
        node = next_node[node]


def shuffled_loop(k: ShuffledLoop, rng: random.Random) -> KernelStream:
    blocks = max(2, k.size // BLOCK)
    order = list(range(blocks))
    random.Random(0x5EED ^ k.base).shuffle(order)
    pcs = _pcs(k.pc_base, k.pc_count)
    cursor = rng.randrange(blocks)
    while True:
        block_base = k.base + order[cursor % blocks] * BLOCK
        cursor += 1
        for t in range(1 + rng.randrange(k.touches_per_block)):
            yield (pcs[(cursor + t) % k.pc_count],
                   block_base + rng.randrange(8) * 8,
                   rng.random() < k.write_ratio,
                   rng.randrange(k.gap_lo, k.gap_hi + 1))


def hot_cold(k: HotCold, rng: random.Random) -> KernelStream:
    hot_blocks = max(1, k.hot_size // BLOCK)
    cold_blocks = max(1, k.cold_size // BLOCK)
    pcs = _pcs(k.pc_base, 2)
    cold_cursor = 0
    while True:
        if rng.random() < k.hot_prob:
            block_base = k.hot_base + rng.randrange(hot_blocks) * BLOCK
            for _ in range(1 + rng.randrange(2)):
                yield (pcs[0], block_base + rng.randrange(8) * 8,
                       rng.random() < k.write_ratio,
                       rng.randrange(k.gap_lo, k.gap_hi + 1))
        else:
            addr = k.cold_base + (cold_cursor % cold_blocks) * BLOCK
            cold_cursor += 1
            yield (pcs[1], addr, rng.random() < k.write_ratio,
                   rng.randrange(k.gap_lo, k.gap_hi + 1))


def object_walk(k: ObjectWalk, rng: random.Random) -> KernelStream:
    pcs = _pcs(k.pc_base, len(k.fields))
    hot_objects = max(1, int(k.objects * k.hot_fraction))
    while True:
        if rng.random() < k.hot_prob:
            obj = rng.randrange(hot_objects)
        else:
            obj = rng.randrange(k.objects)
        obj_base = k.base + obj * k.object_size
        for f in range(1 + rng.randrange(len(k.fields))):
            yield (pcs[f], obj_base + k.fields[f],
                   rng.random() < k.write_ratio,
                   rng.randrange(k.gap_lo, k.gap_hi + 1))


def bursty_access(k: BurstyAccess, rng: random.Random) -> KernelStream:
    pcs = _pcs(k.pc_base, 3)
    recent: List[int] = []
    while True:
        if recent and rng.random() < k.revisit_prob:
            blk = recent[rng.randrange(len(recent))]
        else:
            blk = rng.randrange(k.blocks)
        recent.append(blk)
        if len(recent) > 16:
            recent.pop(0)
        addr = k.base + blk * BLOCK
        for i in range(rng.randrange(k.burst_lo, k.burst_hi + 1)):
            yield (pcs[min(i, 2)], addr + 8 * i, False,
                   rng.randrange(k.gap_lo, k.gap_hi + 1))


def gather_scatter(k: GatherScatter, rng: random.Random) -> KernelStream:
    blocks = max(1, k.size // BLOCK)
    pcs = _pcs(k.pc_base, 2)
    while True:
        block_base = k.base + rng.randrange(blocks) * BLOCK
        for _ in range(1 + rng.randrange(3)):
            addr = block_base + rng.randrange(8) * 8
            write = rng.random() < k.write_ratio
            yield pcs[int(write)], addr, write, \
                rng.randrange(k.gap_lo, k.gap_hi + 1)


def stack_churn(k: StackChurn, rng: random.Random) -> KernelStream:
    pcs = _pcs(k.pc_base, 2)
    max_frames = max(2, k.max_depth_bytes // k.frame_bytes)
    depth = 1
    while True:
        if depth <= 1 or (depth < max_frames and rng.random() < 0.55):
            yield (pcs[0], k.base + depth * k.frame_bytes, True,
                   rng.randrange(k.gap_lo, k.gap_hi + 1))
            depth += 1
        else:
            depth -= 1
            yield (pcs[1], k.base + depth * k.frame_bytes, False,
                   rng.randrange(k.gap_lo, k.gap_hi + 1))


KERNELS: Dict[type, Callable[..., KernelStream]] = {
    RegionScan: region_scan,
    PointerChase: pointer_chase,
    ShuffledLoop: shuffled_loop,
    HotCold: hot_cold,
    ObjectWalk: object_walk,
    BurstyAccess: bursty_access,
    GatherScatter: gather_scatter,
    StackChurn: stack_churn,
}


def stream(kernel, rng: random.Random) -> KernelStream:
    """The reference tuple stream of one kernel dataclass."""
    return KERNELS[type(kernel)](kernel, rng)


def compose(spec: PhaseSpec, count: int, seed: int) -> List[AccessTuple]:
    """``count`` access tuples from a phase specification."""
    rng = random.Random(seed)
    streams = [stream(kernel, random.Random(seed ^ (0x9E37 + 31 * i)))
               for i, (kernel, _) in enumerate(spec.kernels)]
    weights = [w for _, w in spec.kernels]
    out: List[AccessTuple] = []
    if len(streams) == 1:
        out.extend(next(streams[0]) for _ in range(count))
        return out
    indices = list(range(len(streams)))
    produced = 0
    while produced < count:
        chosen = streams[rng.choices(indices, weights)[0]]
        take = min(spec.run_length, count - produced)
        out.extend(next(chosen) for _ in range(take))
        produced += take
    return out


def build_segments(name: str, llc_bytes: int, accesses: int,
                   seed: int = 2017) -> List[Segment]:
    """:func:`repro.traces.workloads.build_segments` through tuples."""
    spec = workloads.get_benchmark(name)
    index = workloads.benchmark_names().index(name)
    base = (index + 1) << 40
    pc_base = 0x400000 + index * 0x40000
    segments: List[Segment] = []
    for si, seg_spec in enumerate(spec.segments):
        phase = seg_spec.builder(base, pc_base, llc_bytes)
        tuples = compose(phase, accesses, seed ^ (index * 131 + si * 17))
        qualified = f"{name}.{seg_spec.name}"
        segments.append(Segment(qualified,
                                Trace.from_accesses(qualified, tuples),
                                seg_spec.weight))
    return segments


def build_holdout_segments(name: str, llc_bytes: int, accesses: int,
                           seed: int = 20170) -> List[Segment]:
    """:func:`repro.traces.holdout.build_holdout_segments` through
    tuples."""
    index = holdout.holdout_names().index(name)
    base = holdout._HOLDOUT_BASE + (index << 36)
    pc_base = holdout._HOLDOUT_PC + index * 0x40000
    phase = holdout._builders()[name](base, pc_base, llc_bytes)
    tuples = compose(phase, accesses, seed ^ (index * 977))
    trace = Trace.from_accesses(f"{name}.p0", tuples)
    return [Segment(f"{name}.p0", trace, 1.0)]
