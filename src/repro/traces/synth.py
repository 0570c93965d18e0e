"""Composable synthetic access-pattern kernels.

The paper evaluates on SPEC CPU 2006, CloudSuite, and mlpack traces
(Section 4.2), which are unavailable here.  Instead, workloads are
composed from the kernels below, each of which isolates one of the
locality behaviors the paper's seven feature families key on
(Section 3.2):

* ``RegionScan`` — streaming or looping over a region; dead-on-arrival
  blocks when the region exceeds the LLC (pc / bias features).
* ``PointerChase`` — permutation chasing with reuse distance equal to
  the node count (address / bias features).
* ``HotCold`` — a small hot set embedded in a large cold region
  (address feature, hot/cold set pressure for lastmiss).
* ``ObjectWalk`` — per-object field dereferencing with field-specific
  PCs and offsets (offset feature; gcc-style behavior, Section 6.4).
* ``BurstyAccess`` — repeated back-to-back touches of an MRU block
  (burst feature).
* ``GatherScatter`` — uniform random access (stress, low locality).
* ``StackChurn`` — LIFO push/pop reuse with writes (insert feature:
  newly inserted blocks behave differently from re-referenced ones).

**Column writers.**  A kernel is a frozen dataclass — the suite's
recipe — whose :meth:`writer` is a generator that appends accesses
straight into five column lists ``(pcs, addresses, writes, gaps,
deps)`` and suspends only when its run budget is spent::

    writer = kernel.writer(rng, columns)
    next(writer)          # start it; nothing is drawn yet
    writer.send(take)     # append exactly ``take`` accesses, suspend

A run can end anywhere: inside an object's field walk, a burst, a hot
block's touches, a shuffled block's touches or a pointer chase's
payload.  The generator frame keeps that state, so the next ``send``
resumes mid-loop.  :func:`compose` resumes the chosen kernel once per
run of a :class:`PhaseSpec` and returns the columns, which
:class:`~repro.traces.trace.Trace` adopts without a copy.

**Inlined draws.**  Every bounded integer draw is written out as::

    r = getrandbits(k)          # k = n.bit_length()
    while r >= n:
        r = getrandbits(k)

with ``k`` hoisted wherever ``n`` is constant (every gap draw).  This
is CPython's ``Random._randbelow_with_getrandbits`` on Python
3.10–3.12, which ``randrange(n)`` calls, and ``randrange(lo, hi)`` is
``lo + _randbelow(hi - lo)``.  So each kernel consumes the same random
bits in the same order as one calling ``randrange`` and writes the
same trace.  ``random()``, ``choices`` and ``shuffle`` stay calls.

**Reference.**  ``tests/synth_oracle.py`` keeps the readable form of
every kernel: a generator yielding one ``(pc, address, is_write, gap)``
tuple per access through ``rng.randrange``, composed one tuple at a
time and turned into traces by :meth:`Trace.from_accesses`.  The tests
hold this module equal to it column by column, and pin a hash of the
whole suite's traces.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Generator, List, Sequence, Tuple, Union

#: The five trace columns a writer appends to, in
#: :class:`~repro.traces.trace.Trace` argument order.
Columns = Tuple[List[int], List[int], List[bool], List[int], List[bool]]
#: A suspended column writer: ``send(take)`` appends ``take`` accesses.
Writer = Generator[None, int, None]

BLOCK = 64


def _pcs(base: int, count: int) -> List[int]:
    """A bank of distinct, 4-byte-aligned instruction addresses."""
    return [base + 4 * i for i in range(count)]


def _randbelow(getrandbits: Callable[[int], int], n: int) -> int:
    """``rng.randrange(n)`` for a one-off draw (same bits, same value)."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _require(kernel: object, ok: bool, rule: str) -> None:
    if not ok:
        raise ValueError(f"{type(kernel).__name__}: {rule}")


def _check_gaps(kernel) -> None:
    """Gaps are drawn from ``gap_lo..gap_hi``: non-empty, never negative."""
    _require(kernel, 0 <= kernel.gap_lo <= kernel.gap_hi,
             f"need 0 <= gap_lo <= gap_hi, got gap_lo={kernel.gap_lo} "
             f"gap_hi={kernel.gap_hi}")


@dataclass(frozen=True)
class RegionScan:
    """Repeatedly scan ``size`` bytes from ``base`` with ``stride``.

    With ``size`` much larger than the LLC every block is dead on
    arrival; with ``size`` below LLC capacity every block is live.
    """

    base: int
    size: int
    stride: int = 16  # word-granular: several touches per 64 B block
    pc_base: int = 0x400000
    pc_count: int = 4
    write_ratio: float = 0.1
    gap_lo: int = 2
    gap_hi: int = 8

    def __post_init__(self) -> None:
        _check_gaps(self)

    def writer(self, rng: random.Random, out: Columns) -> Writer:
        take = yield
        pc_out, addr_out, write_out, gap_out, dep_out = [c.append for c in out]
        getrandbits = rng.getrandbits
        random01 = rng.random
        pcs = _pcs(self.pc_base, self.pc_count)
        pc_count = len(pcs)
        size, stride, base = self.size, self.stride, self.base
        write_ratio = self.write_ratio
        gap_lo = self.gap_lo
        gap_n = self.gap_hi + 1 - gap_lo
        gap_k = gap_n.bit_length()
        offset = _randbelow(getrandbits, max(1, size // stride)) * stride
        i = 0
        while True:
            pc_out(pcs[i % pc_count])
            addr_out(base + offset % size)
            write_out(random01() < write_ratio)
            gap = getrandbits(gap_k)
            while gap >= gap_n:
                gap = getrandbits(gap_k)
            gap_out(gap_lo + gap)
            dep_out(False)
            offset += stride
            i += 1
            take -= 1
            if not take:
                take = yield


@dataclass(frozen=True)
class PointerChase:
    """Chase a fixed random permutation of ``nodes`` node headers."""

    base: int
    nodes: int
    node_size: int = 64
    pc_base: int = 0x410000
    payload_fields: int = 0
    gap_lo: int = 4
    gap_hi: int = 12

    def __post_init__(self) -> None:
        _require(self, self.nodes >= 1, f"need nodes >= 1, got {self.nodes}")
        _check_gaps(self)

    def writer(self, rng: random.Random, out: Columns) -> Writer:
        take = yield
        pc_out, addr_out, write_out, gap_out, dep_out = [c.append for c in out]
        getrandbits = rng.getrandbits
        order = list(range(self.nodes))
        random.Random(0xC0FFEE ^ self.base).shuffle(order)
        next_node = {order[i]: order[(i + 1) % self.nodes]
                     for i in range(self.nodes)}
        header_pc, *payload_pcs = _pcs(self.pc_base, 1 + self.payload_fields)
        # (pc, byte offset in the node) of each payload field.
        payload = [(pc, 8 * (f + 1)) for f, pc in enumerate(payload_pcs)]
        base, node_size = self.base, self.node_size
        gap_lo = self.gap_lo
        gap_n = self.gap_hi + 1 - gap_lo
        gap_k = gap_n.bit_length()
        node = order[0]
        while True:
            node_base = base + node * node_size
            # The header load is address-dependent on the previous
            # header load — the defining serialization of pointer
            # chasing, which caps its memory-level parallelism at 1.
            pc_out(header_pc)
            addr_out(node_base)
            write_out(False)
            gap = getrandbits(gap_k)
            while gap >= gap_n:
                gap = getrandbits(gap_k)
            gap_out(gap_lo + gap)
            dep_out(True)
            take -= 1
            if not take:
                take = yield
            for pc, offset in payload:
                pc_out(pc)
                addr_out(node_base + offset)
                write_out(False)
                gap = getrandbits(gap_k)
                while gap >= gap_n:
                    gap = getrandbits(gap_k)
                gap_out(gap_lo + gap)
                dep_out(False)
                take -= 1
                if not take:
                    take = yield
            node = next_node[node]


@dataclass(frozen=True)
class ShuffledLoop:
    """Cyclic loop over a fixed *shuffled* order of blocks.

    The canonical irregular working set (mcf-style): every pass touches
    the same blocks in the same shuffled order, so the reuse distance
    of every block equals the loop size, LRU hits nothing when the loop
    exceeds the cache, and a stream prefetcher sees no sequential
    pattern to latch onto.  Belady's MIN — and a good reuse predictor
    driving bypass — pins a subset of the loop and hits on it every
    pass.
    """

    base: int
    size: int
    pc_base: int = 0x470000
    pc_count: int = 4
    write_ratio: float = 0.05
    touches_per_block: int = 2
    gap_lo: int = 2
    gap_hi: int = 8

    def __post_init__(self) -> None:
        _require(self, self.touches_per_block >= 1,
                 f"need touches_per_block >= 1, got {self.touches_per_block}")
        _check_gaps(self)

    def writer(self, rng: random.Random, out: Columns) -> Writer:
        take = yield
        pc_out, addr_out, write_out, gap_out, dep_out = [c.append for c in out]
        getrandbits = rng.getrandbits
        random01 = rng.random
        blocks = max(2, self.size // BLOCK)
        order = list(range(blocks))
        random.Random(0x5EED ^ self.base).shuffle(order)
        pcs = _pcs(self.pc_base, self.pc_count)
        pc_count, base = self.pc_count, self.base
        write_ratio = self.write_ratio
        touch_n = self.touches_per_block
        touch_k = touch_n.bit_length()
        gap_lo = self.gap_lo
        gap_n = self.gap_hi + 1 - gap_lo
        gap_k = gap_n.bit_length()
        cursor = _randbelow(getrandbits, blocks)
        while True:
            block_base = base + order[cursor % blocks] * BLOCK
            cursor += 1
            touches = getrandbits(touch_k)
            while touches >= touch_n:
                touches = getrandbits(touch_k)
            for t in range(1 + touches):
                pc_out(pcs[(cursor + t) % pc_count])
                word = getrandbits(4)
                while word >= 8:
                    word = getrandbits(4)
                addr_out(block_base + word * 8)
                write_out(random01() < write_ratio)
                gap = getrandbits(gap_k)
                while gap >= gap_n:
                    gap = getrandbits(gap_k)
                gap_out(gap_lo + gap)
                dep_out(False)
                take -= 1
                if not take:
                    take = yield


@dataclass(frozen=True)
class HotCold:
    """Mix accesses between a small hot region and a large cold region."""

    hot_base: int
    hot_size: int
    cold_base: int
    cold_size: int
    hot_prob: float = 0.7
    pc_base: int = 0x420000
    write_ratio: float = 0.05
    gap_lo: int = 2
    gap_hi: int = 10

    def __post_init__(self) -> None:
        _check_gaps(self)

    def writer(self, rng: random.Random, out: Columns) -> Writer:
        take = yield
        pc_out, addr_out, write_out, gap_out, dep_out = [c.append for c in out]
        getrandbits = rng.getrandbits
        random01 = rng.random
        hot_blocks = max(1, self.hot_size // BLOCK)
        hot_k = hot_blocks.bit_length()
        cold_blocks = max(1, self.cold_size // BLOCK)
        hot_pc, cold_pc = _pcs(self.pc_base, 2)
        hot_base, cold_base = self.hot_base, self.cold_base
        hot_prob, write_ratio = self.hot_prob, self.write_ratio
        gap_lo = self.gap_lo
        gap_n = self.gap_hi + 1 - gap_lo
        gap_k = gap_n.bit_length()
        cold_cursor = 0
        while True:
            if random01() < hot_prob:
                blk = getrandbits(hot_k)
                while blk >= hot_blocks:
                    blk = getrandbits(hot_k)
                block_base = hot_base + blk * BLOCK
                # Hot data is used, not just touched: a few word reads.
                touches = getrandbits(2)
                while touches >= 2:
                    touches = getrandbits(2)
                for _ in range(1 + touches):
                    pc_out(hot_pc)
                    word = getrandbits(4)
                    while word >= 8:
                        word = getrandbits(4)
                    addr_out(block_base + word * 8)
                    write_out(random01() < write_ratio)
                    gap = getrandbits(gap_k)
                    while gap >= gap_n:
                        gap = getrandbits(gap_k)
                    gap_out(gap_lo + gap)
                    dep_out(False)
                    take -= 1
                    if not take:
                        take = yield
            else:
                # The cold region is scanned, not random: cold blocks are
                # touched once and never again, a canonical dead pattern.
                pc_out(cold_pc)
                addr_out(cold_base + (cold_cursor % cold_blocks) * BLOCK)
                cold_cursor += 1
                write_out(random01() < write_ratio)
                gap = getrandbits(gap_k)
                while gap >= gap_n:
                    gap = getrandbits(gap_k)
                gap_out(gap_lo + gap)
                dep_out(False)
                take -= 1
                if not take:
                    take = yield


@dataclass(frozen=True)
class ObjectWalk:
    """Visit objects and dereference several fields of each.

    Field accesses use field-specific PCs and block offsets, the
    behavior the paper attributes to gcc's heavy field dereferencing
    when explaining the value of the ``offset`` feature (Section 6.4).
    """

    base: int
    objects: int
    object_size: int = 128
    fields: Sequence[int] = (0, 8, 24, 48, 72)
    pc_base: int = 0x430000
    hot_fraction: float = 0.2
    hot_prob: float = 0.6
    write_ratio: float = 0.15
    gap_lo: int = 1
    gap_hi: int = 6

    def __post_init__(self) -> None:
        _require(self, self.objects >= 1,
                 f"need objects >= 1, got {self.objects}")
        _require(self, len(self.fields) >= 1, "need at least one field")
        _check_gaps(self)

    def writer(self, rng: random.Random, out: Columns) -> Writer:
        take = yield
        pc_out, addr_out, write_out, gap_out, dep_out = [c.append for c in out]
        getrandbits = rng.getrandbits
        random01 = rng.random
        # (pc, byte offset in the object) of each field, in walk order.
        fields = tuple(zip(_pcs(self.pc_base, len(self.fields)),
                           self.fields))
        field_n = len(fields)
        field_k = field_n.bit_length()
        objects = self.objects
        objects_k = objects.bit_length()
        hot_objects = max(1, int(objects * self.hot_fraction))
        hot_k = hot_objects.bit_length()
        base, object_size = self.base, self.object_size
        hot_prob, write_ratio = self.hot_prob, self.write_ratio
        gap_lo = self.gap_lo
        gap_n = self.gap_hi + 1 - gap_lo
        gap_k = gap_n.bit_length()
        while True:
            if random01() < hot_prob:
                n, k = hot_objects, hot_k
            else:
                n, k = objects, objects_k
            obj = getrandbits(k)
            while obj >= n:
                obj = getrandbits(k)
            obj_base = base + obj * object_size
            walked = getrandbits(field_k)
            while walked >= field_n:
                walked = getrandbits(field_k)
            for pc, offset in fields[:1 + walked]:
                pc_out(pc)
                addr_out(obj_base + offset)
                write_out(random01() < write_ratio)
                gap = getrandbits(gap_k)
                while gap >= gap_n:
                    gap = getrandbits(gap_k)
                gap_out(gap_lo + gap)
                dep_out(False)
                take -= 1
                if not take:
                    take = yield


@dataclass(frozen=True)
class BurstyAccess:
    """Touch one block several times in a row before moving on.

    Back-to-back accesses to the MRU block are exactly the signal the
    ``burst`` feature captures (cache bursts, Section 3.2).
    """

    base: int
    blocks: int
    burst_lo: int = 2
    burst_hi: int = 6
    pc_base: int = 0x440000
    revisit_prob: float = 0.3
    gap_lo: int = 1
    gap_hi: int = 4

    def __post_init__(self) -> None:
        _require(self, self.blocks >= 1, f"need blocks >= 1, got {self.blocks}")
        _require(self, 1 <= self.burst_lo <= self.burst_hi,
                 f"need 1 <= burst_lo <= burst_hi, got burst_lo="
                 f"{self.burst_lo} burst_hi={self.burst_hi}")
        _check_gaps(self)

    def writer(self, rng: random.Random, out: Columns) -> Writer:
        take = yield
        pc_out, addr_out, write_out, gap_out, dep_out = [c.append for c in out]
        getrandbits = rng.getrandbits
        random01 = rng.random
        pcs = _pcs(self.pc_base, 3)
        # (pc, byte offset) of a burst's i-th touch.
        touches = [(pcs[min(i, 2)], 8 * i) for i in range(self.burst_hi)]
        recent: List[int] = []
        blocks = self.blocks
        blocks_k = blocks.bit_length()
        burst_lo = self.burst_lo
        burst_n = self.burst_hi + 1 - burst_lo
        burst_k = burst_n.bit_length()
        base, revisit_prob = self.base, self.revisit_prob
        gap_lo = self.gap_lo
        gap_n = self.gap_hi + 1 - gap_lo
        gap_k = gap_n.bit_length()
        while True:
            if recent and random01() < revisit_prob:
                n = len(recent)
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                blk = recent[r]
            else:
                blk = getrandbits(blocks_k)
                while blk >= blocks:
                    blk = getrandbits(blocks_k)
            recent.append(blk)
            if len(recent) > 16:
                recent.pop(0)
            addr = base + blk * BLOCK
            burst = getrandbits(burst_k)
            while burst >= burst_n:
                burst = getrandbits(burst_k)
            for pc, offset in touches[:burst_lo + burst]:
                pc_out(pc)
                addr_out(addr + offset)
                write_out(False)
                gap = getrandbits(gap_k)
                while gap >= gap_n:
                    gap = getrandbits(gap_k)
                gap_out(gap_lo + gap)
                dep_out(False)
                take -= 1
                if not take:
                    take = yield


@dataclass(frozen=True)
class GatherScatter:
    """Uniform random accesses over a region (worst-case locality)."""

    base: int
    size: int
    pc_base: int = 0x450000
    write_ratio: float = 0.3
    gap_lo: int = 3
    gap_hi: int = 9

    def __post_init__(self) -> None:
        _check_gaps(self)

    def writer(self, rng: random.Random, out: Columns) -> Writer:
        take = yield
        pc_out, addr_out, write_out, gap_out, dep_out = [c.append for c in out]
        getrandbits = rng.getrandbits
        random01 = rng.random
        blocks = max(1, self.size // BLOCK)
        blocks_k = blocks.bit_length()
        read_pc, write_pc = _pcs(self.pc_base, 2)
        base, write_ratio = self.base, self.write_ratio
        gap_lo = self.gap_lo
        gap_n = self.gap_hi + 1 - gap_lo
        gap_k = gap_n.bit_length()
        while True:
            blk = getrandbits(blocks_k)
            while blk >= blocks:
                blk = getrandbits(blocks_k)
            block_base = base + blk * BLOCK
            # Real gathers touch a couple of words of the fetched block.
            touches = getrandbits(2)
            while touches >= 3:
                touches = getrandbits(2)
            for _ in range(1 + touches):
                word = getrandbits(4)
                while word >= 8:
                    word = getrandbits(4)
                write = random01() < write_ratio
                pc_out(write_pc if write else read_pc)
                addr_out(block_base + word * 8)
                write_out(write)
                gap = getrandbits(gap_k)
                while gap >= gap_n:
                    gap = getrandbits(gap_k)
                gap_out(gap_lo + gap)
                dep_out(False)
                take -= 1
                if not take:
                    take = yield


@dataclass(frozen=True)
class StackChurn:
    """LIFO push/pop traffic: writes on push, reads on pop.

    Freshly inserted blocks are reused almost immediately and then die,
    giving the ``insert`` feature a clean signal.
    """

    base: int
    max_depth_bytes: int = 16 * 1024
    frame_bytes: int = 192
    pc_base: int = 0x460000
    gap_lo: int = 1
    gap_hi: int = 5

    def __post_init__(self) -> None:
        _check_gaps(self)

    def writer(self, rng: random.Random, out: Columns) -> Writer:
        take = yield
        pc_out, addr_out, write_out, gap_out, dep_out = [c.append for c in out]
        getrandbits = rng.getrandbits
        random01 = rng.random
        push_pc, pop_pc = _pcs(self.pc_base, 2)
        max_frames = max(2, self.max_depth_bytes // self.frame_bytes)
        base, frame_bytes = self.base, self.frame_bytes
        gap_lo = self.gap_lo
        gap_n = self.gap_hi + 1 - gap_lo
        gap_k = gap_n.bit_length()
        depth = 1
        while True:
            if depth <= 1 or (depth < max_frames and random01() < 0.55):
                pc_out(push_pc)
                addr_out(base + depth * frame_bytes)
                write_out(True)
                depth += 1
            else:
                depth -= 1
                pc_out(pop_pc)
                addr_out(base + depth * frame_bytes)
                write_out(False)
            gap = getrandbits(gap_k)
            while gap >= gap_n:
                gap = getrandbits(gap_k)
            gap_out(gap_lo + gap)
            dep_out(False)
            take -= 1
            if not take:
                take = yield


KERNEL_TYPES = (RegionScan, PointerChase, ShuffledLoop, HotCold, ObjectWalk,
                BurstyAccess, GatherScatter, StackChurn)
Kernel = Union[KERNEL_TYPES]


@dataclass(frozen=True)
class PhaseSpec:
    """A weighted mixture of kernels, interleaved in short runs.

    ``run_length`` accesses are drawn from one kernel before another is
    (re)selected, producing the phase-local behavior real programs show
    rather than a per-access shuffle.
    """

    kernels: Sequence[Tuple[Kernel, float]]
    run_length: int = 48

    def __post_init__(self) -> None:
        if not self.kernels:
            raise ValueError("PhaseSpec needs at least one kernel")
        for kernel, _ in self.kernels:
            if not isinstance(kernel, KERNEL_TYPES):
                raise TypeError(
                    f"PhaseSpec kernel {kernel!r} is not a synth kernel "
                    f"({', '.join(t.__name__ for t in KERNEL_TYPES)})")
        if any(w <= 0 for _, w in self.kernels):
            raise ValueError("kernel weights must be positive")
        if self.run_length < 1:
            raise ValueError(f"run_length must be >= 1, got {self.run_length}")


def compose(spec: PhaseSpec, count: int, seed: int) -> Columns:
    """``count`` accesses of a phase specification, as five columns.

    Returns fresh ``(pcs, addresses, writes, gaps, deps)`` lists, ready
    to hand to :class:`~repro.traces.trace.Trace`.
    """
    out: Columns = ([], [], [], [], [])
    writers = [kernel.writer(random.Random(seed ^ (0x9E37 + 31 * i)), out)
               for i, (kernel, _) in enumerate(spec.kernels)]
    for writer in writers:
        next(writer)
    if count <= 0:
        return out
    if len(writers) == 1:
        writers[0].send(count)
        return out
    choices = random.Random(seed).choices
    indices = list(range(len(writers)))
    weights = [w for _, w in spec.kernels]
    run_length = spec.run_length
    produced = 0
    while produced < count:
        take = min(run_length, count - produced)
        writers[choices(indices, weights)[0]].send(take)
        produced += take
    return out
