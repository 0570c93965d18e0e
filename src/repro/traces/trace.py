"""Memory-access trace model.

The paper's simulator is trace driven: each record is a memory access
instruction identified by its program counter, touching a physical
address, separated from the previous memory instruction by some number
of non-memory instructions.  ``Trace`` stores these as five read-only
numpy columns and knows its total retired instruction count, which
MPKI reporting needs (Section 4.5).  A column costs 8 bytes per access
or less, where a list of Python ints costs about 40; each per-access
loop converts the columns it reads to lists at its own entry (a
``list`` subscript beats a numpy scalar in a bytecode loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class MemoryAccess:
    """A single memory access instruction.

    Attributes:
        pc: program counter of the memory instruction.
        address: byte address accessed.
        is_write: True for stores.
        instr_index: index of this instruction in program order
            (counting both memory and non-memory instructions).
        depends: True when this load's address depends on the previous
            load's result (pointer chasing) — it cannot issue until
            that load completes, which is what limits memory-level
            parallelism in linked-data-structure code.
    """

    pc: int
    address: int
    is_write: bool
    instr_index: int
    depends: bool = False


def _column(values: Sequence, dtype: type) -> np.ndarray:
    """``values`` as a read-only ``dtype`` column: a view of an array
    of that dtype, else a converted copy."""
    if isinstance(values, np.ndarray) and values.dtype == dtype:
        column = values.view()
    else:
        column = np.fromiter(values, dtype=dtype, count=len(values))
    column.flags.writeable = False
    return column


class Trace:
    """An immutable sequence of memory accesses with instruction gaps.

    ``gaps[i]`` is the number of non-memory instructions retired between
    memory instruction ``i-1`` and memory instruction ``i`` (for i == 0,
    before the first memory instruction).

    The five fields are read-only numpy columns: ``pcs`` and
    ``addresses`` are ``uint64`` (real traces carry kernel-space PCs
    >= 2**63), ``writes`` and ``deps`` are ``bool`` and ``gaps`` is
    ``int64``.  An array argument of its column's dtype is taken as a
    read-only view, not copied: the artifact decoder hands over views
    of the blob (:func:`~repro.exec.artifacts.unpack_segments`) and
    :meth:`slice` views of its own columns.  Any other sequence (the
    lists of :func:`~repro.traces.synth.compose`, the trace readers,
    :meth:`from_accesses`) is converted once, here.
    """

    __slots__ = ("name", "pcs", "addresses", "writes", "gaps", "deps",
                 "_instr_total")

    def __init__(
        self,
        name: str,
        pcs: Sequence[int],
        addresses: Sequence[int],
        writes: Sequence[bool],
        gaps: Sequence[int],
        deps: Sequence[bool] = (),
    ) -> None:
        n = len(pcs)
        if not (len(addresses) == len(writes) == len(gaps) == n):
            raise ValueError("trace field lengths differ")
        if len(deps) != 0 and len(deps) != n:
            raise ValueError("trace field lengths differ")
        self.name = name
        self.pcs = _column(pcs, np.uint64)
        self.addresses = _column(addresses, np.uint64)
        self.writes = _column(writes, np.bool_)
        self.gaps = _column(gaps, np.int64)
        if n and self.gaps.min() < 0:
            raise ValueError("instruction gap must be non-negative")
        self.deps = _column(deps if len(deps) else np.zeros(n, np.bool_),
                            np.bool_)
        self._instr_total = int(self.gaps.sum()) + n

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def num_instructions(self) -> int:
        """Total retired instructions (memory plus non-memory)."""
        return self._instr_total

    def __iter__(self) -> Iterator[MemoryAccess]:
        index = -1
        for pc, addr, write, gap, dep in zip(
            self.pcs.tolist(), self.addresses.tolist(), self.writes.tolist(),
            self.gaps.tolist(), self.deps.tolist()
        ):
            index += gap + 1
            yield MemoryAccess(pc, addr, write, index, dep)

    def slice(self, start: int, stop: int) -> "Trace":
        """Return accesses [start, stop) as a new trace over views of
        this one's columns."""
        return Trace(
            f"{self.name}[{start}:{stop}]",
            self.pcs[start:stop],
            self.addresses[start:stop],
            self.writes[start:stop],
            self.gaps[start:stop],
            self.deps[start:stop],
        )

    @classmethod
    def from_accesses(cls, name: str, accesses: Iterable[Tuple]) -> "Trace":
        """Build a trace from (pc, address, is_write, gap[, depends]) tuples."""
        pcs: List[int] = []
        addresses: List[int] = []
        writes: List[bool] = []
        gaps: List[int] = []
        deps: List[bool] = []
        for record in accesses:
            pc, addr, write, gap = record[:4]
            pcs.append(pc)
            addresses.append(addr)
            writes.append(write)
            gaps.append(gap)
            deps.append(bool(record[4]) if len(record) > 4 else False)
        return cls(name, pcs, addresses, writes, gaps, deps)


@dataclass(frozen=True)
class Segment:
    """A weighted program phase, the reproduction's analog of a simpoint.

    The paper identifies up to six one-billion-instruction SimPoint
    segments per benchmark and reports each benchmark as the weighted
    average of its segments (Section 4.2).
    """

    name: str
    trace: Trace
    weight: float

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError("segment weight must be positive")
