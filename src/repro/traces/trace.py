"""Memory-access trace model.

The paper's simulator is trace driven: each record is a memory access
instruction identified by its program counter, touching a physical
address, separated from the previous memory instruction by some number
of non-memory instructions.  ``Trace`` stores these as parallel lists
(cheap to index in hot simulation loops) and knows its total retired
instruction count, which MPKI reporting needs (Section 4.5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple


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


def _adopt(column: Sequence) -> List:
    return column if type(column) is list else list(column)


class Trace:
    """An immutable sequence of memory accesses with instruction gaps.

    ``gaps[i]`` is the number of non-memory instructions retired between
    memory instruction ``i-1`` and memory instruction ``i`` (for i == 0,
    before the first memory instruction).

    A ``list`` argument is adopted, not copied: the trace takes it over
    and the caller must not change it afterwards.  Every producer
    (:func:`~repro.traces.synth.compose`, the artifact decoder,
    :meth:`slice`, :meth:`from_accesses`) hands over fresh lists.  Any
    other sequence is copied into a list.
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
        self.pcs: List[int] = _adopt(pcs)
        self.addresses: List[int] = _adopt(addresses)
        self.writes: List[bool] = _adopt(writes)
        self.gaps: List[int] = _adopt(gaps)
        if n and min(self.gaps) < 0:
            raise ValueError("instruction gap must be non-negative")
        self.deps: List[bool] = _adopt(deps) if len(deps) else [False] * n
        self._instr_total = sum(self.gaps) + n

    def __len__(self) -> int:
        return len(self.pcs)

    @property
    def num_instructions(self) -> int:
        """Total retired instructions (memory plus non-memory)."""
        return self._instr_total

    def __iter__(self) -> Iterator[MemoryAccess]:
        index = -1
        for pc, addr, write, gap, dep in zip(
            self.pcs, self.addresses, self.writes, self.gaps, self.deps
        ):
            index += gap + 1
            yield MemoryAccess(pc, addr, write, index, dep)

    def slice(self, start: int, stop: int) -> "Trace":
        """Return accesses [start, stop) as a new trace."""
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
