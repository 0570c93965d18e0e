"""Approximate out-of-order core timing model (Section 4.1).

The paper models a 4-wide, 8-stage out-of-order pipeline with a
128-entry instruction window and a 200-cycle DRAM latency.  We use an
analytical in-order-retire model that captures the two effects cache
policy studies depend on:

* **Front-end throughput** — instructions dispatch at most ``width``
  per cycle, so compute-bound stretches cost ``n / width`` cycles.
* **Memory-level parallelism bounded by the window** — a load may not
  dispatch until the instruction ``window`` slots older has retired,
  so independent misses closer than 128 instructions overlap, while
  misses further apart serialize.  This is the standard analytic
  treatment of MLP in a ROB-limited machine.

Two further effects bound memory-level parallelism the way real
machines do:

* **Dependent loads** — a load flagged as address-dependent on the
  previous load (pointer chasing) cannot dispatch before that load
  completes, serializing chase misses end to end.
* **MSHR occupancy** — at most ``mshr_limit`` LLC-level requests may be
  outstanding at once; an additional miss waits for the oldest to
  complete.  (The paper does not state its MSHR count; 16 is typical
  of the era and noted in DESIGN.md.)

Loads complete ``latency`` cycles after dispatch; non-memory
instructions and stores (modeled as non-blocking, write-allocate)
complete immediately for timing purposes.  Retirement is in-order, so
total cycles are the maximum of the front-end bound and the last
completion.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterable, List, Sequence, Tuple


@dataclass(frozen=True)
class TimingConfig:
    """Core and memory latencies, in cycles."""

    width: int = 4
    window: int = 128
    l1_latency: int = 3
    l2_latency: int = 12
    llc_latency: int = 30
    dram_latency: int = 200
    mshr_limit: int = 16

    def __post_init__(self) -> None:
        if self.width < 1 or self.window < 1:
            raise ValueError("width and window must be positive")
        if self.mshr_limit < 1:
            raise ValueError("mshr_limit must be positive")

    @property
    def llc_miss_latency(self) -> int:
        """Latency of an access that misses the LLC and goes to DRAM."""
        return self.llc_latency + self.dram_latency


@dataclass(frozen=True)
class TimingResult:
    cycles: float
    instructions: int

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles > 0 else 0.0


class TimingModel:
    """Cycle accounting over (instr_index, latency, depends) load events."""

    def __init__(self, config: TimingConfig) -> None:
        self.config = config

    def simulate(
        self, load_events: Iterable[Sequence], total_instructions: int
    ) -> TimingResult:
        """Compute cycles for a program slice from per-load records.

        ``load_events`` yields ``(instr_index, latency_cycles)`` or
        ``(instr_index, latency_cycles, depends)`` records in program
        order for every load; ``total_instructions`` is the total
        retired instruction count of the slice (memory and
        non-memory).  Unzips the records into columns for
        :meth:`simulate_packed`.
        """
        events = list(load_events)
        return self.simulate_packed(
            [event[0] for event in events],
            [event[1] for event in events],
            [len(event) > 2 and event[2] for event in events],
            total_instructions,
        )

    def simulate_packed(
        self,
        instr_indices: Sequence[int],
        latencies: Sequence[int],
        depends: Sequence[bool],
        total_instructions: int,
    ) -> TimingResult:
        """Compute cycles for a program slice from event columns.

        The three columns are parallel sequences, one entry per load in
        program order (as produced by
        :func:`repro.sim.single.demand_load_arrays`): the load's
        instruction index, its latency in cycles, and whether it is
        address-dependent on the previous load.  ``total_instructions``
        is the total retired instruction count of the slice (memory and
        non-memory).
        """
        width = self.config.width
        window = self.config.window
        mshr_limit = self.config.mshr_limit
        llc_latency = self.config.llc_latency
        in_flight: Deque[Tuple[int, float]] = deque()
        mshrs: List[float] = []  # completion times of outstanding LLC requests
        retire_floor = 0.0
        last_completion = 0.0
        prev_load_completion = 0.0
        for instr_index, latency, dep in zip(instr_indices, latencies,
                                             depends):
            boundary = instr_index - window
            while in_flight and in_flight[0][0] <= boundary:
                _, completion = in_flight.popleft()
                if completion > retire_floor:
                    retire_floor = completion
            dispatch = instr_index / width
            if retire_floor > dispatch:
                dispatch = retire_floor
            if dep and prev_load_completion > dispatch:
                dispatch = prev_load_completion
            if latency >= llc_latency:
                # This request occupies an MSHR until it completes.
                while mshrs and mshrs[0] <= dispatch:
                    heapq.heappop(mshrs)
                if len(mshrs) >= mshr_limit:
                    dispatch = max(dispatch, heapq.heappop(mshrs))
                heapq.heappush(mshrs, dispatch + latency)
            completion = dispatch + latency
            in_flight.append((instr_index, completion))
            prev_load_completion = completion
            if completion > last_completion:
                last_completion = completion
        cycles = max(total_instructions / width, last_completion)
        return TimingResult(cycles=cycles, instructions=total_instructions)
