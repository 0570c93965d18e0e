"""FIESTA-style multi-programmed workload mixes (Sections 4.2 and 5.3).

The paper generates 1000 distinct 4-core mixes by drawing 4 of the 99
program segments uniformly at random *without replacement*, using the
first 100 mixes to train parameters and the remaining 900 to report
results.  We reproduce that methodology at configurable scale.

FIESTA's sample balancing picks regions of equal standalone running
time; here every segment trace is already cut to an equal access
budget, and the multi-programmed runner interleaves threads by their
standalone timestamps (see :mod:`repro.sim.multi`), restarting a thread
at the beginning of its region when it runs out, so all cores stay
active for the whole measurement as in the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple, TypeVar

from repro.traces.trace import Segment

T = TypeVar("T")


@dataclass(frozen=True)
class Mix:
    """One 4-core multi-programmed workload."""

    name: str
    segments: Tuple[Segment, ...]

    def __post_init__(self) -> None:
        if len(self.segments) != len({s.name for s in self.segments}):
            raise ValueError("mix segments must be distinct")


def draw_mixes(
    names: Sequence[str],
    count: int,
    cores: int = 4,
    seed: int = 0xF1E57A,
) -> List[Tuple[str, Tuple[str, ...]]]:
    """Draw ``count`` distinct mixes of ``cores`` segment names each.

    Returns ``(mix name, member names)`` pairs.  The draw reads only the
    names and their order, so a caller can name every mix without
    building a trace.
    """
    if len(names) < cores:
        raise ValueError(f"need at least {cores} segments, got {len(names)}")
    rng = random.Random(seed)
    mixes: List[Tuple[str, Tuple[str, ...]]] = []
    seen = set()
    attempts = 0
    while len(mixes) < count:
        attempts += 1
        if attempts > 100 * count + 1000:
            raise RuntimeError("unable to generate enough distinct mixes")
        chosen = tuple(rng.sample(range(len(names)), cores))
        if chosen in seen:
            continue
        seen.add(chosen)
        mixes.append((f"mix{len(mixes):04d}",
                      tuple(names[i] for i in chosen)))
    return mixes


def generate_mixes(
    segments: Sequence[Segment],
    count: int,
    cores: int = 4,
    seed: int = 0xF1E57A,
) -> List[Mix]:
    """Draw ``count`` distinct mixes of ``cores`` segments each."""
    by_name = {segment.name: segment for segment in segments}
    return [
        Mix(name, tuple(by_name[member] for member in members))
        for name, members in draw_mixes(
            [segment.name for segment in segments], count, cores, seed)
    ]


def split_train_test(
    mixes: Sequence[T], train_count: int
) -> Tuple[List[T], List[T]]:
    """Leading ``train_count`` mixes train parameters; the rest report.

    Mirrors the paper's 100-train / 900-test split so reported numbers
    never come from mixes used for feature or threshold development.
    """
    if not 0 < train_count < len(mixes):
        raise ValueError("train_count must be within (0, len(mixes))")
    return list(mixes[:train_count]), list(mixes[train_count:])
