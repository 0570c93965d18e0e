"""Edge-case tests for the multi-programmed interleaver.

The columnar merge (``MultiProgrammedRunner._interleave``) is pinned to
:func:`_reference_interleave`, the heap merge it replaced, kept here as
the oracle: field by field on every merged access, on hypothesis-drawn
threads and on the tiny-scale Fig. 4 test mixes.
"""

import heapq
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import TINY
from repro.policies import policy_factory
from repro.sim.hierarchy import HierarchyConfig
from repro.sim.llc import LLCAccess, LLCColumns
from repro.sim.multi import MultiProgrammedRunner
from repro.traces.mixes import Mix, generate_mixes, split_train_test
from repro.traces.trace import Segment, Trace
from repro.traces.workloads import build_segments, build_suite

SMALL = HierarchyConfig(l1_kib=4, l1_ways=4, l2_kib=16, l2_ways=8,
                        llc_kib=128, llc_ways=16)


def _reference_interleave(threads):
    """The heap merge: pop the smallest ``(timestamp, thread, local,
    lap)`` key, push that thread's next key (wrapping to the next lap
    at the end of its stream), and stop once every non-empty thread
    has completed lap 0."""
    pc_offsets = []
    merged_pcs = []
    for thread in threads:
        pc_offsets.append(len(merged_pcs))
        merged_pcs.extend(thread.segment.trace.pcs)

    heap = []  # ts, thread, local, lap
    done = [len(t.upper.llc_stream) == 0 for t in threads]
    for thread_idx, thread in enumerate(threads):
        if len(thread.timestamps):
            heapq.heappush(heap, (thread.timestamps[0], thread_idx, 0, 0))

    merged = []
    origins = []
    while heap and not all(done):
        ts, thread_idx, local_idx, lap = heapq.heappop(heap)
        thread = threads[thread_idx]
        access = thread.upper.llc_stream[local_idx]
        merged.append(
            LLCAccess(
                pc=access.pc,
                block=access.block,
                offset=access.offset,
                is_write=access.is_write,
                is_prefetch=access.is_prefetch,
                mem_index=access.mem_index + pc_offsets[thread_idx],
                instr_index=access.instr_index,
            )
        )
        origins.append((thread_idx, local_idx, lap))
        next_local = local_idx + 1
        if next_local >= len(thread.timestamps):
            done[thread_idx] = True
            next_local = 0
            lap += 1
        next_ts = thread.timestamps[next_local] + (lap * thread.single_cycles)
        heapq.heappush(heap, (next_ts, thread_idx, next_local, lap))
    return merged, origins, merged_pcs, pc_offsets


def _assert_matches_reference(threads):
    merged, origins, merged_pcs, pc_offsets = \
        MultiProgrammedRunner(SMALL)._interleave(threads)
    ref_merged, ref_origins, ref_pcs, ref_offsets = \
        _reference_interleave(threads)
    assert isinstance(merged, LLCColumns)
    assert list(merged) == ref_merged
    assert list(zip(*(column.tolist() for column in origins))) \
        == ref_origins
    assert all(column.dtype == np.int64 for column in origins)
    assert merged_pcs == ref_pcs
    assert pc_offsets == ref_offsets
    return merged, origins


# One thread: nondecreasing instruction indices (repeats included) and
# a CPI, so timestamps repeat within a thread and, with a shared CPI and
# overlapping indices, tie across threads.  ``spare`` stretches the
# region past its last access; a one-access thread with a short region
# laps many times while a longer one runs.
_thread_st = st.fixed_dictionaries({
    "steps": st.lists(st.integers(min_value=0, max_value=3), max_size=40),
    "cpi": st.sampled_from([0.5, 1.0, 1.25, 3.0]),
    "spare": st.integers(min_value=1, max_value=5),
    "seed": st.integers(min_value=0, max_value=2**32 - 1),
})


def _fake_thread(name, steps, cpi, spare, seed):
    """The ThreadData fields both merges read, from a drawn thread."""
    rng = np.random.default_rng(seed)
    instr = np.cumsum(steps, dtype=np.int64).tolist()
    n = len(instr)
    pcs = [int(pc) for pc in
           rng.integers(0, 2**64, size=n + 3, dtype=np.uint64)]
    mems = np.sort(rng.integers(0, len(pcs), size=n)).tolist()
    stream = [
        LLCAccess(pc=pcs[mem], block=int(rng.integers(0, 2**40)),
                  offset=int(rng.integers(0, 64)),
                  is_write=bool(rng.integers(0, 2)),
                  is_prefetch=bool(rng.integers(0, 2)),
                  mem_index=mem, instr_index=index)
        for mem, index in zip(mems, instr)
    ]
    columns = LLCColumns.from_accesses(stream)
    return SimpleNamespace(
        segment=SimpleNamespace(name=name, trace=SimpleNamespace(pcs=pcs)),
        upper=SimpleNamespace(llc_stream=stream),
        timestamps=columns.instr_index * cpi,
        single_cycles=((instr[-1] if instr else 0) + spare) * cpi,
        llc_columns=columns,
    )


def _fig4_tiny_mixes():
    """The tiny-scale Fig. 4 test mixes, built as the bench builds them."""
    accesses = max(4_000, TINY.segment_accesses // 3)
    suite = build_suite(TINY.hierarchy.llc_bytes, accesses)
    segments = [s for name in sorted(suite) for s in suite[name]]
    _, test = split_train_test(generate_mixes(segments, TINY.mix_count),
                               TINY.train_mix_count)
    return test


def tiny_segment(name, blocks, pc=0x400):
    trace = Trace.from_accesses(
        name, [(pc + 4 * (i % 4), 64 * b, False, 2) for i, b in enumerate(blocks)]
    )
    return Segment(name, trace, 1.0)


class TestInterleaverEdgeCases:
    def test_thread_with_all_l1_hits_contributes_no_llc_traffic(self):
        # One thread's working set fits entirely in L1: its LLC stream
        # is (nearly) empty, and the mix must still complete.
        runner = MultiProgrammedRunner(SMALL, warmup_fraction=0.1)
        l1_resident = tiny_segment("tiny_hot", [0, 1] * 500)
        others = [
            tiny_segment(f"s{i}", list(range(i * 1000, i * 1000 + 400)) * 2)
            for i in range(3)
        ]
        mix = Mix("m", (l1_resident, *others))
        result = runner.run_mix(mix, policy_factory("lru"))
        assert len(result.ipcs) == 4
        assert all(ipc > 0 for ipc in result.ipcs)

    def test_threads_of_unequal_length_all_measured(self):
        runner = MultiProgrammedRunner(SMALL, warmup_fraction=0.1)
        short = tiny_segment("short", list(range(100)))
        long_segments = [
            tiny_segment(f"l{i}", list(range(2000 + i * 500, 3200 + i * 500)))
            for i in range(3)
        ]
        mix = Mix("m", (short, *long_segments))
        result = runner.run_mix(mix, policy_factory("lru"))
        # The short thread restarts (FIESTA style) until the others
        # finish; every thread reports an IPC.
        assert all(ipc > 0 for ipc in result.ipcs)

    def test_same_segment_name_reuses_cached_thread_data(self):
        runner = MultiProgrammedRunner(SMALL, warmup_fraction=0.1)
        segments = build_segments("gamess", SMALL.llc_bytes, accesses=1500)
        first = runner.thread_data(segments[0])
        second = runner.thread_data(segments[0])
        assert first is second

    def test_interleaving_orders_by_timestamp(self):
        runner = MultiProgrammedRunner(SMALL, warmup_fraction=0.1)
        segs = tuple(
            tiny_segment(f"t{i}", list(range(1000 * i, 1000 * i + 300)))
            for i in range(4)
        )
        threads = [runner.thread_data(s) for s in segs]
        merged, origins, merged_pcs, offsets = runner._interleave(threads)
        thread_of, local, lap = origins
        assert len(thread_of) == len(local) == len(lap) == len(merged)
        # Merged timestamps never decrease.
        keys = np.array([threads[t].timestamps[i] + k * threads[t].single_cycles
                         for t, i, k in zip(thread_of, local, lap)])
        assert np.all(np.diff(keys) >= 0)
        for idx, thread in enumerate(threads):
            # Lap-0 entries of each thread appear in local order, and
            # every thread's full lap-0 stream is present.
            lap0 = local[(thread_of == idx) & (lap == 0)]
            assert lap0.tolist() == list(range(len(thread.upper.llc_stream)))
        # Merged accesses are the origins' accesses, mem_index rebased.
        for access, t, i in zip(merged[:50], thread_of, local):
            source = threads[t].upper.llc_stream[i]
            assert access.block == source.block
            assert access.mem_index == source.mem_index + offsets[t]
            assert merged_pcs[access.mem_index] == \
                threads[t].segment.trace.pcs[source.mem_index]


class TestMergeMatchesHeapMerge:
    @settings(max_examples=150, deadline=None)
    @given(drawn=st.lists(_thread_st, min_size=1, max_size=4))
    def test_random_threads(self, drawn):
        """Repeated and tied timestamps, empty threads, all-empty
        mixes and many-lap short threads all merge as the heap does."""
        threads = [_fake_thread(f"t{i}", **d) for i, d in enumerate(drawn)]
        _assert_matches_reference(threads)

    def test_all_empty_mix(self):
        threads = [_fake_thread(f"t{i}", [], 1.0, 1, i) for i in range(4)]
        merged, origins = _assert_matches_reference(threads)
        assert len(merged) == 0 and all(len(o) == 0 for o in origins)

    def test_short_thread_laps_many_times(self):
        short = _fake_thread("short", [0], 1.0, 1, 1)
        long_thread = _fake_thread("long", [1] * 40, 1.0, 1, 2)
        _merged, (thread_of, _local, lap) = _assert_matches_reference(
            [short, long_thread])
        assert lap[thread_of == 0].max() == 40

    def test_lap_count_survives_division_rounding(self):
        """``30 * cycles / cycles`` rounds to just under 30 for this
        ``cycles``, yet the short thread's lap 30 lands exactly on the
        stop timestamp (and sorts before it, on the thread index)."""
        cycles = 2.294747496103047
        assert (30 * cycles) / cycles < 30
        short = _fake_thread("short", [0], cycles, 1, 1)
        stop = _fake_thread("stop", [30], cycles, 1, 2)
        _merged, (thread_of, _local, lap) = _assert_matches_reference(
            [short, stop])
        assert lap[thread_of == 0].max() == 30

    def test_fig4_tiny_mixes(self):
        runner = MultiProgrammedRunner(TINY.multi_hierarchy,
                                       warmup_fraction=TINY.warmup_fraction)
        mixes = _fig4_tiny_mixes()
        assert len(mixes) == 4
        for mix in mixes:
            _assert_matches_reference(
                [runner.thread_data(s) for s in mix.segments])
