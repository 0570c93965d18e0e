"""Tests for the trace model, synthetic kernels, workload suite, and mixes."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import SMALL, TINY
from repro.exec import SuiteSpec
from repro.traces.holdout import build_holdout_segments, holdout_names
from repro.traces.mixes import draw_mixes, generate_mixes, split_train_test
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
from repro.traces.trace import MemoryAccess, Segment, Trace
from repro.traces.workloads import (
    all_segments,
    benchmark_names,
    build_segments,
    build_suite,
    get_benchmark,
)
from tests import synth_oracle
from tests.trace_checks import column_list, trace_lists

LLC = 512 * 1024


def _write(kernel, takes, seed=1):
    """One kernel's accesses as five columns, written in runs of ``takes``."""
    columns = ([], [], [], [], [])
    writer = kernel.writer(random.Random(seed), columns)
    next(writer)
    for take in takes:
        writer.send(take)
    return columns


def _records(columns):
    """Columns as the reference's tuples: a dependent load carries a
    fifth ``True``."""
    return [record[:4] + (True,) if record[4] else record[:4]
            for record in zip(*columns)]


def _oracle_columns(records):
    """The reference's tuples as five columns, read as lists."""
    return trace_lists(Trace.from_accesses("oracle", records))


class TestTrace:
    def test_from_accesses_roundtrip(self):
        tuples = [(0x400, 0x1000, False, 2), (0x404, 0x1040, True, 3)]
        trace = Trace.from_accesses("t", tuples)
        assert len(trace) == 2
        accesses = list(trace)
        assert accesses[0] == MemoryAccess(0x400, 0x1000, False, 2)
        assert accesses[1] == MemoryAccess(0x404, 0x1040, True, 6)

    def test_instruction_count(self):
        trace = Trace.from_accesses("t", [(1, 2, False, 4), (1, 2, False, 0)])
        assert trace.num_instructions == 6

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            Trace.from_accesses("t", [(1, 2, False, -1)])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Trace("t", [1], [2, 3], [False], [0])
        with pytest.raises(ValueError):
            Trace("t", [1, 2], [2, 3], [False, False], [0, 0], [True])

    def test_slice(self):
        trace = Trace.from_accesses(
            "t", [(i, 64 * i, False, 1) for i in range(10)]
        )
        sub = trace.slice(2, 5)
        assert len(sub) == 3
        assert column_list(sub, "pcs") == [2, 3, 4]
        assert trace_lists(sub) == tuple(
            column[2:5] for column in trace_lists(trace))
        # The slice views its parent's columns.
        assert np.shares_memory(sub.pcs, trace.pcs)

    def test_segment_rejects_nonpositive_weight(self):
        trace = Trace.from_accesses("t", [(1, 2, False, 0)])
        with pytest.raises(ValueError):
            Segment("s", trace, 0.0)

    def test_adopts_array_columns(self):
        columns = (np.array([1, 2], dtype=np.uint64),
                   np.array([64, 128], dtype=np.uint64),
                   np.array([False, True]),
                   np.array([0, 3], dtype=np.int64),
                   np.array([True, False]))
        trace = Trace("t", *columns)
        for field, column in zip(("pcs", "addresses", "writes", "gaps",
                                  "deps"), columns):
            # A read-only view of the caller's array, not a copy.
            assert np.shares_memory(getattr(trace, field), column)
            assert column.flags.writeable
        assert trace_lists(trace) == tuple(c.tolist() for c in columns)
        assert trace.num_instructions == 5

    def test_converts_list_columns(self):
        columns = ([1, 2], [64, 128], [False, True], [0, 3], [True, False])
        trace = Trace("t", *columns)
        assert trace_lists(trace) == columns
        assert trace.num_instructions == 5
        with pytest.raises(ValueError):
            trace.pcs[0] = 7

    def test_copies_other_sequences(self):
        trace = Trace("t", (1, 2), range(2), (False, False), (0, 1))
        assert trace_lists(trace) == ([1, 2], [0, 1], [False, False],
                                      [0, 1], [False, False])

    def test_pcs_and_addresses_keep_64_bits(self):
        top = (1 << 64) - 1
        trace = Trace.from_accesses("t", [(top, top - 63, True, 0, True),
                                          (1 << 63, 0, False, 1)])
        assert trace_lists(trace) == ([top, 1 << 63], [top - 63, 0],
                                      [True, False], [0, 1], [True, False])

    def test_empty_trace(self):
        trace = Trace("t", [], [], [], [])
        assert len(trace) == 0
        assert trace.num_instructions == 0


class TestKernels:
    def _take(self, kernel, n=200, seed=1):
        return _records(_write(kernel, [n], seed))

    def test_region_scan_stays_in_region(self):
        kernel = RegionScan(base=0x10000, size=4096)
        for pc, addr, _, gap in self._take(kernel):
            assert 0x10000 <= addr < 0x10000 + 4096
            assert gap >= 0

    def test_region_scan_is_sequential(self):
        kernel = RegionScan(base=0, size=1 << 20, stride=64, write_ratio=0.0)
        accesses = self._take(kernel, 50)
        deltas = {b[1] - a[1] for a, b in zip(accesses, accesses[1:])}
        # Monotone stride except at the wrap point.
        assert deltas <= {64, 64 - (1 << 20)}

    def test_pointer_chase_is_permutation(self):
        kernel = PointerChase(base=0, nodes=32, node_size=64)
        addrs = [rec[1] for rec in self._take(kernel, 32)]
        assert len(set(addrs)) == 32  # full cycle before repeating

    def test_pointer_chase_repeats_cycle(self):
        kernel = PointerChase(base=0, nodes=16, node_size=64)
        addrs = [rec[1] for rec in self._take(kernel, 32)]
        assert addrs[:16] == addrs[16:]

    def test_pointer_chase_headers_are_dependent_loads(self):
        kernel = PointerChase(base=0, nodes=16, node_size=64)
        records = self._take(kernel, 16)
        assert all(len(rec) == 5 and rec[4] for rec in records)

    def test_hot_cold_prefers_hot(self):
        kernel = HotCold(hot_base=0, hot_size=4096,
                         cold_base=1 << 20, cold_size=1 << 20, hot_prob=0.9)
        accesses = self._take(kernel, 500)
        hot = sum(1 for _, a, _, _ in accesses if a < 4096)
        assert hot > 350

    def test_hot_cold_cold_blocks_not_revisited(self):
        kernel = HotCold(hot_base=0, hot_size=4096,
                         cold_base=1 << 20, cold_size=1 << 24, hot_prob=0.5)
        cold = [a >> 6 for _, a, _, _ in self._take(kernel, 400) if a >= 1 << 20]
        assert len(cold) == len(set(cold))

    def test_object_walk_offsets_match_fields(self):
        fields = (0, 8, 24)
        kernel = ObjectWalk(base=0, objects=64, object_size=128, fields=fields)
        for _, addr, _, _ in self._take(kernel, 300):
            assert addr % 128 in fields

    def test_object_walk_field_pcs_distinct(self):
        kernel = ObjectWalk(base=0, objects=64, pc_base=0x1000)
        pcs = {pc for pc, _, _, _ in self._take(kernel, 300)}
        assert len(pcs) > 1

    def test_bursty_access_repeats_blocks(self):
        kernel = BurstyAccess(base=0, blocks=1024, burst_lo=3, burst_hi=3)
        accesses = self._take(kernel, 30)
        blocks = [a >> 6 for _, a, _, _ in accesses]
        repeats = sum(1 for x, y in zip(blocks, blocks[1:]) if x == y)
        assert repeats >= len(blocks) // 2

    def test_gather_scatter_covers_region(self):
        kernel = GatherScatter(base=0, size=1 << 16)
        blocks = {a >> 6 for _, a, _, _ in self._take(kernel, 2000)}
        assert len(blocks) > 400

    def test_stack_churn_write_then_read(self):
        kernel = StackChurn(base=0)
        accesses = self._take(kernel, 400)
        # Every popped (read) frame must have been pushed (written) before.
        written = set()
        for _, addr, is_write, _ in accesses:
            if is_write:
                written.add(addr)
            else:
                assert addr in written

    def test_kernels_deterministic(self):
        kernel = GatherScatter(base=0, size=1 << 16)
        assert self._take(kernel, 100, seed=42) == self._take(kernel, 100, seed=42)


class TestCompose:
    def test_produces_exact_count(self):
        spec = PhaseSpec([(RegionScan(base=0, size=4096), 1.0)])
        assert all(len(column) == 123 for column in compose(spec, 123, seed=5))

    def test_mixture_uses_all_kernels(self):
        spec = PhaseSpec([
            (RegionScan(base=0, size=4096, pc_base=0x1000), 1.0),
            (GatherScatter(base=1 << 20, size=4096, pc_base=0x2000), 1.0),
        ], run_length=16)
        pcs = set(compose(spec, 2000, seed=9)[0])
        assert any(pc < 0x2000 for pc in pcs)
        assert any(pc >= 0x2000 for pc in pcs)

    def test_deterministic(self):
        spec = PhaseSpec([
            (RegionScan(base=0, size=4096), 2.0),
            (GatherScatter(base=1 << 20, size=4096), 1.0),
        ])
        assert compose(spec, 500, seed=11) == compose(spec, 500, seed=11)

    def test_seed_changes_stream(self):
        spec = PhaseSpec([(GatherScatter(base=0, size=1 << 16), 1.0)])
        assert compose(spec, 200, seed=1) != compose(spec, 200, seed=2)

    def test_rejects_empty_kernels(self):
        with pytest.raises(ValueError):
            PhaseSpec([])

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            PhaseSpec([(RegionScan(base=0, size=64), 0.0)])


# Each kernel with one empty range, a burst of no touches, or a gap
# range reaching below 0.
_BAD_KERNELS = {
    "scan-gap-empty": lambda: RegionScan(base=0, size=4096, gap_lo=5, gap_hi=4),
    "scan-gap-negative": lambda: RegionScan(base=0, size=4096, gap_lo=-1),
    "chase-no-nodes": lambda: PointerChase(base=0, nodes=0),
    "chase-gap-empty": lambda: PointerChase(base=0, nodes=8, gap_lo=3, gap_hi=2),
    "loop-no-touches": lambda: ShuffledLoop(base=0, size=4096,
                                            touches_per_block=0),
    "loop-gap-negative": lambda: ShuffledLoop(base=0, size=4096, gap_lo=-2,
                                              gap_hi=-1),
    "hotcold-gap-empty": lambda: HotCold(hot_base=0, hot_size=64, cold_base=0,
                                         cold_size=64, gap_lo=1, gap_hi=0),
    "objects-none": lambda: ObjectWalk(base=0, objects=0),
    "objects-no-fields": lambda: ObjectWalk(base=0, objects=8, fields=()),
    "objects-gap-empty": lambda: ObjectWalk(base=0, objects=8, gap_lo=7,
                                            gap_hi=6),
    "bursty-no-blocks": lambda: BurstyAccess(base=0, blocks=0),
    "bursty-burst-empty": lambda: BurstyAccess(base=0, blocks=8, burst_lo=4,
                                               burst_hi=3),
    "bursty-no-touches": lambda: BurstyAccess(base=0, blocks=8, burst_lo=0,
                                              burst_hi=0),
    "bursty-gap-negative": lambda: BurstyAccess(base=0, blocks=8, gap_lo=-1),
    "gather-gap-empty": lambda: GatherScatter(base=0, size=4096, gap_lo=9,
                                              gap_hi=3),
    "stack-gap-negative": lambda: StackChurn(base=0, gap_lo=-3, gap_hi=2),
}


class TestKernelRanges:
    @pytest.mark.parametrize("case", sorted(_BAD_KERNELS))
    def test_empty_range_fails_at_construction(self, case):
        with pytest.raises(ValueError):
            _BAD_KERNELS[case]()

    def test_single_value_ranges_are_accepted(self):
        kernel = BurstyAccess(base=0, blocks=1, burst_lo=1, burst_hi=1,
                              gap_lo=0, gap_hi=0)
        _, addresses, _, gaps, _ = _write(kernel, [5])
        assert addresses == [0] * 5 and gaps == [0] * 5

    def test_phase_spec_rejects_non_kernels(self):
        with pytest.raises(TypeError):
            PhaseSpec([(lambda rng: iter(()), 1.0)])

    def test_phase_spec_rejects_empty_runs(self):
        with pytest.raises(ValueError):
            PhaseSpec([(RegionScan(base=0, size=64), 1.0)], run_length=0)


# -- the fast path against tests/synth_oracle.py ------------------------------

_TINY_LLC = TINY.hierarchy.llc_bytes
_TINY_ACCESSES = TINY.segment_accesses


def _assert_same_traces(got, want):
    assert [s.name for s in got] == [s.name for s in want]
    for g, w in zip(got, want):
        assert g.weight == w.weight
        for field in ("pcs", "addresses", "writes", "gaps", "deps"):
            assert column_list(g.trace, field) == \
                column_list(w.trace, field), (g.name, field)
        assert g.trace.num_instructions == w.trace.num_instructions


_base = st.integers(0, 1 << 44)
_prob = st.floats(0.0, 1.0)


@st.composite
def _gaps(draw):
    gap_lo = draw(st.integers(0, 20))
    return {"gap_lo": gap_lo, "gap_hi": gap_lo + draw(st.integers(0, 40))}


def _kernel_of(cls, **fields):
    """``cls`` built from drawn ``fields`` and a drawn gap range."""
    return st.builds(lambda gaps, **kw: cls(**kw, **gaps), _gaps(), **fields)


# Wide draw ranges (up to 2**40 objects or blocks) reach getrandbits
# widths past one 32-bit word; run-ending structure (payloads, bursts,
# field walks, block touches) is drawn up to several accesses long.
_KERNEL_STRATEGIES = [
    _kernel_of(RegionScan, base=_base, size=st.integers(1, 1 << 40),
               stride=st.integers(1, 256), pc_count=st.integers(1, 8),
               write_ratio=_prob),
    _kernel_of(PointerChase, base=_base, nodes=st.integers(1, 300),
               node_size=st.integers(1, 256),
               payload_fields=st.integers(0, 5)),
    _kernel_of(ShuffledLoop, base=_base, size=st.integers(1, 1 << 16),
               pc_count=st.integers(1, 8), write_ratio=_prob,
               touches_per_block=st.integers(1, 9)),
    _kernel_of(HotCold, hot_base=_base, hot_size=st.integers(1, 1 << 40),
               cold_base=_base, cold_size=st.integers(1, 1 << 40),
               hot_prob=_prob, write_ratio=_prob),
    _kernel_of(ObjectWalk, base=_base, objects=st.integers(1, 1 << 40),
               object_size=st.integers(1, 512),
               fields=st.lists(st.integers(0, 511), min_size=1,
                               max_size=8).map(tuple),
               hot_fraction=_prob, hot_prob=_prob, write_ratio=_prob),
    _kernel_of(BurstyAccess, base=_base, blocks=st.integers(1, 1 << 40),
               burst_lo=st.integers(1, 6), burst_hi=st.integers(6, 12),
               revisit_prob=_prob),
    _kernel_of(GatherScatter, base=_base, size=st.integers(1, 1 << 40),
               write_ratio=_prob),
    _kernel_of(StackChurn, base=_base, max_depth_bytes=st.integers(1, 1 << 16),
               frame_bytes=st.integers(1, 512)),
]
_kernel = st.one_of(*_KERNEL_STRATEGIES)
_seed = st.integers(0, 2**32 - 1)


class TestOracleLockstep:
    @pytest.mark.parametrize("name", benchmark_names())
    def test_tiny_suite_segments(self, name):
        _assert_same_traces(
            build_segments(name, _TINY_LLC, _TINY_ACCESSES),
            synth_oracle.build_segments(name, _TINY_LLC, _TINY_ACCESSES))

    @pytest.mark.parametrize("name", holdout_names())
    def test_tiny_holdout_segments(self, name):
        _assert_same_traces(
            build_holdout_segments(name, _TINY_LLC, _TINY_ACCESSES),
            synth_oracle.build_holdout_segments(name, _TINY_LLC,
                                                _TINY_ACCESSES))

    @settings(max_examples=150, deadline=None)
    @given(kernel=_kernel, seed=_seed,
           takes=st.lists(st.integers(1, 40), min_size=1, max_size=12))
    # A run of one access, and runs that end inside a field walk, a
    # burst and a chase's payload.
    @example(kernel=RegionScan(base=0, size=4096), seed=3, takes=[1] * 9)
    @example(kernel=ObjectWalk(base=0, objects=64), seed=5,
             takes=[2, 1, 3, 1, 2, 7])
    @example(kernel=BurstyAccess(base=0, blocks=64, burst_lo=5, burst_hi=5),
             seed=7, takes=[3, 3, 1, 6])
    @example(kernel=PointerChase(base=0, nodes=16, payload_fields=3), seed=9,
             takes=[2, 1, 5, 3])
    def test_writer_resumes_mid_structure(self, kernel, seed, takes):
        stream = synth_oracle.stream(kernel, random.Random(seed))
        want = [next(stream) for _ in range(sum(takes))]
        got = _write(kernel, takes, seed)
        assert got == _oracle_columns(want)
        assert _records(got) == want

    @settings(max_examples=100, deadline=None)
    @given(kernels=st.lists(st.tuples(_kernel, st.floats(0.1, 4.0)),
                            min_size=1, max_size=3),
           run_length=st.integers(1, 60), count=st.integers(0, 600),
           seed=_seed)
    @example(kernels=[(ObjectWalk(base=0, objects=64), 1.0),
                      (PointerChase(base=1 << 30, nodes=32,
                                    payload_fields=2), 1.0),
                      (BurstyAccess(base=1 << 31, blocks=64), 1.0)],
             run_length=1, count=300, seed=2017)
    def test_compose_matches_oracle(self, kernels, run_length, count, seed):
        spec = PhaseSpec(kernels, run_length=run_length)
        assert compose(spec, count, seed) == _oracle_columns(
            synth_oracle.compose(spec, count, seed))


class TestWorkloadSuite:
    def test_suite_has_33_benchmarks(self):
        assert len(benchmark_names()) == 33

    def test_expected_names_present(self):
        names = set(benchmark_names())
        for expected in ("mcf", "gcc", "lbm", "data_caching", "graph_analytics",
                         "sat_solver", "mlpack_cf", "xalancbmk"):
            assert expected in names

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            get_benchmark("nope")

    def test_build_segments_weights_and_lengths(self):
        segments = build_segments("gcc", LLC, accesses=500)
        assert len(segments) == 3
        assert all(len(s.trace) == 500 for s in segments)
        assert sum(s.weight for s in segments) == pytest.approx(1.0)

    def test_segments_deterministic(self):
        a = build_segments("mcf", LLC, accesses=300, seed=7)
        b = build_segments("mcf", LLC, accesses=300, seed=7)
        assert column_list(a[0].trace, "addresses") == \
            column_list(b[0].trace, "addresses")

    def test_benchmarks_use_disjoint_address_spaces(self):
        mcf = build_segments("mcf", LLC, accesses=300)[0].trace
        gcc = build_segments("gcc", LLC, accesses=300)[0].trace
        assert not (set(a >> 40 for a in mcf.addresses)
                    & set(a >> 40 for a in gcc.addresses))

    def test_all_segments_flattens(self):
        segments = all_segments(LLC, accesses=100, names=["mcf", "lbm"])
        assert len(segments) == 3  # mcf has 2 segments, lbm has 1

    def test_build_suite_subset(self):
        suite = build_suite(LLC, accesses=100, names=["lbm"])
        assert set(suite) == {"lbm"}

    def test_streaming_benchmark_exceeds_llc(self):
        lbm = build_segments("lbm", LLC, accesses=20_000)[0].trace
        footprint_blocks = len({a >> 6 for a in lbm.addresses})
        assert footprint_blocks * 64 > LLC  # dead-on-arrival regime

    def test_cache_friendly_benchmark_fits(self):
        gamess = build_segments("gamess", LLC, accesses=20_000)[0].trace
        footprint_blocks = len({a >> 6 for a in gamess.addresses})
        assert footprint_blocks * 64 < LLC


class TestMixes:
    def _segments(self, count=10):
        trace = Trace.from_accesses("t", [(1, 64, False, 1)])
        return [Segment(f"s{i}", trace, 1.0) for i in range(count)]

    def test_generates_requested_count(self):
        mixes = generate_mixes(self._segments(), count=5)
        assert len(mixes) == 5
        assert all(len(m.segments) == 4 for m in mixes)

    def test_mix_members_distinct(self):
        for mix in generate_mixes(self._segments(), count=20):
            names = [s.name for s in mix.segments]
            assert len(names) == len(set(names))

    def test_deterministic(self):
        a = generate_mixes(self._segments(), count=5, seed=3)
        b = generate_mixes(self._segments(), count=5, seed=3)
        assert [[s.name for s in m.segments] for m in a] == \
            [[s.name for s in m.segments] for m in b]

    def test_mixes_are_distinct(self):
        mixes = generate_mixes(self._segments(30), count=50)
        keys = {tuple(s.name for s in m.segments) for m in mixes}
        assert len(keys) == 50

    def test_rejects_too_few_segments(self):
        with pytest.raises(ValueError):
            generate_mixes(self._segments(3), count=1)

    def test_split_train_test(self):
        mixes = generate_mixes(self._segments(), count=10)
        train, test = split_train_test(mixes, 3)
        assert len(train) == 3 and len(test) == 7
        assert train[0].name == "mix0000"

    def test_split_rejects_bad_counts(self):
        mixes = generate_mixes(self._segments(), count=4)
        with pytest.raises(ValueError):
            split_train_test(mixes, 0)
        with pytest.raises(ValueError):
            split_train_test(mixes, 4)

    @pytest.mark.parametrize("scale", [TINY, SMALL], ids=["tiny", "small"])
    def test_draw_over_suite_names_equals_built_mixes(self, scale):
        """Mixes drawn over the suite's segment names, which builds no
        trace, name exactly the segments generate_mixes picks from the
        built suite."""
        llc = scale.hierarchy.llc_bytes
        suite = build_suite(llc, 2_000)
        built = generate_mixes([s for name in sorted(suite)
                                for s in suite[name]], scale.mix_count)
        drawn = draw_mixes(SuiteSpec(llc, 2_000).segment_names(),
                           scale.mix_count)
        assert drawn == [(mix.name, tuple(s.name for s in mix.segments))
                         for mix in built]

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=1, max_value=6))
    def test_property_counts(self, pool, count):
        mixes = generate_mixes(self._segments(pool), count=count)
        assert len(mixes) == count
