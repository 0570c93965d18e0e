"""Tests for the binary trace/Stage-1 artifact cache.

Covers the framing format (round trips, corruption tolerance, crafted
manifests, a byteswapped payload under a foreign ``endian`` field),
the :class:`ResultStore` raw-bytes interface, the artifact
hit counters surfaced in :class:`ExecReport`, and the monotonic
eviction order of the store's LRU log.
"""

import json
import os
import sys
import tracemalloc

import numpy as np
import pytest

from repro.config import TINY
from repro.exec import ParallelRunner, SingleCell, TraceSpec
from repro.exec import runner as exec_runner
from repro.exec.artifacts import (
    MAGIC,
    ArtifactCache,
    pack_artifact,
    pack_segments,
    pack_upper,
    stage1_key,
    trace_key,
    unpack_artifact,
    unpack_segments,
    unpack_upper,
)
from repro.exec.cachekey import SCHEMA_VERSION, canonical_json
from repro.exec.store import ResultStore
from repro.sim.hierarchy import UpperLevels
from repro.traces.workloads import build_segments
from tests.trace_checks import TRACE_DTYPES, column_list, trace_lists

ACCESSES = 1_500


def _segments(benchmark="gamess"):
    return build_segments(benchmark, TINY.hierarchy.llc_bytes, ACCESSES)


def _upper(segment):
    return UpperLevels(TINY.hierarchy).run(segment.trace)


def _frame(meta, payload):
    """A blob with ``meta`` (schema/kind/endian filled in) over ``payload``."""
    meta = canonical_json({"schema": SCHEMA_VERSION, "endian": sys.byteorder,
                           "scalars": {}, **meta}).encode("utf-8")
    return MAGIC + len(meta).to_bytes(4, "little") + meta + payload


def _split(blob):
    """(meta, payload) of a framed blob."""
    meta_len = int.from_bytes(blob[4:8], "little")
    return json.loads(blob[8:8 + meta_len]), blob[8 + meta_len:]


def _assert_same_upper(got, want):
    assert got is not None
    for field in ("service", "instr_indices"):
        assert getattr(got, field).dtype == np.int64
        assert getattr(got, field).tolist() == getattr(want, field).tolist()
    for name, got_col, want_col in zip(
            ("pc", "block", "offset", "is_write", "is_prefetch", "mem_index",
             "instr_index"),
            got.llc_stream.arrays(), want.llc_stream.arrays()):
        assert got_col.dtype == want_col.dtype, name
        assert got_col.tolist() == want_col.tolist(), name
    for field in ("num_instructions", "l1_hits", "l1_misses", "l2_hits",
                  "l2_misses", "prefetches_issued"):
        assert getattr(got, field) == getattr(want, field)


class TestFraming:
    def test_artifact_round_trip(self):
        scalars = {"alpha": 3, "beta": "x"}
        arrays = [("a", "Q", [1, 2, 3]), ("b", "B", [0, 1])]
        blob = pack_artifact("demo", scalars, arrays)
        assert blob.startswith(MAGIC)
        unpacked = unpack_artifact(blob, "demo")
        assert unpacked is not None
        got_scalars, got_arrays = unpacked
        assert got_scalars == scalars
        assert got_arrays["a"].tolist() == [1, 2, 3]
        assert got_arrays["b"].tolist() == [0, 1]

    def test_kind_mismatch_is_a_miss(self):
        blob = pack_artifact("demo", {}, {})
        assert unpack_artifact(blob, "other") is None

    def test_corruption_is_a_miss(self):
        blob = pack_artifact("demo", {"n": 1}, {})
        assert unpack_artifact(b"", "demo") is None
        assert unpack_artifact(b"XXXX" + blob[4:], "demo") is None
        assert unpack_artifact(blob[:-1], "demo") is None
        assert unpack_artifact(blob + b"\x00", "demo") is None

    def test_negative_count_is_a_miss(self):
        # A -1 count would walk the cursor back into the meta and read
        # its bytes as the next array.
        manifest = [["a", "Q", -1], ["b", "Q", 4]]
        blob = _frame({"artifact": "demo", "arrays": manifest},
                      np.arange(3, dtype=np.uint64).tobytes())
        assert unpack_artifact(blob, "demo") is None

    @pytest.mark.parametrize("entry", [["a", "d", 2], ["a", "i", 4],
                                       ["a", "Q", "2"], ["a", "Q", 2.0]])
    def test_bad_manifest_entry_is_a_miss(self, entry):
        blob = _frame({"artifact": "demo", "arrays": [entry]}, bytes(16))
        assert unpack_artifact(blob, "demo") is None

    def test_out_of_range_column_refuses_to_pack(self):
        with pytest.raises(OverflowError):
            pack_artifact("demo", {}, [("a", "B", np.array([1, 300]))])

    @pytest.mark.parametrize("short", ["instr_indices", "s_block", "s_flags"])
    def test_unequal_stage1_columns_are_a_miss(self, short):
        blob = pack_upper(_upper(_segments("soplex")[0]))
        meta, _ = _split(blob)
        arrays = unpack_artifact(blob, "stage1")[1]
        columns = [(name, typecode, arrays[name][:-1] if name == short
                    else arrays[name])
                   for name, typecode, _ in meta["arrays"]]
        blob = pack_artifact("stage1", meta["scalars"], columns)
        assert unpack_artifact(blob, "stage1") is not None
        assert unpack_upper(blob) is None

    @pytest.mark.parametrize("short", ["0:pcs", "0:gaps", "0:flags",
                                       "1:addresses"])
    def test_unequal_trace_columns_are_a_miss(self, short):
        blob = pack_segments(_segments("soplex"))
        meta, _ = _split(blob)
        arrays = unpack_artifact(blob, "trace")[1]
        columns = [(name, typecode, arrays[name][:-1] if name == short
                    else arrays[name])
                   for name, typecode, _ in meta["arrays"]]
        blob = pack_artifact("trace", meta["scalars"], columns)
        assert unpack_artifact(blob, "trace") is not None
        assert unpack_segments(blob) is None

    def test_foreign_byte_order_is_swapped(self):
        upper = _upper(_segments("soplex")[0])
        meta, payload = _split(pack_upper(upper))
        swapped, cursor = [], 0
        for _, typecode, count in meta["arrays"]:
            dtype = {"q": np.int64, "Q": np.uint64, "B": np.uint8}[typecode]
            column = np.frombuffer(payload, dtype=dtype, count=count,
                                   offset=cursor)
            swapped.append(column.byteswap().tobytes())
            cursor += column.nbytes
        meta["endian"] = "big" if sys.byteorder == "little" else "little"
        blob = _frame(meta, b"".join(swapped))
        assert blob != pack_upper(upper)
        _assert_same_upper(unpack_upper(blob), upper)

    def test_segments_round_trip(self):
        segments = _segments("soplex")
        restored = unpack_segments(pack_segments(segments))
        assert restored is not None
        assert len(restored) == len(segments)
        for got, want in zip(restored, segments):
            assert got.name == want.name
            assert got.weight == want.weight
            assert trace_lists(got.trace) == trace_lists(want.trace)

    def test_upper_round_trip(self):
        segment = _segments("soplex")[0]
        upper = _upper(segment)
        restored = unpack_upper(pack_upper(upper))
        assert restored is not None
        assert restored.num_instructions == upper.num_instructions
        assert restored.l1_hits == upper.l1_hits
        assert restored.l2_misses == upper.l2_misses
        assert restored.prefetches_issued == upper.prefetches_issued
        assert restored.service.tolist() == upper.service.tolist()
        assert restored.instr_indices.tolist() == upper.instr_indices.tolist()
        assert len(restored.llc_stream) == len(upper.llc_stream)
        for got, want in zip(restored.llc_stream, upper.llc_stream):
            assert got == want

    def test_keys_distinguish_payloads(self):
        base = {"benchmark": "gamess", "llc_bytes": 1, "accesses": 2}
        assert trace_key(base) != trace_key({**base, "accesses": 3})
        scope = {"llc_bytes": 1, "accesses": 2, "seed": 3}
        hierarchy = {"llc_ways": 16}
        key = stage1_key(scope, "gamess/0", hierarchy, True)
        assert key != stage1_key(scope, "gamess/1", hierarchy, True)
        assert key != stage1_key(scope, "gamess/0", hierarchy, False)


def _pack_segments_reference(segments):
    """The list codec the numpy one replaced, flag by flag: blobs that
    it wrote must keep loading as hits."""
    arrays = []
    for i, segment in enumerate(segments):
        trace = segment.trace
        flags = [(1 if write else 0) | (2 if dep else 0)
                 for write, dep in zip(trace.writes.tolist(),
                                       trace.deps.tolist())]
        arrays += [(f"{i}:pcs", "Q", trace.pcs.tolist()),
                   (f"{i}:addresses", "Q", trace.addresses.tolist()),
                   (f"{i}:gaps", "Q", trace.gaps.tolist()),
                   (f"{i}:flags", "B", flags)]
    return pack_artifact("trace", {
        "names": [segment.name for segment in segments],
        "weights": [segment.weight for segment in segments],
    }, arrays)


class TestTraceCodec:
    def test_blobs_equal_the_list_codec(self):
        segments = _segments("soplex")
        assert pack_segments(segments) == _pack_segments_reference(segments)

    def test_decoded_columns_view_the_blob(self):
        blob = pack_segments(_segments("soplex"))
        raw = np.frombuffer(blob, dtype=np.uint8)
        for segment in unpack_segments(blob):
            trace = segment.trace
            for field, _ in TRACE_DTYPES:
                column_list(trace, field)  # pinned dtype, read-only
            for field in ("pcs", "addresses", "gaps"):
                assert np.shares_memory(getattr(trace, field), raw), field

    def test_repacking_a_decoded_trace_returns_the_blob(self):
        blob = pack_segments(_segments("soplex"))
        assert pack_segments(unpack_segments(blob)) == blob

    def test_gap_past_int64_is_a_miss(self):
        blob = pack_segments(_segments("soplex"))
        meta, _ = _split(blob)
        arrays = unpack_artifact(blob, "trace")[1]
        gaps = arrays["0:gaps"].copy()
        gaps[3] = 1 << 63
        columns = [(name, typecode, gaps if name == "0:gaps"
                    else arrays[name])
                   for name, typecode, _ in meta["arrays"]]
        blob = pack_artifact("trace", meta["scalars"], columns)
        assert unpack_segments(blob) is None

    def test_decode_stays_within_32_bytes_per_access(self):
        segments = build_segments("soplex", TINY.hierarchy.llc_bytes, 20_000)
        blob = pack_segments(segments)
        accesses = sum(len(segment.trace) for segment in segments)
        tracemalloc.start()
        try:
            decoded = unpack_segments(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decoded is not None
        assert peak / accesses <= 32, f"{peak / accesses:.1f} B per access"


class TestStoreBytes:
    def test_bytes_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get_bytes("ab" * 32) is None
        store.put_bytes("ab" * 32, b"\x01\x02")
        assert store.get_bytes("ab" * 32) == b"\x01\x02"

    def test_bytes_and_json_share_eviction(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        store.put_bytes("aa" * 32, b"a")
        store.put("bb" * 32, {"v": 1})
        store.put_bytes("cc" * 32, b"c")
        assert store.get_bytes("aa" * 32) is None  # oldest evicted
        assert store.get_bytes("cc" * 32) == b"c"

    def test_same_second_eviction_follows_insertion_order(self, tmp_path):
        """mtime granularity must not scramble LRU under fast writes.

        All three blobs land within the same second; the insertion log
        (not mtime) must decide which one is oldest.  Force identical
        mtimes to simulate a coarse-granularity filesystem.
        """
        store = ResultStore(tmp_path, max_entries=2)
        keys = ["aa" * 32, "bb" * 32, "cc" * 32]
        store.put_bytes(keys[0], b"0")
        store.put_bytes(keys[1], b"1")
        stamp = os.stat(store._bin_path(keys[0])).st_mtime
        for key in keys[:2]:
            os.utime(store._bin_path(key), (stamp, stamp))
        store.put_bytes(keys[2], b"2")
        os.utime(store._bin_path(keys[2]), (stamp, stamp))
        assert store.get_bytes(keys[0]) is None
        assert store.get_bytes(keys[1]) == b"1"
        assert store.get_bytes(keys[2]) == b"2"

    def test_touch_refreshes_log_order(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        keys = ["aa" * 32, "bb" * 32, "cc" * 32]
        store.put_bytes(keys[0], b"0")
        store.put_bytes(keys[1], b"1")
        store.get_bytes(keys[0])  # refresh: key 1 is now the LRU
        store.put_bytes(keys[2], b"2")
        assert store.get_bytes(keys[1]) is None
        assert store.get_bytes(keys[0]) == b"0"


class TestArtifactCache:
    def test_segment_store_hit_and_miss(self, tmp_path):
        cache = ArtifactCache(ResultStore(tmp_path))
        payload = {"benchmark": "gamess",
                   "llc_bytes": TINY.hierarchy.llc_bytes,
                   "accesses": ACCESSES, "seed": 2017}
        assert cache.load_segments(payload) is None
        assert cache.stats.trace_misses == 1
        segments = _segments()
        cache.store_segments(payload, segments)
        loaded = cache.load_segments(payload)
        assert cache.stats.trace_hits == 1
        assert [s.name for s in loaded] == [s.name for s in segments]

    def test_stage1_store_round_trip(self, tmp_path):
        cache = ArtifactCache(ResultStore(tmp_path))
        scope = {"llc_bytes": TINY.hierarchy.llc_bytes,
                 "accesses": ACCESSES, "seed": 2017}
        store = cache.stage1_store({"gamess": scope}, TINY.hierarchy, True)
        segment = _segments()[0]
        assert store.load(segment) is None
        upper = _upper(segment)
        store.save(segment, upper)
        loaded = store.load(segment)
        assert loaded is not None
        assert list(loaded.llc_stream) == list(upper.llc_stream)
        assert cache.stats.stage1_hits == 1
        assert cache.stats.stage1_misses == 1


class TestReportCounters:
    def _cell(self, policy):
        return SingleCell(
            trace=TraceSpec("gamess", TINY.hierarchy.llc_bytes, ACCESSES),
            policy=policy,
            hierarchy=TINY.hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )

    def test_warm_artifacts_counted_in_report(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        engine.run([self._cell("lru")], label="cold")
        cold = engine.last_report
        assert cold.trace_misses == 1
        assert cold.stage1_misses == 1
        assert cold.trace_hits == cold.stage1_hits == 0
        # A different policy misses the result cache; with the
        # in-process memos cleared (as in a fresh worker) the shared
        # stages must come from the artifact cache.
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        exec_runner._ARTIFACTS.clear()
        engine.run([self._cell("srrip")], label="warm")
        warm = engine.last_report
        assert warm.trace_hits == 1
        assert warm.stage1_hits == 1
        assert warm.trace_misses == warm.stage1_misses == 0
        assert "artifacts:" in warm.summary()

    def test_result_cache_hits_skip_artifacts(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        engine.run([self._cell("lru")], label="cold")
        engine.run([self._cell("lru")], label="replay")
        replay = engine.last_report
        assert replay.hits == 1
        assert replay.artifact_lookups == 0
