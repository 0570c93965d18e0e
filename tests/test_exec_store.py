"""Tests for the on-disk result store and cache-key hashing."""

import json
import os

import pytest

from repro.config import TINY
from repro.core.mpppb import MPPPBConfig
from repro.core.presets import table_1a_features
from repro.cpu.timing import TimingConfig
from repro.exec import (
    SCHEMA_VERSION,
    ResultStore,
    SingleCell,
    TraceSpec,
    canonical_json,
    stable_hash,
    task_seed,
)
from repro.sim.multi import MixResult
from repro.sim.single import BenchmarkResult, SegmentResult


def _benchmark_result() -> BenchmarkResult:
    segments = tuple(
        SegmentResult(
            segment_name=f"b.s{i}", weight=0.5 + i, ipc=1.25 + i * 0.125,
            mpki=3.7, llc_accesses=1000 + i, llc_hits=700, llc_misses=300,
            llc_bypasses=17, demand_misses=290, instructions=40_000,
        )
        for i in range(3)
    )
    return BenchmarkResult(benchmark="b", segments=segments)


def _mix_result() -> MixResult:
    return MixResult(
        mix_name="mix0001",
        thread_names=("a.s0", "b.s0", "c.s1", "d.s0"),
        ipcs=(1.1, 0.9, 1.300000000000001, 0.75),
        single_ipcs=(1.2, 1.0, 1.5, 0.8),
        mpki=4.25,
        llc_misses=1234,
        llc_bypasses=56,
    )


class TestResultSerde:
    def test_benchmark_result_round_trip_through_json(self):
        result = _benchmark_result()
        payload = json.loads(json.dumps(result.to_dict()))
        assert BenchmarkResult.from_dict(payload) == result

    def test_mix_result_round_trip_through_json(self):
        result = _mix_result()
        payload = json.loads(json.dumps(result.to_dict()))
        restored = MixResult.from_dict(payload)
        assert restored == result
        assert restored.weighted_speedup == result.weighted_speedup


class TestStableHash:
    def test_key_order_independent(self):
        assert stable_hash({"a": 1, "b": [2, 3]}) == stable_hash({"b": [2, 3], "a": 1})

    def test_canonical_json_sorted(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    def test_task_seed_is_32_bit(self):
        seed = task_seed(stable_hash({"x": 1}))
        assert 0 <= seed < 2**32

    def _cell(self, **overrides):
        defaults = dict(
            trace=TraceSpec("soplex", TINY.hierarchy.llc_bytes, 4_000),
            policy="mpppb",
            hierarchy=TINY.hierarchy,
            mpppb_config=MPPPBConfig(features=table_1a_features()),
            warmup_fraction=0.25,
        )
        defaults.update(overrides)
        return SingleCell(**defaults)

    def test_key_stable_for_equal_cells(self):
        assert stable_hash(self._cell().key_payload()) == \
            stable_hash(self._cell().key_payload())

    def test_key_changes_with_hierarchy(self):
        other = self._cell(hierarchy=TINY.multi_hierarchy)
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())

    def test_key_changes_with_timing(self):
        other = self._cell(timing=TimingConfig(dram_latency=321))
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())

    def test_key_changes_with_policy_config(self):
        config = MPPPBConfig(features=table_1a_features(), taus=(71, 30, 0))
        other = self._cell(mpppb_config=config)
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())

    def test_key_changes_with_trace_spec(self):
        other = self._cell(
            trace=TraceSpec("soplex", TINY.hierarchy.llc_bytes, 4_001))
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())

    def test_key_changes_with_warmup(self):
        other = self._cell(warmup_fraction=0.3)
        assert stable_hash(self._cell().key_payload()) != \
            stable_hash(other.key_payload())


class TestResultStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        key = stable_hash({"cell": 1})
        assert store.get(key) is None
        store.put(key, {"kind": "single", "result": {"x": 1.5}})
        payload = store.get(key)
        assert payload["result"] == {"x": 1.5}
        assert payload["kind"] == "single"
        assert payload["schema"] == SCHEMA_VERSION
        assert (store.stats.hits, store.stats.misses, store.stats.stores) == (1, 1, 1)

    def test_persists_across_instances(self, tmp_path):
        root = tmp_path / "cache"
        ResultStore(root).put("ab" * 32, {"kind": "mix", "result": [1, 2]})
        fresh = ResultStore(root)
        assert fresh.get("ab" * 32)["result"] == [1, 2]
        assert fresh.stats.hits == 1

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "cd" * 32
        store.put(key, {"kind": "single", "result": 1})
        path = store._path(key)
        blob = json.loads(path.read_text())
        blob["schema"] = SCHEMA_VERSION - 1
        path.write_text(json.dumps(blob))
        assert store.get(key) is None

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        key = "ef" * 32
        store.put(key, {"kind": "single", "result": 1})
        store._path(key).write_text("{not json")
        assert store.get(key) is None

    def test_eviction_drops_oldest(self, tmp_path):
        store = ResultStore(tmp_path, max_entries=2)
        keys = [f"{i:02d}" + "a" * 62 for i in range(3)]
        for age, key in enumerate(keys):
            store.put(key, {"kind": "single", "result": age})
            # Force distinct, ordered mtimes so LRU order is deterministic.
            os.utime(store._path(key), (1_000_000 + age, 1_000_000 + age))
        store.put("ff" + "a" * 62, {"kind": "single", "result": 99})
        assert store.get(keys[0]) is None          # oldest evicted
        assert store.get(keys[2])["result"] == 2   # newer survives
        assert store.stats.evictions >= 1
        assert len(store) <= 2 + 1  # cap plus the blob that triggered eviction

    def test_rejects_nonpositive_max_entries(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, max_entries=0)


def _hammer(root: str, worker: int, count: int, max_entries: int) -> list:
    """Write ``count`` blobs into a shared store; returns the keys used.

    Runs in a child process: two of these interleaving put/_evict/
    _rewrite_index against one directory is the concurrent-writer
    scenario the advisory lock serializes.
    """
    store = ResultStore(root, max_entries=max_entries)
    keys = []
    for i in range(count):
        key = stable_hash({"worker": worker, "i": i})
        store.put(key, {"kind": "single", "result": [worker, i]})
        keys.append(key)
    return keys


class TestTieredStore:
    def _tiered(self, tmp_path, **kwargs):
        from repro.exec.store import TieredResultStore

        return TieredResultStore(tmp_path / "local", tmp_path / "shared",
                                 **kwargs)

    def test_write_back_lands_in_both_tiers(self, tmp_path):
        store = self._tiered(tmp_path)
        store.put("ab" * 32, {"kind": "single", "result": 1})
        assert ResultStore(tmp_path / "local").get("ab" * 32)["result"] == 1
        assert ResultStore(tmp_path / "shared").get("ab" * 32)["result"] == 1
        assert store.tier_counts()["shared_fills"] == 1

    def test_read_through_fills_local_and_counts_hit(self, tmp_path):
        key = "cd" * 32
        ResultStore(tmp_path / "shared").put(key, {"kind": "single",
                                                   "result": 7})
        store = self._tiered(tmp_path)
        payload = store.get(key)
        assert payload["result"] == 7
        assert store.last_tier == "shared"
        assert (store.stats.hits, store.stats.misses) == (1, 0)
        assert store.tier_counts()["shared_hits"] == 1
        # The blob was promoted: a second lookup is a local hit.
        assert store.get(key)["result"] == 7
        assert store.last_tier == "local"
        assert store.tier_counts()["local_hits"] == 1

    def test_bytes_read_through(self, tmp_path):
        key = "ef" * 32
        ResultStore(tmp_path / "shared").put_bytes(key, b"artifact")
        store = self._tiered(tmp_path)
        assert store.get_bytes(key) == b"artifact"
        assert store.last_tier == "shared"
        assert store.get_bytes(key) == b"artifact"
        assert store.last_tier == "local"
        assert store.tier_counts() == {"local_hits": 1, "shared_hits": 1,
                                       "shared_fills": 0, "breaker_trips": 0,
                                       "breaker_skips": 0, "breaker_open": 0}

    def test_both_tiers_missing_is_a_miss(self, tmp_path):
        store = self._tiered(tmp_path)
        assert store.get("01" * 32) is None
        assert store.stats.misses == 1
        assert store.tier_counts()["shared_hits"] == 0

    def test_half_written_shared_blob_is_a_miss(self, tmp_path):
        key = "23" * 32
        store = self._tiered(tmp_path)
        shared_path = store.shared._path(key)
        shared_path.parent.mkdir(parents=True, exist_ok=True)
        shared_path.write_text('{"kind": "single", "resu')  # torn write
        assert store.get(key) is None
        assert store.stats.misses == 1
        assert store.tier_counts()["shared_hits"] == 0

    def test_stat_bytes_reports_the_holding_tier(self, tmp_path):
        store = self._tiered(tmp_path)
        ResultStore(tmp_path / "shared").put_bytes("45" * 32, b"xyzab")
        assert store.stat_bytes("45" * 32) == 5
        store.put_bytes("67" * 32, b"xy")
        assert store.stat_bytes("67" * 32) == 2
        assert store.stat_bytes("89" * 32) is None

    def test_resolve_shared_honors_env_and_sentinels(self, monkeypatch):
        from repro.config import resolve_config

        def shared(flag=None):
            return resolve_config({"shared_store": flag}).shared_store

        monkeypatch.delenv("REPRO_SHARED_STORE", raising=False)
        assert shared() is None
        assert shared("/mnt/shared") == "/mnt/shared"
        assert shared("off") is None
        monkeypatch.setenv("REPRO_SHARED_STORE", "/mnt/env")
        assert shared() == "/mnt/env"
        monkeypatch.setenv("REPRO_SHARED_STORE", "none")
        assert shared() is None

    def test_make_store_picks_the_tiering(self, tmp_path):
        from repro.exec.store import TieredResultStore, make_store

        plain = make_store(tmp_path / "a")
        assert not isinstance(plain, TieredResultStore)
        tiered = make_store(tmp_path / "a", str(tmp_path / "b"))
        assert isinstance(tiered, TieredResultStore)


class TestGcVsConcurrentFill:
    def test_compaction_keeps_blobs_that_landed_mid_gc(self, tmp_path):
        # Deterministic replay of the race: a read-through fill lands
        # between gc's ranking snapshot and its index compaction.  The
        # rewritten index must keep the newcomer's recency entry, or
        # the next eviction pass treats it as the oldest blob.
        store = ResultStore(tmp_path)
        keys = [f"{i:02d}" + "a" * 62 for i in range(3)]
        for key in keys:
            store.put(key, {"kind": "single", "result": 0})
        ranked = store._ranked_blobs()
        late_key = "ff" + "b" * 62
        store.put(late_key, {"kind": "single", "result": 9})  # the racer
        store._drop(ranked[:2], ranked[2:])
        index = (tmp_path / "index.log").read_text().splitlines()
        assert f"{late_key[:2]}/{late_key}.json" in index
        assert store._count == 2
        assert store.get(late_key)["result"] == 9


def _gc_hammer(root: str, rounds: int) -> int:
    """Child process: repeatedly gc the local tier while fills land."""
    store = ResultStore(root)
    removed = 0
    for _ in range(rounds):
        removed += store.gc(max_entries=4)
    return removed


def _fill_hammer(local_root: str, shared_root: str, rounds: int,
                 keys: list) -> int:
    """Child process: read-through fills from the shared tier."""
    from repro.exec.store import TieredResultStore

    store = TieredResultStore(local_root, shared_root)
    hits = 0
    for i in range(rounds):
        if store.get(keys[i % len(keys)]) is not None:
            hits += 1
    return hits


class TestGcVsFillTwoProcesses:
    def test_gc_and_read_through_fills_stay_consistent(self, tmp_path):
        import re
        from concurrent.futures import ProcessPoolExecutor

        local = tmp_path / "local"
        shared = tmp_path / "shared"
        seed = ResultStore(shared)
        keys = [stable_hash({"blob": i}) for i in range(12)]
        for i, key in enumerate(keys):
            seed.put(key, {"kind": "single", "result": i})

        with ProcessPoolExecutor(max_workers=2) as pool:
            fills = pool.submit(_fill_hammer, str(local), str(shared),
                                120, keys)
            gcs = pool.submit(_gc_hammer, str(local), 120)
            # Every lookup hit: the shared tier is never gc'd, so a
            # concurrently evicted local blob reads straight through.
            assert fills.result() == 120
            assert gcs.result() >= 1

        # The surviving local tier is structurally sound...
        survivor = ResultStore(local)
        for blob in survivor._blobs():
            payload = json.loads(blob.read_text())
            assert payload["schema"] == SCHEMA_VERSION
        pattern = re.compile(r"^[0-9a-f]{2}/[0-9a-f]{64}\.(json|bin)$")
        for line in (local / "index.log").read_text().splitlines():
            assert pattern.match(line), line
        # ...and every key still resolves with its original payload.
        from repro.exec.store import TieredResultStore

        final = TieredResultStore(local, shared)
        for i, key in enumerate(keys):
            assert final.get(key)["result"] == i


class TestConcurrentWriters:
    def _run_pair(self, tmp_path, count, max_entries):
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(_hammer, str(tmp_path), worker, count,
                                   max_entries)
                       for worker in (1, 2)]
            return [f.result() for f in futures]

    def test_interleaved_eviction_keeps_store_consistent(self, tmp_path):
        import re

        self._run_pair(tmp_path, count=60, max_entries=20)
        store = ResultStore(tmp_path, max_entries=20)
        # Every surviving blob parses and carries the schema stamp.
        for blob in store._blobs():
            payload = json.loads(blob.read_text())
            assert payload["schema"] == SCHEMA_VERSION
        # The compacted index holds only well-formed relative paths.
        pattern = re.compile(r"^[0-9a-f]{2}/[0-9a-f]{64}\.(json|bin)$")
        for line in (tmp_path / "index.log").read_text().splitlines():
            assert pattern.match(line), line
        # And the store still works.
        store.put("ab" * 32, {"kind": "single", "result": 1})
        assert store.get("ab" * 32)["result"] == 1

    def test_no_eviction_loses_no_acknowledged_write(self, tmp_path):
        key_sets = self._run_pair(tmp_path, count=25, max_entries=100_000)
        store = ResultStore(tmp_path)
        for worker, keys in zip((1, 2), key_sets):
            for i, key in enumerate(keys):
                payload = store.get(key)
                assert payload is not None, key
                assert payload["result"] == [worker, i]
