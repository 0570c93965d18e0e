"""Batch input counters (repro.graph).

Covers the planner's lowering of real cells — consumer counts per
trace and Stage-1 input, loads versus computes against the store, for
single, mix and search cells — plus the engine contracts: the counts
read the artifact store the workers read, and corrupt or truncated
blobs degrade to misses (the full pinned-hash matrix lives in
test_determinism.py).
"""

import dataclasses

import pytest

from repro.config import TINY
from repro.core.presets import table_1b_features
from repro.exec import (
    MixCell,
    ParallelRunner,
    SearchCell,
    SingleCell,
    SuiteSpec,
    TraceSpec,
)
from repro.exec.artifacts import stage1_key, scope_payload
from repro.exec.cachekey import stable_hash
from repro.exec.store import ResultStore
from repro.graph import plan_cells
from repro.traces.workloads import segment_names

ACCESSES = 2_000
POLICIES = ("lru", "mpppb-1a", "srrip")


def _clear_memos():
    from repro.exec import runner as exec_runner

    exec_runner._SEGMENTS.clear()
    exec_runner._RUNNERS.clear()
    exec_runner._ARTIFACTS.clear()


def _cells(benchmark="gamess", policies=POLICIES):
    return [
        SingleCell(
            trace=TraceSpec(benchmark, TINY.hierarchy.llc_bytes, ACCESSES),
            policy=policy,
            hierarchy=TINY.hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        for policy in policies
    ]


def _items(cells):
    return [(cell, stable_hash(cell.key_payload())) for cell in cells]


def _result_hash(cells, results):
    return stable_hash({"results": [r.to_dict() for r in results]})


# -- planner lowering ------------------------------------------------------


class TestPlanner:
    def test_shared_nodes_deduplicated(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        counts = plan_cells(_items(_cells()), store)
        names = segment_names("gamess")
        # One trace + one stage1 node per segment, regardless of the
        # number of policies sharing them; every one has all of the
        # policies as consumers.
        assert counts["nodes"] == 1 + len(names)
        assert counts["shared"] == 1 + len(names)
        # Cold store: everything computes.
        assert counts["computes"] == counts["nodes"]
        assert counts["loads"] == 0

    def test_disjoint_benchmarks_not_shared(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        cells = _cells("gamess", ("lru",)) + _cells("soplex", ("lru",))
        counts = plan_cells(_items(cells), store)
        assert counts["shared"] == 0

    def test_materialized_blobs_load_with_default_costs(self, tmp_path):
        """Inputs the store already holds count as loads, however many
        cells share them."""
        _clear_memos()  # the seed run must write to *this* store
        store = ResultStore(tmp_path / "cache")
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        engine.run(_cells(), label="seed")
        counts = plan_cells(_items(_cells(policies=("drrip", "ship"))), store)
        assert counts["loads"] == counts["nodes"] > 0
        assert counts["computes"] == 0
        assert counts["shared"] == counts["nodes"]

    def test_mix_cells_share_the_trace_but_not_stage1(self, tmp_path):
        """Two mixes drawing different segments of one benchmark need
        the same trace and disjoint Stage-1 inputs."""
        store = ResultStore(tmp_path / "cache")
        suite = SuiteSpec(TINY.hierarchy.llc_bytes, ACCESSES)
        names = segment_names("soplex")
        assert len(names) >= 2
        cells = [
            MixCell(suite=suite, mix_name=f"mix-{name}",
                    segment_names=(name,), policy="lru",
                    hierarchy=TINY.multi_hierarchy,
                    warmup_fraction=TINY.warmup_fraction)
            for name in names[:2]
        ]
        counts = plan_cells(_items(cells), store)
        assert counts["nodes"] == 3  # one trace, two Stage-1 keys
        assert counts["shared"] == 1

    def test_search_cells_share_every_input(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        suite = SuiteSpec(TINY.hierarchy.llc_bytes, ACCESSES,
                          names=("gamess", "soplex"))
        features = table_1b_features()
        cells = [
            SearchCell(suite=suite, features=features[:size],
                       hierarchy=TINY.hierarchy,
                       warmup_fraction=TINY.warmup_fraction)
            for size in (len(features), len(features) - 1,
                         len(features) - 2)
        ]
        counts = plan_cells(_items(cells), store)
        benchmarks = ("gamess", "soplex")
        nodes = sum(1 + len(segment_names(name)) for name in benchmarks)
        assert counts["nodes"] == counts["shared"] == nodes
        assert counts["computes"] == nodes


# -- end-to-end execution contracts ----------------------------------------


class TestGraphExecution:
    def test_counts_read_the_artifact_store(self, tmp_path):
        """An engine whose results go to a fresh store B while its
        artifacts come from a store A filled by a cold drive (the e2e
        warm pass) counts every input as a load from A."""
        _clear_memos()
        cells = _cells()
        cold = ParallelRunner(jobs=1, store=ResultStore(tmp_path / "a"),
                              verbose=False)
        cold.run(cells, label="cold")
        assert cold.last_report.graph_computes == \
            cold.last_report.graph_nodes > 0
        _clear_memos()
        warm = ParallelRunner(jobs=1, store=ResultStore(tmp_path / "b"),
                              verbose=False)
        warm.artifact_root = str(tmp_path / "a")
        warm.run(cells, label="warm")
        report = warm.last_report
        assert report.hits == 0
        assert report.graph_loads == report.graph_nodes > 0
        assert report.graph_computes == 0

    @pytest.mark.parametrize("damage", ["truncate", "corrupt"])
    def test_damaged_stage1_blob_is_a_miss(self, damage, tmp_path):
        _clear_memos()
        store = ResultStore(tmp_path / "cache")
        cells = _cells()
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        baseline = _result_hash(cells, engine.run(cells, label="seed"))

        spec = cells[0].trace
        scope = scope_payload(spec.llc_bytes, spec.accesses, spec.seed)
        hpayload = dataclasses.asdict(TINY.hierarchy)
        name = segment_names("gamess")[0]
        key = stage1_key(scope, name, hpayload, True)
        blob = store.get_bytes(key)
        assert blob is not None
        if damage == "truncate":
            store.put_bytes(key, blob[: len(blob) // 2])
        else:
            store.put_bytes(key, b"XXXX" + blob[4:])

        for result in list(store.root.glob("??/*.json")):
            result.unlink()
        _clear_memos()
        engine = ParallelRunner(jobs=1, store=store, verbose=False)
        rerun = _result_hash(cells, engine.run(cells, label="damaged"))
        assert rerun == baseline
        # The damaged blob registered as a miss and was rebuilt.
        assert engine.last_report.stage1_misses >= 1
        rebuilt = store.get_bytes(key)
        assert rebuilt is not None and rebuilt != blob[: len(blob) // 2]
