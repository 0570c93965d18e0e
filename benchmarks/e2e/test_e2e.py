"""Self-test of the end-to-end benchmark at tiny scale.

Run with ``pytest benchmarks/e2e -q``.  Two invocations of ``run.py``:
one with untraced and traced repetitions, one untraced only.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("fig67-grid", "lru-sweep", "fig3-search", "fig4-mixes")


def _invoke(out: Path, *extra: str):
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "tiny",
         "--repeats", "1", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert completed.returncode == 0, completed.stderr + completed.stdout
    record = json.loads(out.read_text(encoding="utf-8"))
    final = json.loads(completed.stdout.strip().splitlines()[-1])
    return record, final


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("e2e")
    return _invoke(base / "full.json"), _invoke(base / "untraced.json",
                                                "--trace", "0")


def test_every_declared_metric_is_emitted_with_its_unit(runs):
    (_, final), _ = runs
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    metrics = declared["end_to_end"] + declared["per_layer"]
    assert set(final["metrics"]) == {f"{workload}/{metric['name']}"
                                     for workload in WORKLOADS
                                     for metric in metrics}
    for workload in WORKLOADS:
        for metric in metrics:
            emitted = final["metrics"][f"{workload}/{metric['name']}"]
            assert emitted["unit"] == metric["unit"], metric["name"]
            assert isinstance(emitted["value"], (int, float))


def test_no_cell_fails_and_every_check_holds(runs):
    (record, final), _ = runs
    assert final["correct"] is True
    assert final["failed"] == 0 and final["attempted"] > 0
    for summary in record["workloads"]:
        assert summary["fail_frac"] == 0, summary["errors"]
        assert summary["errors"] == []


def test_results_sha_is_stable_across_invocations_and_tracing(runs):
    (full, _), (untraced, _) = runs
    first = {s["workload"]: s for s in full["workloads"]}
    second = {s["workload"]: s for s in untraced["workloads"]}
    for workload in WORKLOADS:
        shas = first[workload]["shas"]
        assert len(shas["untraced"]) == 1 and len(shas["traced"]) == 1
        assert shas["untraced"] == shas["traced"]
        assert second[workload]["results_sha"] == first[workload]["results_sha"]


def test_wrappers_are_removed_and_self_time_fits_the_wall(runs):
    (record, _), _ = runs
    for summary in record["workloads"]:
        for rep in summary["layers"]:
            for trace in rep.values():
                assert trace["wrappers_removed"] is True
                top = sum(entry["self_s"]
                          for name, entry in trace["layers"].items()
                          if "." not in name)
                assert 0 < top <= trace["wall_s"]
                assert trace["unattributed_s"] >= 0


def test_install_and_uninstall_restore_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import layers

    before = _entry_points(layers)
    tracer = layers.Tracer()
    tracer.install()
    assert all(now is not original
               for now, original in zip(_entry_points(layers), before))
    assert tracer.uninstall() is True
    assert _entry_points(layers) == before


def _entry_points(layers):
    import importlib

    found = []
    for _, module_name, target, _, _ in layers.ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        for part in target.split("."):
            owner = vars(owner)[part]
        found.append(owner)
    return found
