"""Tests for run manifests and CLI ``resume``.

The manifest turns the store's implicit resumability into explicit
state: interrupted/failed runs can be listed, and ``repro.cli resume``
re-drives exactly the unfinished cells (the completed ones are store
hits).
"""

import json

from repro.cli import main
from repro.config import TINY
from repro.exec import runner as exec_runner
from repro.exec import (
    ParallelRunner,
    ResultStore,
    RunManifest,
    SingleCell,
    TraceSpec,
    list_runs,
    stable_hash,
)

CELLS = [
    ("a" * 64, "gamess/lru", "single"),
    ("b" * 64, "soplex/lru", "single"),
    ("c" * 64, "mcf/lru", "single"),
]


class TestRunManifest:
    def test_lifecycle(self, tmp_path):
        manifest = RunManifest.create(tmp_path, label="t",
                                      command=["compare"], cells=CELLS)
        assert manifest.pending() == {key for key, _, _ in CELLS}
        assert not manifest.is_complete

        manifest.mark(CELLS[0][0], "done")
        manifest.mark(CELLS[1][0], "failed")
        assert manifest.completed() == {CELLS[0][0]}
        assert manifest.pending() == {CELLS[1][0], CELLS[2][0]}
        assert "1/3 cells done, 1 failed" == manifest.progress()

        # A failed cell that later succeeds becomes done.
        manifest.mark(CELLS[1][0], "done")
        manifest.mark(CELLS[2][0], "done")
        assert manifest.is_complete

    def test_reopen_continues_completion_log(self, tmp_path):
        first = RunManifest.create(tmp_path, label="t",
                                   command=["compare"], cells=CELLS)
        first.mark(CELLS[0][0], "done")
        again = RunManifest.create(tmp_path, label="t",
                                   command=["compare"], cells=CELLS)
        assert again.run_id == first.run_id
        assert again.completed() == {CELLS[0][0]}

    def test_load_and_list(self, tmp_path):
        created = RunManifest.create(tmp_path, label="t",
                                     command=["compare", "--scale", "tiny"],
                                     cells=CELLS)
        loaded = RunManifest.load(tmp_path, created.run_id)
        assert loaded is not None
        assert loaded.command == ["compare", "--scale", "tiny"]
        assert loaded.cells == created.cells
        assert [m.run_id for m in list_runs(tmp_path)] == [created.run_id]

    def test_unreadable_manifest_is_skipped(self, tmp_path):
        RunManifest.create(tmp_path, label="t", command=[], cells=CELLS)
        (tmp_path / "runs" / "zz.json").write_text("not json")
        assert len(list_runs(tmp_path)) == 1

    def test_runner_records_manifest(self, tmp_path):
        cells = [
            SingleCell(
                trace=TraceSpec(name, TINY.hierarchy.llc_bytes, 2_000),
                policy="lru",
                hierarchy=TINY.hierarchy,
                warmup_fraction=TINY.warmup_fraction,
            )
            for name in ("gamess", "soplex")
        ]
        engine = ParallelRunner(jobs=1, store=ResultStore(tmp_path),
                                verbose=False, command=["compare", "-x"])
        engine.run(cells, label="t")
        manifest = engine.last_manifest
        assert manifest is not None
        assert manifest.is_complete
        assert manifest.command == ["compare", "-x"]
        assert set(manifest.cells) == {stable_hash(c.key_payload())
                                       for c in cells}

    def test_single_cell_runs_skip_manifest(self, tmp_path):
        cell = SingleCell(
            trace=TraceSpec("gamess", TINY.hierarchy.llc_bytes, 2_000),
            policy="lru",
            hierarchy=TINY.hierarchy,
            warmup_fraction=TINY.warmup_fraction,
        )
        engine = ParallelRunner(jobs=1, store=ResultStore(tmp_path),
                                verbose=False)
        engine.run([cell])
        assert engine.last_manifest is None
        assert list_runs(tmp_path) == []


class TestTornDoneLog:
    """A crash mid-append must never wedge replay of the ``.done`` log."""

    def _create(self, tmp_path):
        return RunManifest.create(tmp_path, label="t",
                                  command=["compare"], cells=CELLS)

    def test_torn_final_line_is_skipped(self, tmp_path):
        manifest = self._create(tmp_path)
        manifest.mark(CELLS[0][0], "done")
        # Simulate a torn write: the second record lost its tail.
        with open(manifest.done_path, "a", encoding="utf-8") as handle:
            handle.write(f"done {CELLS[1][0][:20]}")
        reopened = self._create(tmp_path)
        assert reopened.completed() == {CELLS[0][0]}
        assert reopened.pending() == {CELLS[1][0], CELLS[2][0]}

    def test_mark_after_torn_tail_starts_a_fresh_line(self, tmp_path):
        manifest = self._create(tmp_path)
        manifest.mark(CELLS[0][0], "done")
        with open(manifest.done_path, "a", encoding="utf-8") as handle:
            handle.write("done ")  # record cut mid-write
        reopened = self._create(tmp_path)
        reopened.mark(CELLS[1][0], "done")
        # The new record must not have fused with the torn fragment.
        final = self._create(tmp_path)
        assert final.completed() == {CELLS[0][0], CELLS[1][0]}
        text = manifest.done_path.read_text(encoding="utf-8")
        assert f"done \ndone {CELLS[1][0]}\n" in text

    def test_garbage_status_lines_are_skipped(self, tmp_path):
        manifest = self._create(tmp_path)
        with open(manifest.done_path, "a", encoding="utf-8") as handle:
            handle.write(f"d\x00ne {CELLS[0][0]}\n")
            handle.write(f"done {CELLS[1][0]}\n")
        reopened = self._create(tmp_path)
        assert reopened.completed() == {CELLS[1][0]}

    def test_fsync_knob_still_appends_records(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_MANIFEST_FSYNC", "1")
        manifest = self._create(tmp_path)
        manifest.mark(CELLS[0][0], "done")
        assert self._create(tmp_path).completed() == {CELLS[0][0]}


class TestExecFlagStripping:
    def test_strips_space_and_equals_forms(self):
        from repro.exec.manifest import strip_exec_flags

        argv = ["compare", "--jobs", "4", "--scale", "tiny", "--jobs=2"]
        assert strip_exec_flags(argv) == ["compare", "--scale", "tiny"]

    def test_run_id_ignores_exec_flags(self, tmp_path):
        base = RunManifest.create(
            tmp_path, label="t", command=["compare", "--scale", "tiny"],
            cells=CELLS)
        redone = RunManifest.create(
            tmp_path, label="t",
            command=["compare", "--scale", "tiny", "--jobs", "8"],
            cells=CELLS)
        assert redone.run_id == base.run_id

    def test_exec_info_updates_without_losing_progress(self, tmp_path):
        first = RunManifest.create(
            tmp_path, label="t", command=["compare"], cells=CELLS,
            exec_info={"jobs": "1"})
        first.mark(CELLS[0][0], "done")
        again = RunManifest.create(
            tmp_path, label="t", command=["compare"], cells=CELLS,
            exec_info={"jobs": "2"})
        assert again.run_id == first.run_id
        assert again.completed() == {CELLS[0][0]}  # .done log untouched
        loaded = RunManifest.load(tmp_path, first.run_id)
        assert loaded.exec_info == {"jobs": "2"}

    def test_runner_records_jobs_in_manifest(self, tmp_path):
        cells = [
            SingleCell(
                trace=TraceSpec(name, TINY.hierarchy.llc_bytes, 2_000),
                policy="lru",
                hierarchy=TINY.hierarchy,
                warmup_fraction=TINY.warmup_fraction,
            )
            for name in ("gamess", "soplex")
        ]
        engine = ParallelRunner(jobs=2, store=ResultStore(tmp_path),
                                verbose=False, command=["compare", "-x"])
        engine.run(cells, label="t")
        manifest = engine.last_manifest
        assert manifest.exec_info == {"jobs": "2"}
        assert RunManifest.load(tmp_path, manifest.run_id).exec_info \
            == manifest.exec_info


class TestCliResume:
    def _victim_key(self):
        scale = TINY
        cell = SingleCell(
            trace=TraceSpec("soplex", scale.hierarchy.llc_bytes,
                            scale.segment_accesses),
            policy="lru",
            hierarchy=scale.hierarchy,
            warmup_fraction=scale.warmup_fraction,
        )
        return stable_hash(cell.key_payload())

    def test_failed_run_resumes_pending_cells_only(self, tmp_path,
                                                   monkeypatch, capsys):
        cache = str(tmp_path / "cache")
        argv = ["compare", "--benchmarks", "gamess", "soplex",
                "--policies", "lru", "--scale", "tiny", "--cache-dir", cache]
        victim = self._victim_key()
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"raise:key={victim[:16]},times=99")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "1 cell(s) failed" in err
        assert "resume with" in err

        [manifest] = list_runs(cache)
        assert manifest.pending() == {victim}
        assert manifest.command == argv

        monkeypatch.delenv("REPRO_FAULT_INJECT")
        assert main(["resume", manifest.run_id[:12],
                     "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        # The completed cell is a store hit; only the victim recomputes.
        assert "hits=1/2" in out
        [manifest] = list_runs(cache)
        assert manifest.is_complete

    def _fail_victim(self, argv, monkeypatch, capsys):
        """Run ``argv`` with the victim cell failing; its manifest."""
        victim = self._victim_key()
        monkeypatch.setattr(exec_runner, "RETRY_BACKOFF_S", 0)
        monkeypatch.setenv("REPRO_FAULT_INJECT",
                           f"raise:key={victim[:16]},times=99")
        assert main(argv) == 1
        capsys.readouterr()
        monkeypatch.delenv("REPRO_FAULT_INJECT")
        [manifest] = list_runs(argv[argv.index("--cache-dir") + 1])
        return manifest

    def test_resume_honors_exec_overrides(self, tmp_path, monkeypatch,
                                          capsys):
        cache = str(tmp_path / "cache")
        argv = ["compare", "--benchmarks", "gamess", "soplex",
                "--policies", "lru", "--scale", "tiny",
                "--cache-dir", cache, "--jobs", "1"]
        run_id = self._fail_victim(argv, monkeypatch, capsys).run_id

        assert main(["resume", run_id[:12], "--cache-dir", cache,
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "--jobs 2" in out  # overrides in the re-driven argv
        assert "--jobs 1" not in out
        # Exec flags never enter the run id: the same manifest was
        # reopened, finished, and now records the overridden settings.
        [manifest] = list_runs(cache)
        assert manifest.run_id == run_id
        assert manifest.is_complete
        assert manifest.exec_info["jobs"] == "2"

    def test_resume_drops_retired_backend_flags(self, tmp_path, monkeypatch,
                                                capsys):
        # A run recorded with the retired exec flags: --backend, a
        # fleet's integer --workers and --hedge.  Exec flags never
        # entered the run id, so the recorded manifest is the one a
        # --jobs 2 run opens; only its command line carries the old
        # flags.
        cache = str(tmp_path / "cache")
        argv = ["compare", "--benchmarks", "gamess", "soplex",
                "--policies", "lru", "--scale", "tiny",
                "--cache-dir", cache, "--jobs", "2"]
        manifest = self._fail_victim(argv, monkeypatch, capsys)
        run_id = manifest.run_id
        payload = json.loads(manifest.path.read_text(encoding="utf-8"))
        payload["command"] = argv + ["--backend", "fleet", "--workers", "2",
                                     "--hedge", "2.0", "--hedge=3"]
        payload["exec"] = {"backend": "fleet", "jobs": "2", "workers": "2"}
        manifest.path.write_text(json.dumps(payload), encoding="utf-8")

        assert main(["resume", run_id[:12], "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "--backend" not in out
        assert "--workers" not in out
        assert "--hedge" not in out
        [manifest] = list_runs(cache)
        assert manifest.run_id == run_id
        assert manifest.is_complete
        assert manifest.command == argv
        assert manifest.exec_info == {"jobs": "2"}

    def test_resume_drops_retired_mesh_flags(self, tmp_path, monkeypatch,
                                             capsys):
        # A run recorded with ssh workers and a shared store tier, in
        # the space and ``=`` forms.  Neither entered the run id, so
        # the recorded manifest is the one a --jobs 2 run opens.
        cache = str(tmp_path / "cache")
        argv = ["compare", "--benchmarks", "gamess", "soplex",
                "--policies", "lru", "--scale", "tiny",
                "--cache-dir", cache, "--jobs", "2"]
        manifest = self._fail_victim(argv, monkeypatch, capsys)
        run_id = manifest.run_id
        shared = str(tmp_path / "shared")
        payload = json.loads(manifest.path.read_text(encoding="utf-8"))
        payload["command"] = argv + [
            "--workers", "node-a:2", "--shared-store", shared,
            "--workers=node-b", f"--shared-store={shared}"]
        payload["exec"] = {"backend": "ssh", "jobs": "2",
                           "workers": "node-a:2", "shared_store": shared}
        manifest.path.write_text(json.dumps(payload), encoding="utf-8")

        assert main(["resume", run_id[:12], "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "--workers" not in out
        assert "--shared-store" not in out
        [manifest] = list_runs(cache)
        assert manifest.run_id == run_id
        assert manifest.is_complete
        assert manifest.command == argv
        assert manifest.exec_info == {"jobs": "2"}

    def test_resume_drops_retired_batch_size(self, tmp_path, capsys):
        # A search recorded with the retired --batch-size, in both
        # forms.  Unlike the exec flags it entered the run id, so the
        # re-driven search opens a new manifest; the candidates the
        # old run finished are still store hits.
        cache = str(tmp_path / "cache")
        argv = ["search", "--candidates", "4", "--steps", "0",
                "--scale", "tiny", "--cache-dir", cache]
        assert main(argv) == 0
        capsys.readouterr()
        [done] = list_runs(cache)
        old = RunManifest.create(
            cache, label=done.label,
            command=argv + ["--batch-size", "2", "--batch-size=3"],
            cells=[(key, cell["label"], cell["kind"])
                   for key, cell in done.cells.items()])
        assert old.run_id != done.run_id

        assert main(["resume", old.run_id[:12], "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "--batch-size" not in out
        assert "hits=4/4" in out

    def test_resume_lists_runs(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["resume", "--cache-dir", cache]) == 0
        assert "no recorded runs" in capsys.readouterr().out

        RunManifest.create(cache, label="t",
                           command=["compare", "--scale", "tiny"], cells=CELLS)
        assert main(["resume", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "resumable" in out
        assert "compare --scale tiny" in out

    def test_resume_rejects_unknown_and_ambiguous(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["resume", "feed", "--cache-dir", cache]) == 2
        assert "no recorded run" in capsys.readouterr().err

    def test_resume_needs_cache(self, capsys):
        assert main(["resume", "--cache-dir", "off"]) == 2
        assert "result cache" in capsys.readouterr().err

    def test_complete_run_is_a_no_op(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        manifest = RunManifest.create(cache, label="t", command=["compare"],
                                      cells=CELLS[:1])
        manifest.mark(CELLS[0][0], "done")
        assert main(["resume", manifest.run_id[:12],
                     "--cache-dir", cache]) == 0
        assert "already complete" in capsys.readouterr().out

    def test_library_run_cannot_be_resumed(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        manifest = RunManifest.create(cache, label="lib", command=[],
                                      cells=CELLS)
        assert main(["resume", manifest.run_id[:12],
                     "--cache-dir", cache]) == 2
        assert "library" in capsys.readouterr().err
