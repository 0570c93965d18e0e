"""Tests for the command-line interface."""

import hashlib

import pytest

from repro import cli
from repro.cli import build_parser, main

# sha256 over ``repr((name, confidences, labels))`` of the three
# predictors ``roc --scale tiny`` measures, in the order it prints them.
ROC_HASH = "c2d04501734d75ed1bfbde36864b6565c37613215fef82e2a600c9e418162422"

class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.policies == ["lru", "mpppb-1a", "min"]
        assert args.scale == ""

    def test_compare_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--policies", "clock"])

    def test_roc_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["roc", "--benchmark", "nope"])

    def test_search_arguments(self):
        args = build_parser().parse_args(
            ["search", "--candidates", "5", "--steps", "3", "--seed", "1"])
        assert (args.candidates, args.steps, args.seed) == (5, 3, 1)

    def test_mix_arguments(self):
        args = build_parser().parse_args(["mix", "--mixes", "2"])
        assert args.mixes == 2

    def test_telemetry_flag(self):
        args = build_parser().parse_args(["compare", "--telemetry"])
        assert args.telemetry is True
        assert build_parser().parse_args(["compare"]).telemetry is False

    def test_stats_arguments(self):
        args = build_parser().parse_args(["stats"])
        assert not args.run_id
        assert args.top == 12
        args = build_parser().parse_args(["stats", "abc123", "--top", "0"])
        assert args.run_id == "abc123"
        assert args.top == 0


class TestExecution:
    def test_compare_unknown_benchmark_fails_cleanly(self, capsys):
        code = main(["compare", "--benchmarks", "not_a_benchmark",
                     "--scale", "tiny"])
        assert code == 2
        assert "unknown benchmarks" in capsys.readouterr().err

    def test_compare_runs_tiny(self, capsys):
        code = main(["compare", "--benchmarks", "gamess",
                     "--policies", "lru", "min", "--scale", "tiny",
                     "--cache-dir", "off"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gamess" in out
        assert "geomean" in out

    def test_mix_without_lru_prints_raw(self, capsys):
        code = main(["mix", "--mixes", "2", "--policies", "srrip",
                     "--scale", "tiny", "--cache-dir", "off"])
        assert code == 0
        assert "raw weighted speedups" in capsys.readouterr().out

    def test_mix_with_trace_file(self, tmp_path, monkeypatch, capsys):
        """An ingested trace joins the pool the mixes are drawn from,
        and a mix over one of its segments runs."""
        path = tmp_path / "fixture.trace"
        path.write_text("".join(
            f"0x{0x400 + 4 * (i % 97):x} 0x{0x10000 + 64 * (i % 512):x} "
            f"{'w' if i % 5 == 0 else 'r'} {i % 3}\n"
            for i in range(1_200)))
        drawn = []
        draw = cli.draw_mixes

        def spy(names, count):
            drawn.append((names, draw(names, count)))
            return drawn[-1][1]

        monkeypatch.setattr(cli, "draw_mixes", spy)
        code = main(["mix", "--mixes", "1", "--policies", "lru", "srrip",
                     "--scale", "tiny", "--cache-dir", "off",
                     "--trace-file", str(path), "--trace-name", "trace",
                     "--trace-accesses", "600", "--trace-segments", "2"])
        assert code == 0
        [(names, [(_, members)])] = drawn
        assert {"trace.s0", "trace.s1"} <= set(names)
        assert any(member.startswith("trace.") for member in members)
        assert "srrip" in capsys.readouterr().out


    def test_roc_runs_tiny(self, monkeypatch, capsys):
        """``roc`` prints its AUC table, and the confidences and labels
        behind it are pinned."""
        measured = []
        measure = cli.measure_roc

        def spy(*args, **kwargs):
            measured.append(measure(*args, **kwargs))
            return measured[-1]

        monkeypatch.setattr(cli, "measure_roc", spy)
        assert main(["roc", "--scale", "tiny"]) == 0
        rows = [line.split() for line in
                capsys.readouterr().out.splitlines()[1:]]
        assert rows == [["sdbp", "0.721"], ["perceptron", "0.868"],
                        ["multiperspective", "0.771"]]
        digest = hashlib.sha256()
        for result in measured:
            digest.update(repr((result.predictor_name, result.confidences,
                                result.labels)).encode())
        assert digest.hexdigest() == ROC_HASH


class TestStats:
    def _record(self, tmp_path, capsys):
        """One telemetry-enabled compare; returns its cache dir."""
        cache = str(tmp_path / "cache")
        code = main(["compare", "--benchmarks", "gamess", "soplex",
                     "--policies", "lru", "mpppb-1a", "--scale", "tiny",
                     "--telemetry", "--cache-dir", cache])
        assert code == 0
        err = capsys.readouterr().err
        assert "telemetry:" in err
        assert "repro.cli stats" in err
        return cache

    def test_list_mode(self, tmp_path, capsys):
        cache = self._record(tmp_path, capsys)
        assert main(["stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "run id" in out
        assert "compare/mpppb-1a" in out

    def test_render_mode(self, tmp_path, capsys):
        cache = self._record(tmp_path, capsys)
        from repro.obs.events import list_event_logs

        run_ids = [run_id for run_id, _ in list_event_logs(cache)]
        assert run_ids
        assert main(["stats", run_ids[-1][:12], "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "span coverage" in out
        assert "cell" in out
        assert "llc/accesses" in out
        assert "mpppb/confidence" in out

    def test_empty_store(self, tmp_path, capsys):
        assert main(["stats", "--cache-dir", str(tmp_path / "none")]) == 0
        assert "no recorded telemetry" in capsys.readouterr().out

    def test_unknown_prefix(self, tmp_path, capsys):
        cache = self._record(tmp_path, capsys)
        assert main(["stats", "zzzz", "--cache-dir", cache]) == 2
        assert "no telemetry matches" in capsys.readouterr().err

    def test_telemetry_does_not_leak_across_commands(self, tmp_path, capsys):
        from repro import obs

        self._record(tmp_path, capsys)
        assert not obs.enabled()
        # A later command without the flag must not record anything.
        cache2 = str(tmp_path / "cache2")
        code = main(["compare", "--benchmarks", "gamess", "soplex",
                     "--policies", "lru", "--scale", "tiny",
                     "--cache-dir", cache2])
        assert code == 0
        assert "telemetry:" not in capsys.readouterr().err


class TestFailureHandling:
    @pytest.mark.parametrize("setting,env,flags", [
        pytest.param(setting, env, flags, id=setting)
        for setting, env, flags in [
            ("--scale", {}, ["--scale", "bogus"]),
            ("REPRO_SCALE", {"REPRO_SCALE": "bogus"}, []),
            ("REPRO_TELEMETRY", {"REPRO_TELEMETRY": "bogus"}, []),
            ("REPRO_HEARTBEAT", {"REPRO_HEARTBEAT": "abc"}, ["--jobs", "1"]),
            ("REPRO_RETRIES", {"REPRO_RETRIES": "2"}, []),
            ("REPRO_ARTIFACT_CACHE", {"REPRO_ARTIFACT_CACHE": "off"}, []),
            ("--cell-timeout", {}, ["--cell-timeout", "-5"]),
        ]
    ])
    def test_bad_setting_is_a_clean_error(self, setting, env, flags,
                                          monkeypatch, capsys):
        # Each must fail at entry, before any work or output.
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        argv = ["compare", "--benchmarks", "gamess", "--policies", "lru",
                "--cache-dir", "off"]
        if "--scale" not in flags and "REPRO_SCALE" not in env:
            argv += ["--scale", "tiny"]
        code = main(argv + flags)
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert setting in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        pytest.param(["search", "--candidates", "0"], id="search--candidates"),
        pytest.param(["search", "--steps", "-1"], id="search--steps"),
        pytest.param(["mix", "--mixes", "0"], id="mix--mixes"),
    ])
    def test_bad_count_is_a_clean_error(self, argv, monkeypatch, capsys):
        # Each must fail at entry: resolving the workload is the first
        # work either command does.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before validation")

        monkeypatch.setattr(cli, "_resolve_trace", no_work)
        code = main(argv + ["--scale", "tiny", "--cache-dir", "off"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {argv[1]} ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv,flag", [
        pytest.param(["compare", "--policies"], "--policies",
                     id="compare--policies"),
        pytest.param(["compare", "--benchmarks"], "--benchmarks",
                     id="compare--benchmarks"),
        pytest.param(["mix", "--policies"], "--policies",
                     id="mix--policies"),
        pytest.param(["compare", "--policies", "lru", "mpppb"], "--policies",
                     id="compare-bare-mpppb"),
        pytest.param(["mix", "--policies", "mpppb"], "--policies",
                     id="mix-bare-mpppb"),
    ])
    def test_bad_names_are_a_clean_error(self, argv, flag, monkeypatch,
                                         capsys):
        # Each must fail at entry: resolving the workload is the first
        # work either command does.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before validation")

        monkeypatch.setattr(cli, "_resolve_trace", no_work)
        code = main(argv + ["--scale", "tiny", "--cache-dir", "off"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag}")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        if "mpppb" in argv:
            assert all(name in err
                       for name in ("mpppb-1a", "mpppb-1b", "mpppb-mp"))

    def test_malformed_jobs_env_is_a_clean_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_JOBS", "many")
        code = main(["compare", "--benchmarks", "gamess", "--policies", "lru",
                     "--scale", "tiny", "--cache-dir", "off"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: REPRO_JOBS")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag,value", [
        ("--workers", "a:2"), ("--shared-store", "d"),
    ])
    def test_retired_mesh_flag_is_a_clean_error(self, flag, value, capsys):
        # The ssh workers and the shared store tier are gone: argparse
        # rejects their flags before any work.
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "--benchmarks", "gamess", "--policies", "lru",
                  "--scale", "tiny", "--cache-dir", "off", flag, value])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"error: unrecognized arguments: {flag} {value}" in err
        assert "Traceback" not in err

    def test_malformed_fault_spec_is_a_clean_error(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=two")
        code = main(["compare", "--benchmarks", "gamess", "--policies", "lru",
                     "--scale", "tiny", "--cache-dir", "off"])
        assert code == 2
        assert "REPRO_FAULT_INJECT" in capsys.readouterr().err

    def test_keyboard_interrupt_prints_partial_report(self, monkeypatch,
                                                      capsys):
        from repro.exec import runner as exec_runner

        def interrupt(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(exec_runner, "_execute_cell", interrupt)
        code = main(["compare", "--benchmarks", "gamess", "soplex",
                     "--policies", "lru", "--scale", "tiny",
                     "--cache-dir", "off"])
        assert code == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "pending" in err

    def test_failed_cells_exit_nonzero_with_table(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=1,times=99")
        code = main(["compare", "--benchmarks", "gamess", "--policies", "lru",
                     "--scale", "tiny", "--cache-dir", "off"])
        assert code == 1
        err = capsys.readouterr().err
        assert "failed cell" in err
        assert "InjectedFault" in err
        # Nothing was cached: --cache-dir off attaches no store.
        assert "1 cell(s) failed\n" in err
        assert "partial results" not in err

    def test_failed_cells_with_a_store_say_results_were_cached(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "raise:every=1,times=99")
        code = main(["compare", "--benchmarks", "gamess", "--policies", "lru",
                     "--scale", "tiny", "--cache-dir", str(tmp_path)])
        assert code == 1
        assert ("1 cell(s) failed; partial results were cached"
                in capsys.readouterr().err)
