"""Tests for the ``cache`` maintenance subcommand."""

import pytest

from repro.cli import _format_bytes, _parse_size, build_parser, main
from repro.exec.artifacts import pack_artifact
from repro.exec.store import ResultStore


def _key(index: int) -> str:
    return f"{index:064x}"


def _seed(root, results=3, artifacts=2, kind="stage1"):
    """Populate a store with result and artifact blobs; returns it."""
    store = ResultStore(root)
    for i in range(results):
        store.put(_key(i), {"kind": "cell", "result": {"index": i}})
    blob = pack_artifact(kind, {"accesses": 8},
                         [("tags", "q", list(range(64)))])
    for i in range(artifacts):
        store.put_bytes(_key(100 + i), blob)
    return store


class TestParseSize:
    @pytest.mark.parametrize("text,expected", [
        ("512", 512),
        ("2k", 2048),
        ("2K", 2048),
        ("1.5M", int(1.5 * 1024 ** 2)),
        ("1G", 1024 ** 3),
        ("500KB", 500 * 1024),
    ])
    def test_suffixes(self, text, expected):
        assert _parse_size(text) == expected

    def test_garbage_raises(self):
        with pytest.raises(ValueError):
            _parse_size("lots")

    def test_format_roundtrip_units(self):
        assert _format_bytes(512) == "512 B"
        assert _format_bytes(2048) == "2.0 KiB"
        assert "MiB" in _format_bytes(3 * 1024 ** 2)


class TestParser:
    def test_cache_arguments(self):
        args = build_parser().parse_args(
            ["cache", "gc", "--max-entries", "4", "--max-bytes", "1M"])
        assert args.action == "gc"
        assert args.max_entries == 4
        assert args.max_bytes == "1M"

    def test_cache_rejects_unknown_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "defrag"])


class TestCacheCli:
    def test_stats_empty_store(self, tmp_path, capsys):
        code = main(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 blobs" in out
        assert "no recorded telemetry" in out

    def test_stats_reports_kind_breakdown(self, tmp_path, capsys):
        _seed(tmp_path, results=2, artifacts=3, kind="trace")
        code = main(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "5 blobs" in out
        assert "trace" in out
        assert "results: 2" in out

    def test_gc_without_target_errors(self, tmp_path, capsys):
        code = main(["cache", "gc", "--cache-dir", str(tmp_path)])
        assert code == 2
        assert "needs --max-entries" in capsys.readouterr().err

    def test_gc_to_entry_target(self, tmp_path, capsys):
        store = _seed(tmp_path, results=4, artifacts=2)
        code = main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-entries", "2"])
        assert code == 0
        assert "remain" in capsys.readouterr().out
        assert store.usage()["entries"] == 2

    def test_gc_to_byte_target_with_suffix(self, tmp_path):
        store = _seed(tmp_path, results=8, artifacts=4)
        code = main(["cache", "gc", "--cache-dir", str(tmp_path),
                     "--max-bytes", "1K"])
        assert code == 0
        assert store.usage()["bytes"] <= 1024

    @pytest.mark.parametrize("flag,value", [
        ("--max-entries", "-1"),
        ("--max-bytes", "-5"),
        ("--max-bytes", "12X"),
    ])
    def test_gc_bad_target_is_a_clean_error(self, flag, value, tmp_path,
                                            capsys):
        store = _seed(tmp_path)
        code = main(["cache", "gc", "--cache-dir", str(tmp_path),
                     flag, value])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {flag} ")
        assert err.count("\n") == 1
        assert store.usage()["entries"] == 5

    def test_clear_removes_everything(self, tmp_path, capsys):
        store = _seed(tmp_path)
        code = main(["cache", "clear", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "cleared 5 blobs" in capsys.readouterr().out
        assert store.usage()["entries"] == 0

    def test_disabled_cache_errors(self, capsys):
        code = main(["cache", "stats", "--cache-dir", "off"])
        assert code == 2
        assert "cache maintenance needs" in capsys.readouterr().err

    def test_stats_aggregates_recorded_counters(self, tmp_path, capsys):
        """A --telemetry run leaves counter events the stats view sums."""
        # Two benchmarks: manifests (and the event log beside them)
        # are only written for batches of at least two cells.
        code = main(["compare", "--benchmarks", "gamess", "soplex",
                     "--policies", "lru", "--scale", "tiny",
                     "--telemetry", "--cache-dir", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        code = main(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters over" in out
        assert "exec/" in out
