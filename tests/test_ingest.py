"""Tests for the streaming real-trace ingestion front-end."""

import gzip
import struct

import pytest

from repro.config import TINY
from repro.exec import (
    ConfigError,
    ParallelRunner,
    SingleCell,
    SuiteSpec,
    TraceSpec,
)
from repro.exec.artifacts import ingest_scope, stage1_key, trace_key
from repro.exec.cachekey import stable_hash
from repro.graph.planner import plan_cells
from repro.traces.ingest import (
    IngestSpec,
    detect_format,
    open_source,
    resolve_ingest,
    trace_digest,
)
from repro.traces.ingest.readers import CHAMPSIM_RECORD_SIZE

RECORDS = [
    (0x400 + 4 * i, 0x10000 + 64 * (i % 37), i % 3 == 0, i % 5, i % 7 == 0)
    for i in range(300)
]


def _write_text(path, records, gz=False):
    lines = ["# synthetic fixture", ""]
    for pc, addr, write, gap, dep in records:
        lines.append(f"0x{pc:x} 0x{addr:x} {'w' if write else 'r'} "
                     f"{gap} {1 if dep else 0}")
    body = ("\n".join(lines) + "\n").encode()
    path.write_bytes(gzip.compress(body) if gz else body)
    return path


def _write_champsim(path, records):
    with open(path, "wb") as handle:
        for pc, addr, write, gap, dep in records:
            flags = (1 if write else 0) | (2 if dep else 0)
            handle.write(struct.pack("<QQIB3x", pc, addr, gap, flags))
    return path


def _write_csv(path, records):
    lines = ["pc,addr,is_write,gap,dep"]
    for pc, addr, write, gap, dep in records:
        lines.append(f"{pc},0x{addr:x},{1 if write else 0},{gap},"
                     f"{1 if dep else 0}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReaders:
    def test_text_roundtrip(self, tmp_path):
        path = _write_text(tmp_path / "t.trace", RECORDS)
        assert list(open_source(str(path), "text").records()) == RECORDS

    def test_text_gzip_roundtrip(self, tmp_path):
        path = _write_text(tmp_path / "t.trace.gz", RECORDS, gz=True)
        assert list(open_source(str(path), "text").records()) == RECORDS

    def test_champsim_roundtrip(self, tmp_path):
        path = _write_champsim(tmp_path / "t.bin", RECORDS)
        assert list(open_source(str(path), "champsim").records()) == RECORDS

    def test_csv_roundtrip(self, tmp_path):
        path = _write_csv(tmp_path / "t.csv", RECORDS)
        assert list(open_source(str(path), "csv").records()) == RECORDS

    def test_formats_agree(self, tmp_path):
        decoded = [
            list(open_source(str(p), fmt).records())
            for p, fmt in (
                (_write_text(tmp_path / "t.trace.gz", RECORDS, gz=True),
                 "text"),
                (_write_champsim(tmp_path / "t.bin", RECORDS), "champsim"),
                (_write_csv(tmp_path / "t.csv", RECORDS), "csv"),
            )
        ]
        assert decoded[0] == decoded[1] == decoded[2] == RECORDS

    def test_text_defaults_gap_and_dep(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0x400 0x1000 r\n")
        assert list(open_source(str(path), "text").records()) == \
            [(0x400, 0x1000, False, 0, False)]

    def test_chunk_size_is_invisible(self, tmp_path):
        path = _write_champsim(tmp_path / "t.bin", RECORDS)
        small = list(open_source(str(path), "champsim", chunk=3).records())
        large = list(open_source(str(path), "champsim", chunk=65536).records())
        assert small == large == RECORDS

    def test_detect_format(self):
        assert detect_format("a/b.trace.gz") == "text"
        assert detect_format("b.champsimtrace") == "champsim"
        assert detect_format("b.bin") == "champsim"
        assert detect_format("c.csv.gz") == "csv"
        with pytest.raises(ConfigError):
            detect_format("mystery.dat")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            open_source(str(tmp_path / "t.bin"), "elf")


class TestCorruptInputs:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            list(open_source("/nonexistent/t.trace", "text").records())

    def test_short_binary_record(self, tmp_path):
        path = _write_champsim(tmp_path / "t.bin", RECORDS[:10])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])  # torn final record
        with pytest.raises(ConfigError, match="short binary record"):
            list(open_source(str(path), "champsim").records())

    def test_torn_gzip_member(self, tmp_path):
        path = _write_text(tmp_path / "t.trace.gz", RECORDS, gz=True)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(ConfigError, match="gzip"):
            list(open_source(str(path), "text").records())

    def test_malformed_text_line_names_lineno(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0x400 0x1000 r 1\nnot a record\n")
        with pytest.raises(ConfigError, match="line 2"):
            list(open_source(str(path), "text").records())

    def test_text_rejects_negative_gap(self, tmp_path):
        path = tmp_path / "t.trace"
        path.write_text("0x400 0x1000 r -3\n")
        with pytest.raises(ConfigError, match="negative"):
            list(open_source(str(path), "text").records())

    def test_csv_missing_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError, match="header"):
            list(open_source(str(path), "csv").records())

    def test_csv_malformed_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("pc,addr,is_write\n1,2,maybe\n")
        with pytest.raises(ConfigError, match="line 2"):
            list(open_source(str(path), "csv").records())

    def test_error_is_one_line(self, tmp_path):
        path = _write_champsim(tmp_path / "t.bin", RECORDS[:4])
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ConfigError) as excinfo:
            list(open_source(str(path), "champsim").records())
        assert "\n" not in str(excinfo.value)


class TestStreaming:
    def test_windowed_decode_never_reads_whole_file(self, tmp_path):
        path = _write_champsim(tmp_path / "big.bin",
                               [(1, 64 * i, False, 0, False)
                                for i in range(50_000)])
        spec = IngestSpec(path=str(path), format="champsim", digest="x" * 64,
                          name="big", accesses=100, chunk=64)
        segments = spec.build()
        assert len(segments[0].trace) == 100
        file_size = path.stat().st_size
        assert file_size == 50_000 * CHAMPSIM_RECORD_SIZE
        # The window is 100 records; file I/O must stop after at most a
        # couple of readahead buffers, never near the 50k-record file.
        source = open_source(str(path), "champsim", chunk=64)
        taken = 0
        for _ in source.records():
            taken += 1
            if taken == 100:
                break
        assert source.bytes_read() <= 2 * (1 << 16)  # readahead-bounded
        assert source.bytes_read() < file_size // 5

    def test_build_reads_chunk_bounded_prefix(self, tmp_path):
        records = [(1, 64 * i, False, 0, False) for i in range(20_000)]
        path = _write_champsim(tmp_path / "big.bin", records)
        spec = IngestSpec(path=str(path), format="champsim", digest="x" * 64,
                          name="big", skip=50, accesses=200, segments=2,
                          chunk=128)
        segments = spec.build()
        assert [len(s.trace) for s in segments] == [200, 200]
        assert segments[0].trace.pcs == [1] * 200
        assert segments[0].trace.addresses[0] == 64 * 50

    def test_too_short_trace_fails_cleanly(self, tmp_path):
        path = _write_champsim(tmp_path / "small.bin", RECORDS[:20])
        spec = IngestSpec(path=str(path), format="champsim", digest="x" * 64,
                          name="small", accesses=100)
        with pytest.raises(ConfigError, match="too short"):
            spec.build()


class TestDigestSidecar:
    def test_digest_persisted_and_reused(self, tmp_path):
        path = _write_text(tmp_path / "t.trace", RECORDS)
        first = trace_digest(str(path))
        sidecar = tmp_path / "t.trace.repro-digest.json"
        assert sidecar.exists()
        # Poison the sidecar hash: a matching (size, mtime) must win.
        poisoned = sidecar.read_text().replace(first, "f" * 64)
        sidecar.write_text(poisoned)
        assert trace_digest(str(path)) == "f" * 64

    def test_modified_file_rehashes(self, tmp_path):
        path = _write_text(tmp_path / "t.trace", RECORDS)
        first = trace_digest(str(path))
        _write_text(path, RECORDS[:10])
        assert trace_digest(str(path)) != first


class TestIngestSpec:
    def test_resolve_infers_format_and_name(self, tmp_path):
        path = _write_text(tmp_path / "leela_s1.trace.gz", RECORDS, gz=True)
        spec = resolve_ingest(str(path), accesses=100)
        assert spec.format == "text"
        assert spec.name == "leela_s1"
        assert len(spec.digest) == 64

    def test_resolve_rejects_reserved_name(self, tmp_path):
        path = _write_text(tmp_path / "mcf.trace", RECORDS)
        with pytest.raises(ConfigError, match="collides"):
            resolve_ingest(str(path), accesses=100, reserved=("mcf",))

    def test_name_must_be_dot_free(self):
        with pytest.raises(ConfigError):
            IngestSpec(path="p", format="text", digest="d", name="a.b")

    def test_weights_validated(self):
        with pytest.raises(ConfigError):
            IngestSpec(path="p", format="text", digest="d", name="w",
                       segments=2, weights=(1.0,))
        spec = IngestSpec(path="p", format="text", digest="d", name="w",
                          segments=2, weights=(3.0, 1.0))
        assert spec.segment_weights() == (3.0, 1.0)

    def test_payload_excludes_path_and_chunk(self, tmp_path):
        a = _write_text(tmp_path / "a.trace", RECORDS)
        spec1 = IngestSpec(path=str(a), format="text", digest="d" * 64,
                           name="a", chunk=512)
        spec2 = IngestSpec(path="/elsewhere/a.trace", format="text",
                           digest="d" * 64, name="a", chunk=65536)
        assert spec1.payload() == spec2.payload()
        assert trace_key(spec1.payload()) == trace_key(spec2.payload())

    def test_segment_names_are_static(self):
        spec = IngestSpec(path="p", format="text", digest="d", name="w",
                          segments=3)
        assert spec.segment_names() == ["w.s0", "w.s1", "w.s2"]


class TestExecIntegration:
    def _cell(self, tmp_path, chunk=65536):
        path = _write_text(tmp_path / "real.trace.gz", RECORDS, gz=True)
        spec = resolve_ingest(str(path), accesses=120, chunk=chunk)
        trace = TraceSpec(spec.name, TINY.hierarchy.llc_bytes, 120,
                          ingest=spec)
        return SingleCell(trace=trace, policy="lru",
                          hierarchy=TINY.hierarchy,
                          warmup_fraction=TINY.warmup_fraction)

    def test_runs_through_engine(self, tmp_path):
        engine = ParallelRunner(jobs=1, store=None, verbose=False)
        [result] = engine.run([self._cell(tmp_path)], label="ingest")
        assert result.benchmark == "real"
        assert result.segments[0].instructions > 0

    def test_suite_segment_names_match_build(self, tmp_path):
        """Ingested segments take their sorted-workload place in the
        names a suite gives without building, as in what it builds."""
        suite = SuiteSpec(TINY.hierarchy.llc_bytes, 2_000,
                          names=("gamess", "soplex"),
                          ingest=(self._cell(tmp_path).trace.ingest,))
        names = suite.segment_names()
        assert "real.s0" in names
        assert names == [segment.name for segment in suite.build()]

    def test_missing_file_is_structured_failure(self, tmp_path):
        cell = self._cell(tmp_path)
        (tmp_path / "real.trace.gz").unlink()
        from repro.exec import runner as exec_runner
        exec_runner._SEGMENTS.clear()
        exec_runner._RUNNERS.clear()
        engine = ParallelRunner(jobs=1, store=None, verbose=False)
        [result] = engine.run([cell], label="ingest")
        assert result is None
        [failure] = engine.last_report.failures
        assert "cannot open trace file" in failure.message

    def test_graph_planner_prices_ingested_cells(self, tmp_path):
        """The planner keys an ingested cell's inputs exactly as the
        artifact cache does: by content digest."""
        from repro.exec.store import ResultStore

        cell = self._cell(tmp_path)
        store = ResultStore(tmp_path / "cache")
        items = [(cell, stable_hash(cell.key_payload()))]
        nodes = 1 + len(cell.trace.segment_names())
        assert plan_cells(items, store) == {
            "nodes": nodes, "loads": 0, "computes": nodes, "shared": 0}
        tkey = trace_key(cell.trace.payload())
        skey = stage1_key(ingest_scope(cell.trace.ingest.payload()),
                          "real.s0", cell.key_payload()["hierarchy"],
                          cell.prefetch)
        store.put_bytes(tkey, b"trace")
        store.put_bytes(skey, b"stage1")
        assert plan_cells(items, store)["loads"] == 2
