"""Array-packed binary artifacts: shared traces and Stage-1 streams.

A compare over N policies previously paid trace synthesis and the
Stage-1 (L1/L2 + prefetcher) simulation once *per worker process*, and
again on every fresh invocation.  This module memoizes both as compact
binary blobs in the content-addressed :class:`~repro.exec.store.
ResultStore`, so any number of policies, workers, and sessions pay
each cost exactly once per (recipe, hierarchy) combination.

Two artifact kinds exist:

* ``trace`` — one benchmark's synthesized segments, keyed by the
  :class:`~repro.exec.runner.TraceSpec` payload (benchmark, LLC sizing
  used for generation, access budget, generator seed);
* ``stage1`` — one segment's :class:`~repro.sim.hierarchy.
  UpperLevelResult`, keyed by the trace *generation scope* (LLC bytes,
  accesses, seed — segment names embed the benchmark), the segment
  name, the :class:`~repro.sim.hierarchy.HierarchyConfig`, and the
  prefetcher toggle.

Blobs are **not pickled**.  The container is a small self-describing
frame::

    magic "RPA1" | uint32-LE meta length | canonical-JSON meta | payload

where the meta records the cache-key ``SCHEMA_VERSION``, the artifact
kind, the producer's byte order, scalar fields, and a manifest of
integer arrays (name, ``array``-module typecode ``q``/``Q``/``B``,
element count) that the payload concatenates in order.  Arrays load as
numpy views of the blob (``np.frombuffer``), so a Stage-1 result
decodes into :class:`~repro.sim.llc.LLCColumns` without building one
object per access.  Loading validates all of it; any mismatch (schema
bump, truncation, a negative count or unknown typecode, Stage-1
columns of unequal length, foreign endianness that fails to byteswap,
corruption) degrades to a miss and the artifact is rebuilt — the cold
path is always available and bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exec.cachekey import SCHEMA_VERSION, canonical_json, stable_hash
from repro.exec.store import ResultStore
from repro.sim.hierarchy import HierarchyConfig, UpperLevelResult
from repro.sim.llc import LLCColumns
from repro.traces.trace import Segment, Trace

MAGIC = b"RPA1"

#: flag bits shared by trace accesses and LLC stream entries
_F_WRITE = 1
_F_DEP = 2       # trace: address-dependent load (pointer chase)
_F_PREFETCH = 2  # stage1 stream: prefetch fill

#: the manifest's ``array``-module typecodes and their native dtypes
_DTYPES = {"q": np.dtype(np.int64), "Q": np.dtype(np.uint64),
           "B": np.dtype(np.uint8)}


# -- framing ---------------------------------------------------------------


def pack_artifact(kind: str, scalars: Dict[str, Any],
                  arrays: Sequence[Tuple[str, str, Sequence[int]]]) -> bytes:
    """Frame scalars plus named integer arrays into one binary blob.

    Each array is a sequence of ints or a numpy array, stored as the
    native bytes of its typecode's dtype (``_DTYPES``).  A value that
    does not fit that dtype raises ``OverflowError``.
    """
    manifest: List[List[Any]] = []
    payload: List[bytes] = []
    for name, typecode, values in arrays:
        packed = np.asarray(values, dtype=_DTYPES[typecode])
        # numpy casts arrays with wraparound; lists raise by themselves.
        if isinstance(values, np.ndarray) and not np.array_equal(packed, values):
            raise OverflowError(f"{name}: values out of range for {typecode!r}")
        manifest.append([name, typecode, len(packed)])
        payload.append(packed.tobytes())
    meta = canonical_json({
        "schema": SCHEMA_VERSION,
        "artifact": kind,
        "endian": sys.byteorder,
        "scalars": scalars,
        "arrays": manifest,
    }).encode("utf-8")
    header = MAGIC + len(meta).to_bytes(4, "little")
    return b"".join([header, meta] + payload)


def unpack_artifact(
    blob: bytes, kind: str
) -> Optional[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]:
    """Parse a blob back into (scalars, name -> array); None if invalid.

    Arrays are read-only views of ``blob`` unless the producer's byte
    order differs, when they are byteswapped copies.
    """
    try:
        if blob[:4] != MAGIC:
            return None
        meta_len = int.from_bytes(blob[4:8], "little")
        meta = json.loads(blob[8:8 + meta_len].decode("utf-8"))
        if meta.get("schema") != SCHEMA_VERSION or meta.get("artifact") != kind:
            return None
        swap = meta.get("endian") != sys.byteorder
        arrays: Dict[str, np.ndarray] = {}
        cursor = 8 + meta_len
        for name, typecode, count in meta["arrays"]:
            dtype = _DTYPES.get(typecode)
            if dtype is None or not isinstance(count, int) or count < 0:
                return None
            size = count * dtype.itemsize
            if cursor + size > len(blob):
                return None
            packed = np.frombuffer(blob, dtype=dtype, count=count,
                                   offset=cursor)
            arrays[name] = packed.byteswap() if swap else packed
            cursor += size
        if cursor != len(blob):
            return None
        return meta["scalars"], arrays
    except (ValueError, TypeError, KeyError, IndexError, OverflowError):
        return None


# -- keys ------------------------------------------------------------------


def scope_payload(llc_bytes: int, accesses: int, seed: int) -> Dict[str, int]:
    """Trace *generation scope*: the Stage-1 key fields shared by every
    segment of one (suite, sizing) combination, as
    :meth:`~repro.exec.runner.TraceSpec.stage1_scope` gives it for a
    synthetic workload."""
    return {"llc_bytes": llc_bytes, "accesses": accesses, "seed": seed}


def ingest_scope(ingest_payload: Dict[str, Any]) -> Dict[str, Any]:
    """Stage-1 scope for an *ingested* workload's segments.

    Real-trace content is fixed by (digest, window) alone — the
    synthetic generation scope's LLC sizing and seed play no part —
    so keying on the ingest payload maximizes Stage-1 sharing across
    differently-sized runs over the same trace file."""
    return {"ingest": ingest_payload}


def trace_key(trace_payload: Dict[str, Any]) -> str:
    return stable_hash({
        "schema": SCHEMA_VERSION,
        "artifact": "trace",
        "trace": trace_payload,
    })


def stage1_key(scope: Dict[str, Any], segment_name: str,
               hierarchy_payload: Dict[str, int], prefetch: bool) -> str:
    return stable_hash({
        "schema": SCHEMA_VERSION,
        "artifact": "stage1",
        "scope": scope,
        "segment": segment_name,
        "hierarchy": hierarchy_payload,
        "prefetch": prefetch,
    })


# -- trace <-> blob --------------------------------------------------------


def pack_segments(segments: Sequence[Segment]) -> bytes:
    """Pack one benchmark's weighted segments (names/weights in meta)."""
    arrays: List[Tuple[str, str, Sequence[int]]] = []
    for i, segment in enumerate(segments):
        trace = segment.trace
        flags = [
            (_F_WRITE if write else 0) | (_F_DEP if dep else 0)
            for write, dep in zip(trace.writes, trace.deps)
        ]
        arrays.append((f"{i}:pcs", "Q", trace.pcs))
        arrays.append((f"{i}:addresses", "Q", trace.addresses))
        arrays.append((f"{i}:gaps", "Q", trace.gaps))
        arrays.append((f"{i}:flags", "B", flags))
    scalars = {
        "names": [segment.name for segment in segments],
        "weights": [segment.weight for segment in segments],
    }
    return pack_artifact("trace", scalars, arrays)


def unpack_segments(blob: bytes) -> Optional[List[Segment]]:
    parsed = unpack_artifact(blob, "trace")
    if parsed is None:
        return None
    scalars, arrays = parsed
    try:
        segments: List[Segment] = []
        for i, (name, weight) in enumerate(zip(scalars["names"],
                                               scalars["weights"])):
            flags = arrays[f"{i}:flags"]
            trace = Trace(
                name,
                arrays[f"{i}:pcs"].tolist(),
                arrays[f"{i}:addresses"].tolist(),
                ((flags & _F_WRITE) != 0).tolist(),
                arrays[f"{i}:gaps"].tolist(),
                ((flags & _F_DEP) != 0).tolist(),
            )
            segments.append(Segment(name, trace, weight))
        return segments
    except (KeyError, ValueError, TypeError):
        return None


# -- UpperLevelResult <-> blob ---------------------------------------------


_STREAM_COLUMNS = ("s_pc", "s_block", "s_offset", "s_flags", "s_mem",
                   "s_instr")


def pack_upper(upper: UpperLevelResult) -> bytes:
    stream = upper.llc_stream
    flags = (stream.is_write.astype(np.uint8) * _F_WRITE
             | stream.is_prefetch.astype(np.uint8) * _F_PREFETCH)
    arrays: List[Tuple[str, str, Sequence[int]]] = [
        ("service", "q", upper.service),
        ("instr_indices", "q", upper.instr_indices),
        ("s_pc", "Q", stream.pc),
        ("s_block", "Q", stream.block),
        ("s_offset", "B", stream.offset),
        ("s_flags", "B", flags),
        ("s_mem", "q", stream.mem_index),
        ("s_instr", "q", stream.instr_index),
    ]
    scalars = {
        "num_instructions": upper.num_instructions,
        "l1_hits": upper.l1_hits,
        "l1_misses": upper.l1_misses,
        "l2_hits": upper.l2_hits,
        "l2_misses": upper.l2_misses,
        "prefetches_issued": upper.prefetches_issued,
    }
    return pack_artifact("stage1", scalars, arrays)


def unpack_upper(blob: bytes) -> Optional[UpperLevelResult]:
    """Decode a Stage-1 blob into columns; no per-access objects."""
    parsed = unpack_artifact(blob, "stage1")
    if parsed is None:
        return None
    scalars, arrays = parsed
    try:
        service = arrays["service"]
        if len(arrays["instr_indices"]) != len(service):
            return None
        if len({len(arrays[name]) for name in _STREAM_COLUMNS}) != 1:
            return None
        flags = arrays["s_flags"]
        stream = LLCColumns(
            pc=arrays["s_pc"],
            block=arrays["s_block"].view(np.int64),
            offset=arrays["s_offset"].astype(np.int64),
            is_write=(flags & _F_WRITE) != 0,
            is_prefetch=(flags & _F_PREFETCH) != 0,
            mem_index=arrays["s_mem"],
            instr_index=arrays["s_instr"],
        )
        return UpperLevelResult(
            service=service,
            instr_indices=arrays["instr_indices"],
            llc_stream=stream,
            num_instructions=scalars["num_instructions"],
            l1_hits=scalars["l1_hits"],
            l1_misses=scalars["l1_misses"],
            l2_hits=scalars["l2_hits"],
            l2_misses=scalars["l2_misses"],
            prefetches_issued=scalars["prefetches_issued"],
        )
    except (KeyError, ValueError, TypeError):
        return None


# -- the cache -------------------------------------------------------------


def peek_kind(path) -> Optional[str]:
    """Artifact kind of a blob file from its frame header, or ``None``.

    Reads only the header + meta (never the payload), so inspecting a
    large cache stays cheap.  Used by ``repro.cli cache stats``.
    """
    try:
        with open(path, "rb") as handle:
            header = handle.read(8)
            if header[:4] != MAGIC:
                return None
            meta_len = int.from_bytes(header[4:8], "little")
            if meta_len > 1_000_000:
                return None
            meta = json.loads(handle.read(meta_len).decode("utf-8"))
        kind = meta.get("artifact")
        return kind if isinstance(kind, str) else None
    except (OSError, ValueError, TypeError):
        return None


@dataclass
class ArtifactStats:
    """Hit/miss counters per artifact kind, over one cache lifetime."""

    trace_hits: int = 0
    trace_misses: int = 0
    stage1_hits: int = 0
    stage1_misses: int = 0

    def counts(self) -> Dict[str, int]:
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "stage1_hits": self.stage1_hits,
            "stage1_misses": self.stage1_misses,
        }


class ArtifactCache:
    """Trace and Stage-1 artifacts over one :class:`ResultStore`.

    Lookups that fail for *any* reason (absent, stale schema, corrupt)
    count as misses; after a miss the caller computes the artifact and
    stores it back, so the cache is self-healing and the simulation
    result never depends on whether a lookup succeeded.
    """

    def __init__(self, store: ResultStore) -> None:
        self.store = store
        self.stats = ArtifactStats()

    # -- traces -----------------------------------------------------------

    def load_segments(self, trace_payload: Dict[str, Any]
                      ) -> Optional[List[Segment]]:
        blob = self.store.get_bytes(trace_key(trace_payload))
        segments = None if blob is None else unpack_segments(blob)
        if segments is None:
            self.stats.trace_misses += 1
        else:
            self.stats.trace_hits += 1
        return segments

    def store_segments(self, trace_payload: Dict[str, Any],
                       segments: Sequence[Segment]) -> None:
        self.store.put_bytes(trace_key(trace_payload), pack_segments(segments))

    # -- stage-1 results --------------------------------------------------

    def load_upper(self, scope: Dict[str, Any], segment_name: str,
                   hierarchy_payload: Dict[str, int],
                   prefetch: bool) -> Optional[UpperLevelResult]:
        key = stage1_key(scope, segment_name, hierarchy_payload, prefetch)
        blob = self.store.get_bytes(key)
        upper = None if blob is None else unpack_upper(blob)
        if upper is None:
            self.stats.stage1_misses += 1
        else:
            self.stats.stage1_hits += 1
        return upper

    def store_upper(self, scope: Dict[str, Any], segment_name: str,
                    hierarchy_payload: Dict[str, int], prefetch: bool,
                    upper: UpperLevelResult) -> None:
        key = stage1_key(scope, segment_name, hierarchy_payload, prefetch)
        self.store.put_bytes(key, pack_upper(upper))

    def stage1_store(self, scopes: Dict[str, Dict[str, Any]],
                     hierarchy: HierarchyConfig,
                     prefetch: bool) -> "Stage1ArtifactStore":
        return Stage1ArtifactStore(self, scopes, hierarchy, prefetch)


class Stage1ArtifactStore:
    """Per-(workloads, hierarchy) adapter the simulation runners plug in.

    :class:`~repro.sim.single.SingleThreadRunner` and
    :class:`~repro.sim.multi.MultiProgrammedRunner` consult ``load``
    before running Stage 1 and call ``save`` after computing it; their
    own in-memory memoization still sits in front, so within one runner
    each segment is (de)serialized at most once.

    ``scopes`` maps each *workload name* (the part of a segment name
    before the first dot) to its Stage-1 scope,
    :meth:`~repro.exec.runner.TraceSpec.stage1_scope`, the one the
    graph planner keys with too: a synthetic workload's generation
    scope, an ingested one's content digest.
    """

    def __init__(self, cache: ArtifactCache,
                 scopes: Dict[str, Dict[str, Any]],
                 hierarchy: HierarchyConfig, prefetch: bool) -> None:
        self.cache = cache
        self.scopes = scopes
        self.hierarchy_payload = dataclasses.asdict(hierarchy)
        self.prefetch = prefetch

    def _scope_for(self, segment_name: str) -> Dict[str, Any]:
        return self.scopes[segment_name.split(".", 1)[0]]

    def load(self, segment: Segment) -> Optional[UpperLevelResult]:
        return self.cache.load_upper(self._scope_for(segment.name),
                                     segment.name,
                                     self.hierarchy_payload, self.prefetch)

    def save(self, segment: Segment, upper: UpperLevelResult) -> None:
        self.cache.store_upper(self._scope_for(segment.name), segment.name,
                               self.hierarchy_payload, self.prefetch, upper)
