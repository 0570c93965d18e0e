"""Content-addressed on-disk result cache.

Two kinds of blob live under the same root, both keyed by the cell's
stable hash (:mod:`repro.exec.cachekey`):

* **JSON results** — ``<root>/<key[:2]>/<key>.json``; each blob records
  the schema version and the cell kind alongside the serialized result,
  so stale or foreign blobs are treated as misses rather than
  deserialized incorrectly.
* **Binary artifacts** — ``<root>/<key[:2]>/<key>.bin``; opaque bytes
  whose framing and schema validation belong to
  :mod:`repro.exec.artifacts` (packed traces and Stage-1 streams).

The store is safe for concurrent writers (atomic ``os.replace`` of a
temp file) and keeps LRU semantics over both blob kinds.  Recency is
tracked in an append-only ``index.log`` of relative blob paths — a
monotonic insertion/touch order that stays stable even when many blobs
are written within the same filesystem-timestamp second; mtime is only
a fallback for blobs that predate the log.  Hit/miss/store/evict
counters feed the execution report.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from repro.exec.cachekey import SCHEMA_VERSION

#: Name of the append-only recency log kept at the store root.
INDEX_NAME = "index.log"

#: Advisory lock file serializing eviction/index-compaction across
#: processes sharing one cache directory.
LOCK_NAME = ".lock"


@dataclass
class CacheStats:
    """Counters for one store over one process lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ResultStore:
    """Blob store keyed by content hash, with LRU eviction."""

    def __init__(self, root, max_entries: int = 100_000) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.root = Path(root)
        self.max_entries = max_entries
        self.stats = CacheStats()
        self._count: Optional[int] = None  # lazily measured blob count

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _bin_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.bin"

    def _blobs(self) -> List[Path]:
        if not self.root.is_dir():
            return []
        return list(self.root.glob("??/*.json")) + list(self.root.glob("??/*.bin"))

    def __len__(self) -> int:
        return len(self._blobs())

    # -- cross-process exclusion -------------------------------------------

    @contextmanager
    def _exclusive(self) -> Iterator[None]:
        """Advisory inter-process lock over destructive maintenance.

        Writes (``put``/``put_bytes``) stay lock-free — they are
        atomic ``os.replace`` operations and single-``write`` index
        appends — but eviction unlinks blobs *and* compacts the index,
        and two processes doing that concurrently could each pick
        different survivor sets.  ``flock`` on a sidecar file
        serializes them; on platforms without ``fcntl`` (or when the
        lock file cannot be created) this degrades to the old
        unserialized behavior rather than failing.
        """
        if fcntl is None:
            yield
            return
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            handle = open(self.root / LOCK_NAME, "a+")
        except OSError:
            yield
            return
        try:
            try:
                fcntl.flock(handle, fcntl.LOCK_EX)
            except OSError:
                pass
            yield
        finally:
            try:
                fcntl.flock(handle, fcntl.LOCK_UN)
            except OSError:
                pass
            handle.close()

    # -- recency index -----------------------------------------------------

    def _index_path(self) -> Path:
        return self.root / INDEX_NAME

    def _touch(self, path: Path) -> None:
        """Record ``path`` as most recently used.

        Appends the blob's relative path to the monotonic recency log;
        appends are ordered by write order, not timestamps, so LRU
        ordering survives bursts of same-second activity.  Also bumps
        the mtime as a fallback signal for stores whose log was lost.
        """
        try:
            os.utime(path)
        except OSError:
            pass
        try:
            with open(self._index_path(), "a", encoding="utf-8") as handle:
                handle.write(f"{path.parent.name}/{path.name}\n")
        except OSError:
            pass

    def _recency(self) -> Dict[str, int]:
        """Relative path -> last log position (higher = more recent)."""
        order: Dict[str, int] = {}
        try:
            with open(self._index_path(), "r", encoding="utf-8") as handle:
                for position, line in enumerate(handle):
                    order[line.strip()] = position
        except OSError:
            pass
        return order

    def _rewrite_index(self, survivors: List[Path]) -> None:
        """Compact the log to the surviving blobs, oldest first."""
        try:
            fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for path in survivors:
                    handle.write(f"{path.parent.name}/{path.name}\n")
            os.replace(tmp, self._index_path())
        except OSError:
            pass

    # -- JSON result blobs -------------------------------------------------

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Return the stored payload for ``key``, or ``None`` on miss.

        Absence, undecodable content and any IO failure are misses.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        if not isinstance(payload, dict) or payload.get("schema") != SCHEMA_VERSION:
            self.stats.misses += 1
            return None
        self._touch(path)
        self.stats.hits += 1
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Atomically persist ``payload`` (stamped with the schema)."""
        blob = dict(payload)
        blob["schema"] = SCHEMA_VERSION
        data = json.dumps(blob, separators=(",", ":")).encode("utf-8")
        self._write(self._path(key), data)

    # -- binary artifact blobs --------------------------------------------

    def get_bytes(self, key: str) -> Optional[bytes]:
        """Return the binary blob for ``key``, or ``None`` on miss.

        Absence and any IO failure are misses.  Framing and schema
        validation are the caller's responsibility (see
        :mod:`repro.exec.artifacts`).
        """
        path = self._bin_path(key)
        try:
            data = path.read_bytes()
        except OSError:
            self.stats.misses += 1
            return None
        self._touch(path)
        self.stats.hits += 1
        return data

    def put_bytes(self, key: str, data: bytes) -> None:
        """Atomically persist an opaque binary blob."""
        self._write(self._bin_path(key), data)

    def stat_bytes(self, key: str) -> Optional[int]:
        """Size of the binary blob for ``key`` without reading it.

        The batch planner (:mod:`repro.graph`) stats every candidate
        artifact this way — presence at ``stat`` price, no recency
        touch, no hit/miss accounting.  Absence and any IO failure are
        ``None``.
        """
        try:
            return self._bin_path(key).stat().st_size
        except OSError:
            return None

    # -- shared write/evict machinery -------------------------------------

    def _write(self, path: Path, data: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        existed = path.exists()
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self._touch(path)
        self.stats.stores += 1
        if self._count is None:
            self._count = len(self._blobs())
        elif not existed:
            self._count += 1
        if self._count > self.max_entries:
            self._evict()

    def _evict(self) -> None:
        """Drop least-recently-used blobs until back under ``max_entries``.

        Recency comes from the monotonic ``index.log`` positions;
        filesystem mtime only breaks ties for unlogged blobs (which
        sort oldest), so same-second writes evict in insertion order.
        Runs under the cross-process lock so two writers sharing one
        cache directory cannot interleave unlink/compaction steps.
        """
        with self._exclusive():
            self._evict_locked()

    def _ranked_blobs(self) -> List[Path]:
        """All blobs sorted least- to most-recently used."""
        blobs = self._blobs()
        order = self._recency()

        def rank(path: Path):
            try:
                mtime = path.stat().st_mtime
            except OSError:
                mtime = 0.0
            return (order.get(f"{path.parent.name}/{path.name}", -1),
                    mtime, path.name)

        blobs.sort(key=rank)
        return blobs

    def _drop(self, victims: List[Path], survivors: List[Path]) -> int:
        removed = 0
        for path in victims:
            try:
                path.unlink()
                self.stats.evictions += 1
                removed += 1
            except OSError:
                pass
        # Writers are lock-free, so a blob can land between the ranking
        # snapshot and this compaction (a put from another process
        # writing into this store while gc runs).  Re-list and keep index entries for the newcomers — ranked by
        # their current log positions — so compaction never erases
        # their recency and marks them for premature eviction.
        survivor_set = set(survivors)
        extras = [path for path in self._blobs()
                  if path not in survivor_set]
        if extras:
            order = self._recency()
            extras.sort(key=lambda path: order.get(
                f"{path.parent.name}/{path.name}", -1))
        self._rewrite_index(survivors + extras)
        self._count = len(survivors) + len(extras)
        return removed

    def _evict_locked(self) -> None:
        blobs = self._ranked_blobs()
        excess = max(0, len(blobs) - self.max_entries)
        self._drop(blobs[:excess], blobs[excess:])

    # -- inspection + maintenance (``repro.cli cache``) --------------------

    def usage(self) -> Dict[str, int]:
        """Entry/byte totals split by blob kind (results vs artifacts)."""
        entries = results = artifacts = 0
        total = result_bytes = artifact_bytes = 0
        for path in self._blobs():
            try:
                size = path.stat().st_size
            except OSError:
                continue
            entries += 1
            total += size
            if path.suffix == ".json":
                results += 1
                result_bytes += size
            else:
                artifacts += 1
                artifact_bytes += size
        return {
            "entries": entries,
            "bytes": total,
            "results": results,
            "result_bytes": result_bytes,
            "artifacts": artifacts,
            "artifact_bytes": artifact_bytes,
        }

    def gc(self, max_entries: Optional[int] = None,
           max_bytes: Optional[int] = None) -> int:
        """LRU-evict down to the given targets; returns blobs removed."""
        if max_entries is None and max_bytes is None:
            return 0
        if min(max_entries or 0, max_bytes or 0) < 0:
            raise ValueError(f"gc targets must be >= 0, got max_entries="
                             f"{max_entries}, max_bytes={max_bytes}")
        with self._exclusive():
            blobs = self._ranked_blobs()
            sizes = []
            for path in blobs:
                try:
                    sizes.append(path.stat().st_size)
                except OSError:
                    sizes.append(0)
            cut = 0
            if max_entries is not None:
                cut = max(cut, len(blobs) - max_entries)
            if max_bytes is not None:
                remaining = sum(sizes[cut:])
                while cut < len(blobs) and remaining > max_bytes:
                    remaining -= sizes[cut]
                    cut += 1
            return self._drop(blobs[:cut], blobs[cut:])

    def clear(self) -> int:
        """Remove every blob; returns the number removed."""
        removed = 0
        for path in self._blobs():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        try:
            self._index_path().unlink()
        except OSError:
            pass
        self._count = 0
        return removed
