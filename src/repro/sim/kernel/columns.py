"""Columnar lowering of a Stage-1 LLC stream (the kernel's phase 1).

Everything a replay needs to know about an access that does not depend
on cache state is computed here once per stream, as numpy array
expressions over the whole stream:

* **Stream columns** — block, set index, 16-bit partial tag, sampler
  set, prefetch flag — become vectorized mask/shift/mod expressions.
* **Static feature slots** — the deduplicated ``(source, lo, hi,
  bits)`` extractions of :func:`repro.sim.batch._descriptor` — become
  vectorized slice-and-fold pipelines, including the splitmix64 PC
  hash (:func:`repro.util.hashing.mix64` replicated in wrapping
  ``uint64`` arithmetic) and the PC-history gathers.

Every slot column, combined with a candidate's dynamic bits, equals
the index the :meth:`repro.core.features.Feature.compile` closures
compute from the access's :class:`~repro.cache.access.AccessContext`;
``tests/test_kernel.py`` pins that access by access, and
:func:`repro.sim.roc.measure_roc` reads its multiperspective indices
from these columns.
:func:`lower_perceptron` and :func:`lower_hawkeye` lower the two
baseline predictors' inputs the same way, sharing the stream decode
and the PC-history gather.
All intermediate arithmetic runs in ``uint64`` (64-bit address/PC
slices and the hash multiplies overflow ``int64``; PCs, including
kernel-space ones >= 2**63, enter as ``uint64``) and results are
narrowed to ``int64`` at the end, whose ``.tolist()`` yields the plain
Python ints the replay loops index with.  This module is the one
reader of a stream: :func:`_decode` for the lowerings, and
:func:`block_prefetch_lists` for the LRU replay, which needs two
columns only.  Stage-1 and merged mix streams are
:class:`~repro.sim.llc.LLCColumns`, read as the arrays they already
are.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import BLOCK_OFFSET_BITS, MAX_TABLE_SIZE
from repro.sim.llc import LLCAccess, LLCColumns
from repro.util.hashing import _GOLDEN64, _MIX1, _MIX2

_XOR_MASK = MAX_TABLE_SIZE - 1
# Width of the baselines' sampler tags (repro.predictors.base.partial_tag).
_PARTIAL_TAG_BITS = 16


def mix64_array(values: "np.ndarray") -> "np.ndarray":
    """Vectorized splitmix64 finalizer over a ``uint64`` array.

    Mirrors :func:`repro.util.hashing.mix64` statement for statement;
    numpy ``uint64`` arithmetic wraps modulo 2**64 exactly like the
    ``& MASK64`` in the scalar version.
    """
    values = values + np.uint64(_GOLDEN64)
    values = (values ^ (values >> np.uint64(30))) * np.uint64(_MIX1)
    values = (values ^ (values >> np.uint64(27))) * np.uint64(_MIX2)
    return values ^ (values >> np.uint64(31))


def _slice_and_fold_array(source: "np.ndarray", lo: int, hi: int,
                          bits: int) -> "np.ndarray":
    """Vectorized ``bits[lo..hi]``-slice folded to ``bits`` wide.

    The scalar fold (:func:`repro.core.features._slice_and_fold`) XORs
    ``bits``-wide chunks until the slice is exhausted; a fixed
    ``ceil(width / bits)`` iteration count is equivalent because the
    remaining value is zero afterwards and XOR with zero is identity.
    """
    width = hi - lo + 1
    sliced = (source >> np.uint64(lo)) & np.uint64((1 << width) - 1)
    if width <= bits:
        return sliced.astype(np.int64)
    fold_mask = np.uint64((1 << bits) - 1)
    shift = np.uint64(bits)
    folded = np.zeros_like(sliced)
    for _ in range((width + bits - 1) // bits):
        folded ^= sliced & fold_mask
        sliced = sliced >> shift
    return folded.astype(np.int64)


@dataclass
class StreamColumns:
    """One stream lowered to typed columns, shared by every candidate.

    ``cols`` holds one ``int64`` array per shared slot in the batch
    engine's slot layout — slot 0 is the hashed PC when any feature
    XORs — so a per-candidate ``("slot", j)`` entry reads ``cols[j]``.
    The replay loops index Python lists (scalar ``list``
    subscripts beat zero-dim numpy scalars by a wide margin in a
    bytecode loop); :meth:`as_lists` materializes them once, lazily.
    """

    n: int
    blocks: Any
    set_idxs: Any
    tags: Any
    samp_idxs: Any
    prefetch: Any
    cols: List[Any]
    _lists: Optional[Tuple] = field(default=None, repr=False)

    def as_lists(self) -> Tuple:
        """Python-list views: (blocks, sets, tags, samps, pf, cols)."""
        if self._lists is None:
            self._lists = (
                self.blocks.tolist(),
                self.set_idxs.tolist(),
                self.tags.tolist(),
                self.samp_idxs.tolist(),
                self.prefetch.tolist(),
                [col.tolist() for col in self.cols],
            )
        return self._lists


def _decode(stream: Sequence[LLCAccess]) -> Tuple:
    """``(pcs, blocks, offsets, mems, prefetch)`` arrays of ``stream``.

    PCs are ``uint64`` and ``prefetch`` is ``uint8``; the rest are
    ``int64``.  An :class:`~repro.sim.llc.LLCColumns` stream (every
    Stage-1 and merged mix stream) hands over its own arrays; a list of
    :class:`LLCAccess` is converted first.
    """
    if not isinstance(stream, LLCColumns):
        stream = LLCColumns.from_accesses(stream)
    return (stream.pc, stream.block, stream.offset, stream.mem_index,
            stream.is_prefetch.view(np.uint8))


def block_prefetch_lists(stream: Sequence[LLCAccess]) -> Tuple[List, List]:
    """``(blocks, prefetch)`` of ``stream`` as Python lists.

    The LRU replay reads nothing else, so this skips :func:`_decode`'s
    five array passes: two ``.tolist()`` calls on an
    :class:`~repro.sim.llc.LLCColumns`, two comprehensions over a list
    of :class:`LLCAccess`.
    """
    if isinstance(stream, LLCColumns):
        return stream.block.tolist(), stream.is_prefetch.tolist()
    return ([a.block for a in stream], [a.is_prefetch for a in stream])


def _placement(blocks: "np.ndarray", num_sets: int, stride: int,
               sampler_sets: int, tag_bits: int) -> Tuple:
    """``(set_idxs, tags, samp_idxs)``: set index, the sampler's partial
    tag (:func:`repro.predictors.base.partial_tag`) and the
    :class:`~repro.predictors.base.SetSampler` set, -1 when unsampled."""
    set_idxs = blocks & np.int64(num_sets - 1)
    ublocks = blocks.astype(np.uint64)
    tag_mask = np.uint64((1 << tag_bits) - 1)
    tags = ((ublocks ^ (ublocks >> np.uint64(tag_bits))
             ^ (ublocks >> np.uint64(2 * tag_bits)))
            & tag_mask).astype(np.int64)
    quotient = set_idxs // np.int64(stride)
    sampled = (set_idxs % np.int64(stride) == 0) & (quotient < sampler_sets)
    samp_idxs = np.where(sampled, quotient, np.int64(-1))
    return set_idxs, tags, samp_idxs


def _history_gather(hbase: "np.ndarray", hist: "np.ndarray",
                   depth: int) -> "np.ndarray":
    """The PC ``depth`` memory accesses before each history base, from
    the ``uint64`` PC history ``hist``; zero where that position falls
    outside ``hist``.

    ``hbase`` is ``mem_index + is_prefetch``: the same base the
    sequential :class:`~repro.cache.access.AccessContext` readers use,
    so prefetches observe the history *including* their triggering
    access.
    """
    hlen = len(hist)
    if hlen == 0:
        return np.zeros(len(hbase), dtype=np.uint64)
    idx = hbase - np.int64(depth)
    valid = (idx >= 0) & (idx < hlen)
    # A uint64 zero keeps the result uint64: an int64 one would
    # promote it to float64 and drop the low bits of large PCs.
    return np.where(valid, hist[np.clip(idx, 0, hlen - 1)], np.uint64(0))


def _hash_to(values: "np.ndarray", bits: int) -> "np.ndarray":
    """Vectorized :func:`repro.util.hashing.hash_to` over ``uint64``."""
    return (mix64_array(values) & np.uint64((1 << bits) - 1)).astype(
        np.int64)


def lower_stream(
    stream: Sequence[LLCAccess],
    pc_trace: Sequence[int],
    num_sets: int,
    stride: int,
    sampler_sets: int,
    tag_bits: int,
    slots: Sequence[Tuple],
    needs_h: bool,
) -> StreamColumns:
    """Lower ``stream`` into :class:`StreamColumns` for ``slots``.

    ``slots``/``needs_h`` come from the batch engine's
    :func:`~repro.sim.batch._build_programs`; each slot descriptor is
    ``("s"|"sx", (source, lo, hi, bits))`` with ``source`` one of
    ``pc``/``addr``/``off``/``pd<depth>``.
    """
    pcs, blocks, offsets, mems, prefetch = _decode(stream)
    set_idxs, tags, samp_idxs = _placement(blocks, num_sets, stride,
                                           sampler_sets, tag_bits)
    hbase = mems + prefetch.astype(np.int64)
    hist = np.asarray(pc_trace, dtype=np.uint64)
    hashed_pc = (mix64_array(pcs >> np.uint64(2))
                 & np.uint64(_XOR_MASK)).astype(np.int64)

    sources: Dict[str, Any] = {}

    def source_array(name: str) -> "np.ndarray":
        known = sources.get(name)
        if known is not None:
            return known
        if name == "pc":
            value = pcs
        elif name == "addr":
            value = ((blocks.astype(np.uint64)
                      << np.uint64(BLOCK_OFFSET_BITS))
                     | offsets.astype(np.uint64))
        elif name == "off":
            value = offsets.astype(np.uint64)
        else:  # pd<depth>: PC-history probe, zero out of range
            value = _history_gather(hbase, hist, int(name[2:]))
        sources[name] = value
        return value

    static_cols: Dict[Tuple, Any] = {}
    cols: List[Any] = [hashed_pc] if needs_h else []
    for kind, raw in slots:
        value = static_cols.get(raw)
        if value is None:
            source, lo, hi, bits = raw
            value = _slice_and_fold_array(source_array(source), lo, hi,
                                          bits)
            static_cols[raw] = value
        if kind == "sx":
            value = (value ^ hashed_pc) & np.int64(_XOR_MASK)
        cols.append(value)

    return StreamColumns(
        n=len(stream),
        blocks=blocks,
        set_idxs=set_idxs,
        tags=tags,
        samp_idxs=samp_idxs,
        prefetch=prefetch,
        cols=cols,
    )


def lower_perceptron(
    stream: Sequence[LLCAccess],
    pc_trace: Sequence[int],
    num_sets: int,
    stride: int,
    sampler_sets: int,
    table_bits: int,
) -> StreamColumns:
    """Lower ``stream`` for the Perceptron baseline's replay.

    ``cols`` holds the six table indices of
    :meth:`~repro.predictors.perceptron.PerceptronPredictor.feature_indices`
    for every access.  Each is a pure function of the stream: the
    shifted PC, the three previous memory-access PCs and two shifts of
    the block.  ``hash_to(combine(x, k), bits)`` is three chained
    splitmix64 rounds, ``mix64(mix64(mix64(x) ^ k))``.
    """
    pcs, blocks, _offsets, mems, prefetch = _decode(stream)
    set_idxs, tags, samp_idxs = _placement(blocks, num_sets, stride,
                                           sampler_sets,
                                           _PARTIAL_TAG_BITS)
    hbase = mems + prefetch.astype(np.int64)
    hist = np.asarray(pc_trace, dtype=np.uint64)

    def combined(values: "np.ndarray", salt: int) -> "np.ndarray":
        return _hash_to(mix64_array(mix64_array(values) ^ np.uint64(salt)),
                        table_bits)

    cols = [_hash_to(pcs >> np.uint64(2), table_bits)]
    cols += [combined(_history_gather(hbase, hist, depth), depth)
             for depth in (1, 2, 3)]
    ublocks = blocks.astype(np.uint64)
    cols += [combined(ublocks >> np.uint64(4), 4),
             combined(ublocks >> np.uint64(7), 5)]
    return StreamColumns(n=len(stream), blocks=blocks, set_idxs=set_idxs,
                         tags=tags, samp_idxs=samp_idxs, prefetch=prefetch,
                         cols=cols)


def lower_hawkeye(
    stream: Sequence[LLCAccess],
    num_sets: int,
    stride: int,
    sampler_sets: int,
    table_bits: int,
) -> StreamColumns:
    """Lower ``stream`` for the Hawkeye baseline's replay.

    ``cols`` is ``[index, pc]``: the predictor's ``hash_to(pc >> 2,
    table_bits)`` counter index and the raw PC that sampler history
    records and the detraining path keep.
    """
    pcs, blocks, _offsets, _mems, prefetch = _decode(stream)
    set_idxs, tags, samp_idxs = _placement(blocks, num_sets, stride,
                                           sampler_sets,
                                           _PARTIAL_TAG_BITS)
    index = _hash_to(pcs >> np.uint64(2), table_bits)
    return StreamColumns(n=len(stream), blocks=blocks, set_idxs=set_idxs,
                         tags=tags, samp_idxs=samp_idxs, prefetch=prefetch,
                         cols=[index, pcs])
