"""Columnar replays of the paper's two baselines: Perceptron and Hawkeye.

:class:`~repro.sim.llc.LLCSimulator` drives these policies through
six method calls per access, and each call walks predictor and sampler
objects.  Their predictor inputs, though, depend only on the stream,
so :mod:`~repro.sim.kernel.columns` lowers them once per replay:
six perceptron table indices, or the Hawkeye counter index.

What remains is serially dependent state, replayed here by one plain
function per policy with everything inlined as local-variable
bytecode, the same discipline as the MPPPB loop in
:mod:`~repro.sim.kernel.numpy_backend`.  The shapes are fixed, so no
code is generated; hyperparameters are read from the policy object:

* Perceptron: the true-LRU sampler on parallel tag / index-tuple /
  confidence lists, saturating weight updates applied in place to the
  live ``PerceptronPredictor.tables``, the reuse-bit victim scan, and
  the LRU recency stacks.
* Hawkeye: each sampled set's OptGen occupancy vector and history
  dict (including the prune), saturating updates to the live
  ``HawkeyePredictor.counters``, RRPV aging, the first-max victim, and
  detraining.
* Both: a per-set fill cursor over the cache's invalid-way prefix
  (a fresh cache fills its lowest invalid way first), and scalar
  counters from which ``LLCStats`` is derived afterwards.

Each function runs twice, over the warm range and then the measured
range, reproducing ``LLCSimulator.run``'s warm/measured split.
Policy state lives in the policy's own lists and dicts, updated in
place, except for what the reference keeps on objects (perceptron
sampler entries, OptGen clocks), which is written back; after a
replay the policy is in exactly the state ``LLCSimulator`` would
leave it in.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.predictors.hawkeye import HawkeyePolicy
from repro.predictors.perceptron import (
    WEIGHT_MAX,
    WEIGHT_MIN,
    PerceptronPolicy,
    _SamplerEntry,
)
from repro.sim.kernel import columns as _columns
from repro.sim.kernel.numpy_backend import _segment_stats
from repro.sim.llc import (
    LLCAccess,
    LLCResult,
    flush_llc_metrics,
    policy_cache,
)
from repro.util.hashing import hash_to


def replay_baseline(
    llc_bytes: int,
    ways: int,
    policy,
    block_bytes: int,
    stream: Sequence[LLCAccess],
    pc_trace: Sequence[int],
    warmup: int,
) -> LLCResult:
    """Equivalent of ``LLCSimulator(llc_bytes, ways, policy,
    block_bytes).run(stream, pc_trace, warmup)`` for an exact
    :class:`PerceptronPolicy` or :class:`HawkeyePolicy`."""
    cache = policy_cache(llc_bytes, ways, policy, block_bytes)
    replay = (_replay_perceptron if type(policy) is PerceptronPolicy
              else _replay_hawkeye)
    wb = min(max(warmup, 0), len(stream))
    prefetch, outcomes, warm_counts, counts = replay(policy, cache, stream,
                                                     pc_trace, wb)
    warm_prefetches = int(prefetch[:wb].sum())
    stats = _segment_stats(len(stream) - wb,
                           int(prefetch.sum()) - warm_prefetches, counts)
    flush_llc_metrics(stats, policy)
    return LLCResult(
        outcomes=outcomes,
        stats=stats,
        warm_stats=_segment_stats(wb, warm_prefetches, warm_counts),
    )


def _split(kernel, n: int, wb: int, *args) -> Tuple:
    """Run ``kernel`` over ``[0, wb)`` then ``[wb, n)``; returns
    ``(outcomes, warm counts, measured counts)``."""
    outcomes = [False] * n
    warm = kernel(0, wb, outcomes, *args)
    measured = kernel(wb, n, outcomes, *args)
    return outcomes, warm, measured


# -- Perceptron -------------------------------------------------------------


def _replay_perceptron(policy: PerceptronPolicy, cache, stream, pc_trace,
                       wb: int):
    predictor = policy.predictor
    sampler = predictor.sampler
    cols = _columns.lower_perceptron(stream, pc_trace, cache.num_sets,
                                     sampler._stride, sampler.sampler_sets,
                                     predictor.table_bits)
    blocks, set_idxs, tags, samp_idxs, prefetch, idx_cols = cols.as_lists()
    s_tags = [[e.tag for e in entries] for entries in predictor._sets]
    s_ind = [[tuple(e.indices) for e in entries]
             for entries in predictor._sets]
    s_conf = [[e.confidence for e in entries] for entries in predictor._sets]
    last = [policy._last_confidence]
    theta = predictor.theta
    params = (cache.ways, predictor.sampler_ways, policy.tau_bypass,
              policy.tau_replace, -max(1, theta), max(1, theta))
    counts = _split(_perceptron_kernel, cols.n, wb, blocks, set_idxs,
                    tags, samp_idxs, prefetch, *idx_cols, cache._where,
                    cache.tags, [0] * cache.num_sets, policy._lru._stacks,
                    policy._reuse_bit, s_tags, s_ind, s_conf,
                    predictor.tables, params, last)
    predictor._sets = [
        [_SamplerEntry(tag=tag, indices=list(ind), confidence=conf)
         for tag, ind, conf in zip(tag_row, ind_row, conf_row)]
        for tag_row, ind_row, conf_row in zip(s_tags, s_ind, s_conf)
    ]
    policy._last_confidence = float(last[0])
    return (cols.prefetch, *counts)


def _perceptron_kernel(lo, hi, outcomes, blocks, set_idxs, tags, samp_idxs,
                       prefetch, c0, c1, c2, c3, c4, c5, WHERE, CTAGS,
                       FILLS, STACKS, REUSE, S_TAGS, S_IND, S_CONF, tables,
                       params, last):
    """Replay accesses ``[lo, hi)``; returns (hits, dhits, byp, evc).

    ``live_thr``/``dead_thr`` fold the perceptron learning rule: a
    reused entry trains when ``c >= 0 or |c| < theta``, i.e.
    ``c > -max(1, theta)``; an evicted one when ``c <= 0 or |c| <
    theta``, i.e. ``c < max(1, theta)``.
    """
    ways, s_ways, tau_bypass, tau_replace, live_thr, dead_thr = params
    W0, W1, W2, W3, W4, W5 = tables
    wmin = WEIGHT_MIN
    wmax = WEIGHT_MAX
    hits = 0
    dhits = 0
    byp = 0
    evc = 0
    conf = last[0]
    for i in range(lo, hi):
        block = blocks[i]
        s = set_idxs[i]
        ws = WHERE[s]
        way = ws.get(block, -1)
        i0 = c0[i]
        i1 = c1[i]
        i2 = c2[i]
        i3 = c3[i]
        i4 = c4[i]
        i5 = c5[i]
        conf = W0[i0] + W1[i1] + W2[i2] + W3[i3] + W4[i4] + W5[i5]
        # --- sampler (PerceptronPredictor._sample) ----------------------
        si = samp_idxs[i]
        if si >= 0:
            st = S_TAGS[si]
            sx = S_IND[si]
            sc = S_CONF[si]
            tag = tags[i]
            le = len(st)
            st.append(tag)
            sp = st.index(tag)
            del st[le]
            if sp < le:
                if sc[sp] > live_thr:
                    a0, a1, a2, a3, a4, a5 = sx[sp]
                    v = W0[a0]
                    if v > wmin:
                        W0[a0] = v - 1
                    v = W1[a1]
                    if v > wmin:
                        W1[a1] = v - 1
                    v = W2[a2]
                    if v > wmin:
                        W2[a2] = v - 1
                    v = W3[a3]
                    if v > wmin:
                        W3[a3] = v - 1
                    v = W4[a4]
                    if v > wmin:
                        W4[a4] = v - 1
                    v = W5[a5]
                    if v > wmin:
                        W5[a5] = v - 1
                del st[sp]
                del sx[sp]
                del sc[sp]
            elif le >= s_ways:
                if sc[-1] < dead_thr:
                    a0, a1, a2, a3, a4, a5 = sx[-1]
                    v = W0[a0]
                    if v < wmax:
                        W0[a0] = v + 1
                    v = W1[a1]
                    if v < wmax:
                        W1[a1] = v + 1
                    v = W2[a2]
                    if v < wmax:
                        W2[a2] = v + 1
                    v = W3[a3]
                    if v < wmax:
                        W3[a3] = v + 1
                    v = W4[a4]
                    if v < wmax:
                        W4[a4] = v + 1
                    v = W5[a5]
                    if v < wmax:
                        W5[a5] = v + 1
                del st[-1]
                del sx[-1]
                del sc[-1]
            st.insert(0, tag)
            sx.insert(0, (i0, i1, i2, i3, i4, i5))
            sc.insert(0, conf)
        # --- policy (PerceptronPolicy + its LRU stacks) -----------------
        if way >= 0:
            hits += 1
            if prefetch[i] == 0:
                dhits += 1
            REUSE[s][way] = conf > tau_replace
            stack = STACKS[s]
            if stack[0] != way:
                stack.remove(way)
                stack.insert(0, way)
            outcomes[i] = True
        elif conf > tau_bypass:
            byp += 1
        else:
            marks = REUSE[s]
            stack = STACKS[s]
            fw = FILLS[s]
            if fw < ways:
                FILLS[s] = fw + 1
                if fw in stack:
                    stack.remove(fw)
            else:
                if True in marks:
                    fw = marks.index(True)
                    stack.remove(fw)
                else:
                    fw = stack.pop()
                evc += 1
                del ws[CTAGS[s][fw]]
            CTAGS[s][fw] = block
            ws[block] = fw
            stack.insert(0, fw)
            marks[fw] = conf > tau_replace
    last[0] = conf
    return hits, dhits, byp, evc


# -- Hawkeye ----------------------------------------------------------------


class _IndexMemo(dict):
    """PC -> counter index (``HawkeyePredictor._index``), hashed on
    first use: training and detraining look up PCs recorded by earlier
    accesses, possibly from an earlier replay, and a workload has few
    distinct PCs."""

    def __init__(self, bits: int) -> None:
        super().__init__()
        self.bits = bits

    def __missing__(self, pc: int) -> int:
        value = self[pc] = hash_to(pc >> 2, self.bits)
        return value


def _replay_hawkeye(policy: HawkeyePolicy, cache, stream, pc_trace,
                    wb: int):
    predictor = policy.predictor
    sampler = predictor.sampler
    cols = _columns.lower_hawkeye(stream, cache.num_sets, sampler._stride,
                                  sampler.sampler_sets, predictor.table_bits)
    blocks, set_idxs, _tags, samp_idxs, prefetch, (hidx, pcs) = \
        cols.as_lists()
    optgens = predictor._optgens
    clocks = [optgen.time for optgen in optgens]
    last = [policy._last_friendly]
    params = (cache.ways, optgens[0].ways, optgens[0].window,
              predictor.COUNTER_MAX, predictor.FRIENDLY_THRESHOLD,
              policy.RRPV_MAX)
    counts = _split(_hawkeye_kernel, cols.n, wb, blocks, set_idxs,
                    samp_idxs, prefetch, hidx, pcs, cache._where, cache.tags,
                    [0] * cache.num_sets, policy.rrpvs, policy._friendly,
                    policy._load_pc, [og.occupancy for og in optgens],
                    clocks, predictor._histories, predictor.counters,
                    _IndexMemo(predictor.table_bits), params, last)
    for optgen, clock in zip(optgens, clocks):
        optgen.time = clock
    policy._last_friendly = last[0]
    return (cols.prefetch, *counts)


def _hawkeye_kernel(lo, hi, outcomes, blocks, set_idxs, samp_idxs, prefetch,
                    hidx, pcs, WHERE, CTAGS, FILLS, RRPV, FRIENDLY, LOAD_PC,
                    OCC, CLOCK, HIST, CNT, MEMO, params, last):
    """Replay accesses ``[lo, hi)``; returns (hits, dhits, 0, evc).

    OptGen's interval ``[prev, now)`` is at most ``window - 1`` quanta
    long, so modulo the window it is one slice or two (wrapped); the
    occupancy test and increment run on those slices.
    """
    ways, opt_ways, window, cmax, friendly_thr, rmax = params
    prune_at = 4 * window
    age_below = rmax - 1
    hits = 0
    dhits = 0
    evc = 0
    friendly = last[0]
    for i in range(lo, hi):
        block = blocks[i]
        s = set_idxs[i]
        ws = WHERE[s]
        way = ws.get(block, -1)
        pc = pcs[i]
        # --- sampler (HawkeyePredictor._sample + OptGen) ---------------
        si = samp_idxs[i]
        if si >= 0:
            occ = OCC[si]
            hist = HIST[si]
            now = CLOCK[si]
            rec = hist.get(block)
            if rec is not None:
                prev = rec[0]
                if prev < 0 or now - prev >= window:
                    opt_hit = False
                else:
                    p = prev % window
                    q = now % window
                    if p <= q:
                        seg = occ[p:q]
                        opt_hit = max(seg, default=0) < opt_ways
                        if opt_hit:
                            occ[p:q] = [v + 1 for v in seg]
                    else:
                        seg = occ[p:]
                        seg2 = occ[:q]
                        opt_hit = (max(seg) < opt_ways
                                   and max(seg2, default=0) < opt_ways)
                        if opt_hit:
                            occ[p:] = [v + 1 for v in seg]
                            occ[:q] = [v + 1 for v in seg2]
                k = MEMO[rec[1]]
                c = CNT[k]
                if opt_hit:
                    if c < cmax:
                        CNT[k] = c + 1
                elif c > 0:
                    CNT[k] = c - 1
            now += 1
            CLOCK[si] = now
            occ[now % window] = 0
            hist[block] = (now - 1, pc)
            if len(hist) > prune_at:
                horizon = now - window
                HIST[si] = {b: r for b, r in hist.items()
                            if r[0] >= horizon}
        friendly = CNT[hidx[i]] >= friendly_thr
        # --- policy (HawkeyePolicy; Hawkeye never bypasses) -------------
        if way >= 0:
            hits += 1
            if prefetch[i] == 0:
                dhits += 1
            RRPV[s][way] = 0 if friendly else rmax
            FRIENDLY[s][way] = friendly
            LOAD_PC[s][way] = pc
            outcomes[i] = True
            continue
        rr = RRPV[s]
        fw = FILLS[s]
        if fw < ways:
            FILLS[s] = fw + 1
        else:
            if rmax in rr:
                fw = rr.index(rmax)
            else:
                fw = rr.index(max(rr))
                # Evicting a block believed friendly: detrain its PC.
                if FRIENDLY[s][fw]:
                    k = MEMO[LOAD_PC[s][fw]]
                    if CNT[k] > 0:
                        CNT[k] -= 1
            evc += 1
            del ws[CTAGS[s][fw]]
        CTAGS[s][fw] = block
        ws[block] = fw
        if friendly:
            rr[:] = [v + 1 if v < age_below else v for v in rr]
            rr[fw] = 0
        else:
            rr[fw] = rmax
        FRIENDLY[s][fw] = friendly
        LOAD_PC[s][fw] = pc
    last[0] = friendly
    return hits, dhits, 0, evc
