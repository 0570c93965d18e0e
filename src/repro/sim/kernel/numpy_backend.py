"""Numpy-column replay backend: a specialized, fully-inlined loop.

Profiling a per-access Python replay at tiny scale put about half its
time in the sampler's access path (attribute walks, ``SamplerEntry``
shuffling, per-feature method calls) and most of the rest in the
replacement policy's method dispatch and ``LLCStats`` attribute
increments.  Chunked numpy vectorization cannot help a loop whose
state (weights, sampler LRU, tree bits) is serially dependent access
to access; what helps is eliminating every function call and
attribute load from the loop.

So this backend generates one flat Python function per candidate
*shape* (feature entries x default policy x geometry x thresholds x
instrumentation) with everything inlined as local-variable bytecode:

* the perceptron sum, with per-feature index expressions specialized
  separately for the hit branch (``ins=0``, live PLRU position) and
  the miss branch (``ins=1``, ``mru=0``);
* the reuse sampler on parallel lists (tags / index-vectors /
  confidences) with a sentinel ``list.index`` probe (one C scan, no
  exceptions) and precomputed per-position training plans;
* saturating weight updates applied directly to the live
  ``WeightTable`` lists, so no write-back pass is needed for weights;
* the PLRU position/place walks unrolled to straight-line code (or
  the SRRIP victim search as a ``list.index``, after one aging step
  when no way is at ``rrpv_max``), operating on the policy's own
  ``tree.bits`` / ``rrpvs`` lists in place;
* fill tracking via a per-set fill cursor instead of a per-way
  invalid scan (a :class:`SetAssociativeCache` that has only ever
  installed at its lowest invalid way holds its valid ways as a
  prefix);
* scalar local counters instead of per-access ``LLCStats``
  increments; aggregate stats are derived afterwards.

The *instrumented* variant, built when the policy records the
``mpppb/confidence`` histogram (telemetry on), also collects every
access's saturated confidence, warm and measured alike — exactly the
values ``MPPPBPolicy.on_access`` observes — and folds them into the
histogram as each call returns, so it holds at most one window part
of them.  The uninstrumented variant emits no trace of it.

The generated function runs a half-open access range of one window's
columns, and :func:`repro.sim.kernel.columns.replay_windows` invokes
it over each window's warm part, then its measured part, exactly
reproducing the warm/measured split of ``LLCSimulator.run``.
:func:`plan` builds each candidate's state once per replay; it is
carried from window to window and written back once.  Code objects
are memoized by shape, so a feature-search batch of K perturbed
candidates compiles a handful of functions once and reuses them for
every candidate and every segment.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.core.predictor import CONFIDENCE_MAX, CONFIDENCE_MIN
from repro.core.sampler import SamplerEntry
from repro.core.tables import WEIGHT_MAX, WEIGHT_MIN

_CODE_CACHE: Dict[Tuple, object] = {}
_CODE_CACHE_MAX = 512

_KIND_MDPP = 0
_KIND_SRRIP = 1


def _index_exprs(entries, ins_literal: int, mru_expr: str) -> List[str]:
    """Per-feature index expressions for one branch of the cascade.

    ``ins`` is constant per branch and ``mru`` is 0 on misses, so the
    dynamic single-bit features constant-fold; XOR'd ones collapse to
    the hoisted hashed-PC local ``hv`` (``0 ^ hv == hv`` and both
    operands are already < 256, so the mask is dropped too).
    """
    exprs = []
    for entry in entries:
        kind = entry[0]
        if kind == "slot":
            exprs.append(f"c{entry[1]}[i]")
        elif kind == "const0":
            exprs.append("0")
        else:  # ("dyn", family, xor)
            family, xor = entry[1], entry[2]
            var = {"insert": str(ins_literal), "burst": mru_expr,
                   "lastmiss": "lm"}[family]
            if not xor:
                exprs.append(var)
            elif var == "0":
                exprs.append("hv")
            else:
                exprs.append(f"({var} ^ hv)")
    return exprs


def _plru_position(levels: int, way_var: str, bits_var: str) -> List[str]:
    """Unrolled PLRU position walk; leaves ``p`` and ``d0..`` bound."""
    lines = []
    node = "0"
    for level in range(levels):
        shift = levels - 1 - level
        d = f"d{level}"
        lines.append(f"{d} = ({way_var} >> {shift}) & 1" if shift
                     else f"{d} = {way_var} & 1")
        probe = f"1 if {bits_var}[{node}] == {d} else 0"
        lines.append(f"p = {probe}" if level == 0 else f"p = p + p + ({probe})")
        if level < levels - 1:
            nxt = f"a{level + 1}"
            lines.append(f"{nxt} = {node} + {node} + 1 + {d}"
                         if level else f"{nxt} = 1 + {d}")
            node = nxt
    return lines


def _plru_place_const(levels: int, position: int, bits_var: str) -> List[str]:
    """Unrolled place() toward a compile-time position.

    Reuses the ``d{level}`` / ``a{level}`` locals left by the position
    walk — promotion only happens on hits, right after that walk.
    """
    lines = []
    for level in range(levels):
        node = "0" if level == 0 else f"a{level}"
        toward = (position >> (levels - 1 - level)) & 1
        value = f"d{level}" if toward else f"1 - d{level}"
        lines.append(f"{bits_var}[{node}] = {value}")
    return lines


def _plru_victim(levels: int, ways: int, bits_var: str) -> List[str]:
    """Unrolled victim walk; leaves ``fw`` bound."""
    lines = []
    node = "0"
    for level in range(levels):
        nxt = f"n{level + 1}"
        lines.append(f"{nxt} = {node} + {node} + 1 + {bits_var}[{node}]"
                     if level else f"{nxt} = 1 + {bits_var}[0]")
        node = nxt
    lines.append(f"fw = {node} - {ways - 1}")
    return lines


def _plru_place_dynamic(levels: int, way_var: str, pos_var: str,
                        bits_var: str) -> List[str]:
    """Unrolled place() toward a runtime position (miss-fill path)."""
    lines = []
    node = "0"
    for level in range(levels):
        shift = levels - 1 - level
        g = f"g{level}"
        lines.append(f"{g} = ({way_var} >> {shift}) & 1" if shift
                     else f"{g} = {way_var} & 1")
        mask = 1 << shift
        lines.append(
            f"{bits_var}[{node}] = {g} if {pos_var} & {mask} else 1 - {g}")
        if level < levels - 1:
            nxt = f"h{level + 1}"
            lines.append(f"{nxt} = {node} + {node} + 1 + {g}"
                         if level else f"{nxt} = 1 + {g}")
            node = nxt
    return lines


def _emit(lines: List[str], depth: int, chunk) -> None:
    pad = "    " * depth
    if isinstance(chunk, str):
        lines.append(pad + chunk)
    else:
        lines.extend(pad + line for line in chunk)


def _build_source(key: Tuple) -> str:
    (entries, ncols, kind, ways, levels, promote_pos, tau_bypass, taus,
     placements, tau_np, theta, sampler_ways, rrpv_max, needs_h,
     instrumented) = key
    nf = len(entries)
    uses_hv = needs_h and any(
        e[0] == "dyn" and e[2] for e in entries)
    col_params = "".join(f", c{j}" for j in range(ncols))
    hist_param = ", HIST" if instrumented else ""

    hit_idx = _index_exprs(entries, 0, "mru")
    miss_idx = _index_exprs(entries, 1, "0")
    hit_sum = " + ".join(f"W{f}[_i{f}]" for f in range(nf))
    ind_list = ", ".join(f"_i{f}" for f in range(nf))

    src: List[str] = []
    e = lambda depth, chunk: _emit(src, depth, chunk)  # noqa: E731

    e(0, "def _kernel(lo, hi, outcomes, blocks, set_idxs, tags, samp_idxs,")
    e(0, f"            prefetch{col_params}, WHERE, CTAGS, FILLS, LASTM, DEF,")
    e(0, f"            S_TAGS, S_IND, S_CONF, WL, LIVE, LIVE_N, DEM{hist_param}):")
    for f in range(nf):
        e(1, f"W{f} = WL[{f}]")
    e(1, "hits = 0; dhits = 0; byp = 0; evc = 0; sup = 0")
    e(1, "t_live = 0; t_dead = 0")
    if instrumented:
        e(1, "confs = []; observe = confs.append")
    e(1, "for i in range(lo, hi):")
    e(2, "block = blocks[i]")
    e(2, "s = set_idxs[i]")
    e(2, "ws = WHERE[s]")
    e(2, "way = ws.get(block, -1)")
    e(2, "lm = LASTM[s]")
    if uses_hv:
        e(2, "hv = c0[i]")
    # --- prediction (branch-specialized) -------------------------------
    e(2, "if way >= 0:")
    e(3, "tb = DEF[s]")
    if kind == _KIND_MDPP:
        e(3, _plru_position(levels, "way", "tb"))
        e(3, "mru = 1 if p == 0 else 0")
    else:
        e(3, "mru = 1 if tb[way] == 0 else 0")
    for f in range(nf):
        e(3, f"_i{f} = {hit_idx[f]}")
    e(3, f"total = {hit_sum}")
    e(2, "else:")
    for f in range(nf):
        e(3, f"_i{f} = {miss_idx[f]}")
    e(3, "total = " + " + ".join(f"W{f}[_i{f}]" for f in range(nf)))
    e(2, f"if total > {CONFIDENCE_MAX}:")
    e(3, f"conf = {CONFIDENCE_MAX}")
    e(2, f"elif total < {CONFIDENCE_MIN}:")
    e(3, f"conf = {CONFIDENCE_MIN}")
    e(2, "else:")
    e(3, "conf = total")
    if instrumented:
        e(2, "observe(conf)")
    # --- sampler (inlined ReuseSampler.access) -------------------------
    e(2, "si = samp_idxs[i]")
    e(2, "if si >= 0:")
    e(3, "st = S_TAGS[si]")
    e(3, "sx = S_IND[si]")
    e(3, "sc = S_CONF[si]")
    e(3, "tag = tags[i]")
    e(3, "le = len(st)")
    e(3, "st.append(tag)")
    e(3, "sp = st.index(tag)")
    e(3, "del st[le]")
    e(3, f"ind = [{ind_list}]")
    e(3, "if sp < le:")
    e(4, f"if sc[sp] > {-theta}:")
    e(5, "ei = sx[sp]")
    e(5, "for f in LIVE[sp]:")
    e(6, "w = WL[f]")
    e(6, "ti = ei[f]")
    e(6, "v = w[ti]")
    e(6, f"if v > {WEIGHT_MIN}:")
    e(7, "w[ti] = v - 1")
    e(5, "t_live += LIVE_N[sp]")
    e(4, "bound = sp")
    e(3, "else:")
    e(4, "bound = le")
    e(3, "for dp, dfeats, dn in DEM:")
    e(4, "if dp >= bound:")
    e(5, "break")
    e(4, f"if sc[dp] < {theta}:")
    e(5, "e2 = sx[dp]")
    e(5, "for f in dfeats:")
    e(6, "w = WL[f]")
    e(6, "ti = e2[f]")
    e(6, "v = w[ti]")
    e(6, f"if v < {WEIGHT_MAX}:")
    e(7, "w[ti] = v + 1")
    e(5, "t_dead += dn")
    e(3, "if sp < le:")
    e(4, "del st[sp]")
    e(4, "del sx[sp]")
    e(4, "del sc[sp]")
    e(3, f"elif le >= {sampler_ways}:")
    e(4, "del st[-1]")
    e(4, "del sx[-1]")
    e(4, "del sc[-1]")
    e(3, "st.insert(0, tag)")
    e(3, "sx.insert(0, ind)")
    e(3, "sc.insert(0, conf)")
    # --- decision cascade ----------------------------------------------
    e(2, "if way >= 0:")
    e(3, "hits += 1")
    e(3, "if prefetch[i] == 0:")
    e(4, "dhits += 1")
    e(3, f"if conf > {tau_np}:")
    e(4, "sup += 1")
    e(3, "else:")
    if kind == _KIND_MDPP:
        e(4, f"if p > {promote_pos}:")
        e(5, _plru_place_const(levels, promote_pos, "tb"))
    else:
        e(4, "tb[way] = 0")
    e(3, "LASTM[s] = 0")
    e(3, "outcomes[i] = True")
    e(2, "else:")
    e(3, f"if conf > {tau_bypass}:")
    e(4, "byp += 1")
    e(3, "else:")
    e(4, "ts = CTAGS[s]")
    e(4, "fw = FILLS[s]")
    e(4, f"if fw < {ways}:")
    e(5, "FILLS[s] = fw + 1")
    e(4, "else:")
    e(5, "tb = DEF[s]")
    if kind == _KIND_MDPP:
        e(5, _plru_victim(levels, ways, "tb"))
    else:
        # SRRIPPolicy.choose_victim ages the set one step at a time
        # until some way reaches rrpv_max.  Every RRPV stays in
        # 0..rrpv_max (hits write 0, placements are validated against
        # rrpv_max by MPPPBPolicy and SRRIPPolicy.place), so that is the
        # first way at rrpv_max, after one aging by rrpv_max - max(tb)
        # when no way is there yet.
        e(5, f"if {rrpv_max} not in tb:")
        e(6, "m = max(tb)")
        e(6, f"tb[:] = [v + {rrpv_max} - m for v in tb]")
        e(5, f"fw = tb.index({rrpv_max})")
    e(5, "evc += 1")
    e(5, "ev = ts[fw]")
    e(5, "if ws.get(ev) == fw:")
    e(6, "del ws[ev]")
    e(4, "ts[fw] = block")
    e(4, "ws[block] = fw")
    e(4, f"if conf > {taus[0]}:")
    e(5, f"pp = {placements[0]}")
    e(4, f"elif conf > {taus[1]}:")
    e(5, f"pp = {placements[1]}")
    e(4, f"elif conf > {taus[2]}:")
    e(5, f"pp = {placements[2]}")
    e(4, "else:")
    e(5, "pp = 0")
    e(4, "tb2 = DEF[s]")
    if kind == _KIND_MDPP:
        e(4, _plru_place_dynamic(levels, "fw", "pp", "tb2"))
    else:
        e(4, "tb2[fw] = pp")
    e(3, "LASTM[s] = 1")
    if instrumented:
        e(1, "HIST.observe_many(confs)")
    e(1, "return hits, dhits, byp, evc, sup, t_live, t_dead")
    return "\n".join(src) + "\n"


def _kernel_for(key: Tuple):
    fn = _CODE_CACHE.get(key)
    if fn is None:
        namespace: Dict[str, object] = {}
        exec(compile(_build_source(key), "<stage2-kernel>", "exec"),
             namespace)
        fn = namespace["_kernel"]
        if len(_CODE_CACHE) >= _CODE_CACHE_MAX:
            _CODE_CACHE.clear()
        _CODE_CACHE[key] = fn
    return fn


def _shape(policy, program: Tuple) -> Tuple:
    """The code-cache key of one candidate: ``program`` is its
    ``(entries, ncols, needs_h)`` in its batch's slot layout."""
    entries, ncols, needs_h = program
    config = policy.config
    default = policy.default
    if type(default).__name__ == "MDPPPolicy":
        kind = _KIND_MDPP
        levels = default.trees[0].levels
        promote = default.promote_position
        rrpv_max = 0
    else:
        kind = _KIND_SRRIP
        levels = 0
        promote = 0
        rrpv_max = default.rrpv_max
    return (entries, ncols, kind, policy.ways, levels, promote,
            config.tau_bypass, tuple(config.taus), tuple(config.placements),
            config.tau_no_promote, policy.sampler.theta, policy.sampler.ways,
            rrpv_max, needs_h, policy._conf_hist is not None)


def plan(policy, cache, program: Tuple) -> Tuple[Callable, Tuple, Callable]:
    """``(kernel, state, finish)`` of one MPPPB candidate: the state the
    kernel carries outside the live objects is built here, and
    ``finish(totals)`` writes it back after the last window."""
    sampler = policy.sampler
    kernel = _kernel_for(_shape(policy, program))

    # The cache has only ever installed at its lowest invalid way, so
    # each set's valid ways are a prefix: the fill cursor is its length.
    fills = [sum(valid_row) for valid_row in cache.valid]
    lastm = bytearray(cache.num_sets)
    default = policy.default
    if type(default).__name__ == "MDPPPolicy":
        def_state = [tree.bits for tree in default.trees]
    else:
        def_state = default.rrpvs

    s_tags = [[entry.tag for entry in entries] for entries in sampler._sets]
    s_ind = [[entry.indices for entry in entries]
             for entries in sampler._sets]
    s_conf = [[entry.confidence for entry in entries]
              for entries in sampler._sets]

    assoc = policy.predictor.associativities
    live = tuple(
        tuple(f for f, a in enumerate(assoc) if pos < a)
        for pos in range(sampler.ways)
    )
    live_n = tuple(len(feats) for feats in live)
    demotions = tuple(
        (pos, tuple(sampler._features_at[pos + 1]),
         len(sampler._features_at[pos + 1]))
        for pos in range(sampler.ways)
        if sampler._features_at[pos + 1]
    )

    state = (cache._where, cache.tags, fills, lastm, def_state,
             s_tags, s_ind, s_conf, policy.predictor._weights,
             live, live_n, demotions)
    if policy._conf_hist is not None:
        state += (policy._conf_hist,)

    def finish(totals: List[int]) -> None:
        for set_idx, count in enumerate(fills):
            valid_row = cache.valid[set_idx]
            for way in range(count):
                valid_row[way] = True
        sampler._sets = [
            [SamplerEntry(tag, ind, conf)
             for tag, ind, conf in zip(tag_row, ind_row, conf_row)]
            for tag_row, ind_row, conf_row in zip(s_tags, s_ind, s_conf)
        ]
        policy.bypasses += totals[2]
        policy.promotions_suppressed += totals[4]
        sampler.trainings_live += totals[5]
        sampler.trainings_dead += totals[6]

    return kernel, state, finish
