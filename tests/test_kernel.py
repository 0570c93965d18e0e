"""Columnar Stage-2 kernel: lowering, replay, and the reference switch.

Each contract is pinned independently:

* **Lowering** — :func:`repro.sim.kernel.columns.lower_stream` must
  reproduce the stream decode (blocks, set indices, partial tags,
  sampler sets, prefetch flags), and every deduplicated static feature
  slot, run through the kernel's own index expressions together with
  the access's dynamic bits, must equal the indices the
  :meth:`~repro.core.features.Feature.compile` closures compute from
  the :class:`~repro.cache.access.AccessContext`, and so must every
  lowered slot on its own.
* **Replay** — the exec-specialized numpy loop must finish
  bit-identical to :class:`~repro.sim.llc.LLCSimulator`: outcomes,
  stats, policy counters, sampler entries, and perceptron weights.  A
  hypothesis lockstep drive over adversarial random streams backs the
  fixed workloads.  Its instrumented variant differs from the plain
  source only by the confidence recording.
* **Switch** — ``REPRO_STAGE2_KERNEL=off`` (any off word) selects the
  reference replay; unset or an on word, the kernel.
* **Baselines** — the Perceptron and Hawkeye columns equal the
  predictors' own index functions access by access; their replays,
  and LRU's, match ``LLCSimulator`` down to every piece of policy
  state on random streams (lists and ``LLCColumns``), a geometry that
  reaches every replacement and training path, policies reused on
  fresh caches, and a merged 4-thread mix; and their output satisfies
  the accounting identities with no reference involved.
* **Routing** — ``replay_segment`` is the switch's one reader and has
  two routes.  With the kernel on, an exact ``LRUPolicy`` never
  reaches ``LLCSimulator.run``, neither as a cell nor as a mix
  thread's standalone baseline; with it off, every LRU replay does.
  An ``LRUPolicy`` or ``MPPPBPolicy`` subclass (whose override then
  holds) and every policy of a mixed list always do.  MPPPB
  candidates replay as one kernel batch (off: never the kernel),
  equal to one-policy calls.
* **Columnar streams** — an :class:`~repro.sim.llc.LLCColumns` stream
  behaves as its materialized list and lowers to the same columns, and
  kernel-space PCs (>= 2**63) replay on the kernel exactly as on the
  reference, for a single segment and a 4-thread mix.
* **Windows** — every route replays ``repro.sim.llc.WINDOW`` accesses
  at a time.  At windows of 1, 97 and 1,024, with warmup at 0, on a
  window edge, inside a window and at the stream's end, each route
  finishes equal to its one-window replay down to every piece of
  cache and policy state, and records the same telemetry; empty and
  one-access streams match the reference; and quadrupling a stream
  adds no more than 16 B per added access to a replay's traced peak,
  on every kernel route, with telemetry on, and on ``LLCSimulator``.
"""

import random
import tracemalloc

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.cache.access import AccessContext
from repro.cache.replacement.lru import LRUPolicy
from repro.config import TINY
from repro.core.features import (
    BiasFeature,
    parse_feature_set,
    random_feature_set,
)
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.core.presets import (
    TABLE_1A_SPECS,
    TABLE_1B_SPECS,
    single_thread_config,
)
from repro.policies import policy_factory
from repro.predictors.base import partial_tag
from repro.predictors.hawkeye import HawkeyePolicy, HawkeyePredictor, OptGen
from repro.predictors.perceptron import PerceptronPolicy, PerceptronPredictor
from repro.sim import kernel as kernel_mod
from repro.sim import llc as llc_mod
from repro.sim.batch import KERNELS, BatchLLCSimulator, _build_programs
from repro.sim.hierarchy import UpperLevels
from repro.sim.kernel import columns as columns_mod
from repro.sim.kernel import numpy_backend
from repro.sim.llc import LLCAccess, LLCColumns, LLCSimulator
from repro.sim.multi import MultiProgrammedRunner
from repro.sim.single import replay_segment
from repro.traces.mixes import Mix
from repro.traces.trace import Segment, Trace
from repro.traces.workloads import build_segments

LLC_BYTES = TINY.hierarchy.llc_bytes
WAYS = TINY.hierarchy.llc_ways
NUM_SETS = TINY.hierarchy.llc_sets
ACCESSES = 2_000
# Base of the kernel-space PCs real x86-64 traces carry (>= 2**63).
KERNEL_PC = 0xFFFFFFFF81000000


@pytest.fixture(scope="module")
def stage1():
    segment = build_segments("soplex", LLC_BYTES, ACCESSES)[0]
    upper = UpperLevels(TINY.hierarchy).run(segment.trace)
    return upper.llc_stream, segment.trace.pcs


def _configs(seed=7, k=4, default_policy="mdpp"):
    rng = random.Random(seed)
    feature_sets = [
        parse_feature_set(TABLE_1A_SPECS),
        parse_feature_set(TABLE_1B_SPECS),
    ]
    while len(feature_sets) < k:
        feature_sets.append(random_feature_set(rng))
    placements = (15, 13, 10) if default_policy == "mdpp" else (3, 2, 1)
    return [
        MPPPBConfig(features=features, default_policy=default_policy,
                    placements=placements)
        for features in feature_sets[:k]
    ]


def _batch(configs):
    policies = [MPPPBPolicy(NUM_SETS, WAYS, c) for c in configs]
    return BatchLLCSimulator(policies)


def _lower(configs, stream, pcs):
    """``stream`` lowered over the shared slots of ``configs``."""
    _, needs_h, slots = _build_programs([c.features for c in configs])
    first = MPPPBPolicy(NUM_SETS, WAYS, configs[0]).sampler
    return columns_mod.lower_stream(
        stream, pcs, NUM_SETS, first.mapper._stride,
        first.mapper.sampler_sets, first.tag_bits, slots, needs_h,
    )


def _sequential(stream, pcs, config, warmup):
    policy = MPPPBPolicy(NUM_SETS, WAYS, config)
    sim = LLCSimulator(policy)
    result = sim.run(stream, pc_trace=pcs, warmup=warmup)
    return result, policy


def _sampler_state(policy):
    return [
        [(e.tag, tuple(e.indices), e.confidence) for e in entries]
        for entries in policy.sampler._sets
    ]


def _assert_identical(result, policy, seq_result, seq_policy):
    assert result.outcomes == seq_result.outcomes
    assert result.stats == seq_result.stats
    assert result.warm_stats == seq_result.warm_stats
    assert policy.bypasses == seq_policy.bypasses
    assert policy.promotions_suppressed == seq_policy.promotions_suppressed
    assert policy.sampler.trainings_live == seq_policy.sampler.trainings_live
    assert policy.sampler.trainings_dead == seq_policy.sampler.trainings_dead
    assert _sampler_state(policy) == _sampler_state(seq_policy)
    assert policy.predictor._weights == seq_policy.predictor._weights


def _contexts(stream, pcs):
    """The AccessContext LLCSimulator builds for each access."""
    for index, access in enumerate(stream):
        yield AccessContext(
            pc=access.pc, address=(access.block << 6) | access.offset,
            block=access.block, offset=access.offset,
            is_write=access.is_write, is_prefetch=access.is_prefetch,
            stream_index=index, history_index=access.mem_index,
            pc_history=pcs)


# -- lowering round trip ---------------------------------------------------


def _assert_columns_match_compile(configs, stream, pcs, seed=3):
    """Stream columns equal the scalar decode; every lowered slot equals
    the ``compile()`` closure of a feature that reads it (slot 0, the
    hashed PC, that of a PC-XORed bias feature); and each candidate's
    kernel index expressions over the slot columns equal its closures
    on the access context, under random dynamic bits (hit or miss, MRU
    hit, set's last access a miss)."""
    entry_sets, needs_h, _ = _build_programs([c.features for c in configs])
    cols = _lower(configs, stream, pcs)
    sampler = MPPPBPolicy(NUM_SETS, WAYS, configs[0]).sampler
    assert cols.n == len(stream)
    assert cols.blocks.tolist() == [a.block for a in stream]
    set_idxs = [a.block & (NUM_SETS - 1) for a in stream]
    assert cols.set_idxs.tolist() == set_idxs
    assert cols.tags.tolist() == [partial_tag(a.block, sampler.tag_bits)
                                  for a in stream]
    assert cols.samp_idxs.tolist() == [sampler.mapper.sampler_index(s)
                                       for s in set_idxs]
    assert cols.prefetch.tolist() == [int(a.is_prefetch) for a in stream]

    readers = {0: BiasFeature(1, True)} if needs_h else {}
    for config, entries in zip(configs, entry_sets):
        for feature, entry in zip(config.features, entries):
            if entry[0] == "slot":
                readers.setdefault(entry[1], feature)
    assert sorted(readers) == list(range(len(cols.cols)))
    for slot, feature in readers.items():
        index = feature.compile()
        assert cols.cols[slot].tolist() == [
            index(ctx) for ctx in _contexts(stream, pcs)]

    rng = random.Random(seed)
    env = {f"c{j}": col.tolist() for j, col in enumerate(cols.cols)}
    for config, entries in zip(configs, entry_sets):
        closures = [feature.compile() for feature in config.features]
        exprs = {
            hit: [compile(expr, "<index>", "eval")
                  for expr in numpy_backend._index_exprs(
                      entries, 0 if hit else 1, "mru" if hit else "0")]
            for hit in (True, False)
        }
        for i, ctx in enumerate(_contexts(stream, pcs)):
            hit = rng.random() < 0.5
            ctx.is_insert = not hit
            ctx.is_mru_hit = hit and rng.random() < 0.5
            ctx.last_was_miss = rng.random() < 0.5
            env.update(i=i, mru=int(ctx.is_mru_hit),
                       lm=int(ctx.last_was_miss))
            if needs_h:
                env["hv"] = env["c0"][i]
            assert ([eval(e, env) for e in exprs[hit]]
                    == [index(ctx) for index in closures])


def test_columns_match_compile(stage1):
    """Vectorized lowering + kernel index expressions == the closures."""
    stream, pcs = stage1
    _assert_columns_match_compile(_configs(k=6), stream, pcs)


def test_columns_empty_history_and_stream():
    cols = _lower(_configs(k=2), [], [])
    assert cols.n == 0
    assert all(len(col) == 0 for col in cols.arrays())
    _assert_columns_match_compile(_configs(k=2), [], [])
    access = LLCAccess(pc=0x4000, block=17, offset=8, is_write=False,
                       is_prefetch=False, mem_index=0, instr_index=0)
    _assert_columns_match_compile(_configs(k=2), [access], [])


def test_mix64_array_matches_scalar():
    from repro.util.hashing import mix64

    raw = [0, 1, 0xDEADBEEF, (1 << 63) + 12345, 2**64 - 1]
    mixed = columns_mod.mix64_array(np.array(raw, dtype=np.uint64))
    assert mixed.tolist() == [mix64(v) for v in raw]


# -- lockstep replay -------------------------------------------------------


def _synthetic_stream(picks):
    """Build an LLC stream + PC trace from hypothesis-drawn tuples."""
    stream = []
    pcs = []
    for i, (pc, block, offset, pf) in enumerate(picks):
        pcs.append(pc)
        stream.append(LLCAccess(pc=pc, block=block, offset=offset,
                                is_write=False, is_prefetch=pf,
                                mem_index=i, instr_index=i))
    return stream, pcs


_access_st = st.tuples(
    # Word-aligned PCs over the full 64 bits, kernel half included.
    st.integers(min_value=0, max_value=2**62 - 1).map(lambda v: v << 2),
    # Blocks from a small window so sets conflict, hit, and evict.
    st.integers(min_value=0, max_value=NUM_SETS * (WAYS + 4)),
    st.integers(min_value=0, max_value=63),
    st.booleans(),
)


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(_access_st, min_size=1, max_size=120),
           warmup=st.integers(min_value=0, max_value=130),
           seed=st.integers(min_value=0, max_value=2**16),
           default_policy=st.sampled_from(["mdpp", "srrip"]))
    def test_numpy_kernel_lockstep(self, picks, warmup, seed,
                                   default_policy):
        """Random streams: numpy kernel == LLCSimulator, per access."""
        stream, pcs = _synthetic_stream(picks)
        configs = _configs(seed=seed, k=2, default_policy=default_policy)
        sim = _batch(configs)
        results = sim.run(stream, pcs, warmup)
        for config, policy, result in zip(configs, sim.policies, results):
            seq_result, seq_policy = _sequential(stream, pcs, config,
                                                 warmup)
            _assert_identical(result, policy, seq_result, seq_policy)

    def test_srrip_victim_is_first_way_at_rrpv_max(self):
        """SRRIP default: WAYS fills of one set, all placed at RRPV 0,
        then one more miss ages every way to rrpv_max together and
        SRRIP evicts the first, block 0.  Re-touching blocks 0 and
        WAYS - 1 tells which way went: block 0 misses, block WAYS - 1
        still hits."""
        blocks = [way * NUM_SETS for way in range(WAYS + 1)]
        blocks += [0, (WAYS - 1) * NUM_SETS]
        stream, pcs = _synthetic_stream(
            [(0x400, block, 0, False) for block in blocks])
        # Thresholds above any reachable confidence (16 six-bit
        # weights sum to at most 496) place every fill at RRPV 0 and
        # bypass nothing.
        config = MPPPBConfig(features=parse_feature_set(TABLE_1A_SPECS),
                             default_policy="srrip", placements=(3, 2, 1),
                             tau_bypass=1000, taus=(999, 998, 997))
        seq_result, seq_policy = _sequential(stream, pcs, config, 0)
        assert seq_result.outcomes == [False] * (WAYS + 2) + [True]
        sim = _batch([config])
        [result] = sim.run(stream, pcs, 0)
        _assert_identical(result, sim.policies[0], seq_result, seq_policy)

    @pytest.mark.parametrize("default_policy", ["mdpp", "srrip"])
    def test_instrumented_source_only_adds_recording(self, default_policy):
        """The instrumented variant is the plain source plus one extra
        parameter, the histogram, and three lines: one that starts the
        call's confidence list, one that records each access's, and one
        that folds the list into the histogram as the call returns."""
        policies = _batch(_configs(k=3, default_policy=default_policy)
                          ).policies
        _, programs = KERNELS[MPPPBPolicy].lowering(policies, ())
        for policy, program in zip(policies, programs):
            key = numpy_backend._shape(policy, program)
            assert key[-1] is False  # telemetry off at construction
            plain = numpy_backend._build_source(key)
            instrumented = numpy_backend._build_source(key[:-1] + (True,))
            assert "        observe(conf)\n" in instrumented
            assert instrumented.replace(", HIST):", "):").replace(
                "    confs = []; observe = confs.append\n", "").replace(
                "        observe(conf)\n", "").replace(
                "    HIST.observe_many(confs)\n", "") == plain


# -- the reference switch ----------------------------------------------------


class TestKnob:
    def test_disabled_values(self, monkeypatch):
        for value in ("off", "0", "false", "no", "none", "OFF"):
            monkeypatch.setenv("REPRO_STAGE2_KERNEL", value)
            assert not kernel_mod.stage2_kernel_enabled()
        monkeypatch.delenv("REPRO_STAGE2_KERNEL")
        assert kernel_mod.stage2_kernel_enabled()


class TestFallbacks:
    def test_batch_run_uses_kernel(self, stage1, monkeypatch):
        """BatchLLCSimulator.run is the kernel alone: only replay_segment
        reads the switch, so the batch runs the kernel even when off,
        as one window loop for all its policies."""
        stream, pcs = stage1
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", "off")
        calls = []
        original = columns_mod.replay_windows

        def spy(stream, warmup, lower, replays):
            calls.append((warmup, len(replays)))
            return original(stream, warmup, lower, replays)

        monkeypatch.setattr(columns_mod, "replay_windows", spy)
        sim = _batch(_configs(k=2))
        sim.run(stream, pc_trace=pcs, warmup=250)
        assert calls == [(250, 2)]

    def test_batch_run_off_uses_reference(self, stage1, monkeypatch):
        """With the switch off, replay_segment replays every candidate on
        LLCSimulator: the kernel is never called, and each candidate
        equals its own sequential replay."""
        stream, pcs = stage1
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", "off")

        def refuse(*args, **kwargs):
            raise AssertionError("kernel used with REPRO_STAGE2_KERNEL=off")

        monkeypatch.setattr(BatchLLCSimulator, "run", refuse)
        configs = _configs(k=2)
        policies = [MPPPBPolicy(NUM_SETS, WAYS, c) for c in configs]
        results = replay_segment(policies, stream, pcs, 250)
        assert len(results) == len(configs)
        for config, policy, result in zip(configs, policies, results):
            seq_result, seq_policy = _sequential(stream, pcs, config, 250)
            _assert_identical(result, policy, seq_result, seq_policy)


class TestMPPPBRouting:
    @pytest.mark.parametrize("kernel", ["on", "off"])
    def test_candidates_replay_as_one_policy_calls(self, stage1, kernel,
                                                   monkeypatch):
        """Three MPPPB candidates in one replay_segment call (one kernel
        batch, or three reference replays) return what three one-policy
        calls return and leave each policy in the same state."""
        stream, pcs = stage1
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", kernel)
        batches = []
        real = BatchLLCSimulator.run

        def spy(sim, *args, **kwargs):
            batches.append(len(sim.policies))
            return real(sim, *args, **kwargs)

        monkeypatch.setattr(BatchLLCSimulator, "run", spy)
        configs = _configs(k=3)
        together = [MPPPBPolicy(NUM_SETS, WAYS, c) for c in configs]
        results = replay_segment(together, stream, pcs, 250)
        assert batches == ([3] if kernel == "on" else [])
        assert len(results) == len(configs)
        for config, policy, result in zip(configs, together, results):
            alone = MPPPBPolicy(NUM_SETS, WAYS, config)
            [expected] = replay_segment([alone], stream, pcs, 250)
            _assert_identical(result, policy, expected, alone)
            assert ([tree.bits for tree in policy.default.trees]
                    == [tree.bits for tree in alone.default.trees])


# -- baseline predictors (Perceptron, Hawkeye) ------------------------------

# A 4-set x 4-way LLC with half its sets sampled: random streams over a
# few dozen blocks fill sets, evict sampler entries, pick reuse-bit
# victims, and wrap a 2x-associativity OptGen window.
SMALL_SETS = 4
SMALL_WAYS = 4


def _edge_stream(stream, pcs):
    """``stream`` plus accesses at the edges of the PC history: the
    first memory access (``mem_index`` 0, nothing before it), and
    prefetches whose history base (``mem_index + 1``) reaches or runs
    past the end of ``pcs``."""
    def access(mem_index, prefetch, block):
        return LLCAccess(pc=0x4A0, block=block, offset=3, is_write=False,
                         is_prefetch=prefetch, mem_index=mem_index,
                         instr_index=mem_index)

    edges = [access(0, False, 5), access(0, True, 6),
             access(len(pcs) - 1, True, 7), access(len(pcs) + 1, True, 8)]
    return list(stream) + edges


class TestBaselineLowering:
    def test_perceptron_indices_match_feature_indices(self, stage1):
        stream, pcs = stage1
        stream = _edge_stream(stream, pcs)
        predictor = PerceptronPredictor(NUM_SETS)
        sampler = predictor.sampler
        cols = columns_mod.lower_perceptron(
            stream, pcs, NUM_SETS, sampler._stride, sampler.sampler_sets,
            predictor.table_bits)
        lowered = list(zip(*(col.tolist() for col in cols.cols)))
        expected = [tuple(predictor.feature_indices(ctx))
                    for ctx in _contexts(stream, pcs)]
        assert lowered == expected
        assert cols.tags.tolist() == [partial_tag(a.block) for a in stream]
        assert cols.samp_idxs.tolist() == [
            sampler.sampler_index(a.block & (NUM_SETS - 1)) for a in stream]

    def test_perceptron_history_edges(self, stage1):
        """mem_index 0 sees no history; a prefetch based past the end
        of the trace reads zeros there and real PCs before it."""
        stream, pcs = stage1
        edges = _edge_stream([], pcs)
        predictor = PerceptronPredictor(NUM_SETS)
        cols = columns_mod.lower_perceptron(
            edges, pcs, NUM_SETS, 1, NUM_SETS, predictor.table_bits)
        history = [col.tolist() for col in cols.cols[1:4]]
        zero = PerceptronPredictor(NUM_SETS).feature_indices(
            next(_contexts([edges[0]], [])))
        # mem_index 0, demand: all three history probes read PC 0.
        assert [h[0] for h in history] == zero[1:4]
        # Base len(pcs) + 2: depths 1 and 2 fall off the end, depth 3
        # reads the last PC.
        past_end = [h[3] for h in history]
        assert past_end[:2] == zero[1:3]
        ctx = next(_contexts([edges[3]], pcs))
        assert past_end == predictor.feature_indices(ctx)[1:4]

    def test_hawkeye_index_matches_predictor(self, stage1):
        stream, pcs = stage1
        stream = _edge_stream(stream, pcs)
        predictor = HawkeyePredictor(NUM_SETS, WAYS)
        sampler = predictor.sampler
        cols = columns_mod.lower_hawkeye(
            stream, NUM_SETS, sampler._stride, sampler.sampler_sets,
            predictor.table_bits)
        assert cols.cols[0].tolist() == [predictor._index(a.pc)
                                         for a in stream]
        assert cols.cols[1].tolist() == [a.pc for a in stream]
        assert cols.samp_idxs.tolist() == [
            sampler.sampler_index(a.block & (NUM_SETS - 1)) for a in stream]


def _small_perceptron(theta=30, tau_bypass=6, tau_replace=0):
    predictor = PerceptronPredictor(SMALL_SETS, sampler_sets=2,
                                    sampler_ways=4, table_bits=4,
                                    theta=theta)
    return PerceptronPolicy(SMALL_SETS, SMALL_WAYS, predictor=predictor,
                            tau_bypass=tau_bypass, tau_replace=tau_replace)


def _small_hawkeye():
    predictor = HawkeyePredictor(SMALL_SETS, SMALL_WAYS, sampler_sets=2,
                                 table_bits=3)
    predictor._optgens = [OptGen(SMALL_WAYS, window_factor=2)
                          for _ in predictor._optgens]
    return HawkeyePolicy(SMALL_SETS, SMALL_WAYS, predictor=predictor)


def _small_lru():
    return LRUPolicy(SMALL_SETS, SMALL_WAYS)


def _policy_state(policy):
    """Every piece of mutable policy state the replay touches, by name."""
    if type(policy) is LRUPolicy:
        return {"lru stacks": policy._stacks}
    predictor = policy.predictor
    if isinstance(policy, PerceptronPolicy):
        return {
            "weights": predictor.tables,
            "lru stacks": policy._lru._stacks,
            "reuse bits": policy._reuse_bit,
            "sampler": [[(e.tag, list(e.indices), e.confidence)
                         for e in entries] for entries in predictor._sets],
            "last confidence": policy._last_confidence,
        }
    return {
        "counters": predictor.counters,
        "rrpvs": policy.rrpvs,
        "friendly": policy._friendly,
        "load pcs": policy._load_pc,
        "optgen": [(o.time, o.occupancy) for o in predictor._optgens],
        "histories": predictor._histories,
        "last friendly": policy._last_friendly,
    }


def _assert_same_state(kernel_policy, reference_policy):
    ours, theirs = _policy_state(kernel_policy), _policy_state(reference_policy)
    for name, value in theirs.items():
        same = ours[name] == value   # a bool: keeps failure output short
        assert same, f"{name} differs from LLCSimulator's"


def _kernel_replay(policy, stream, pcs, warmup):
    """Replay through the kernel; also returns the cache it filled."""
    sim = BatchLLCSimulator([policy])
    [result] = sim.run(stream, pcs, warmup)
    return result, sim.caches[0]


def _assert_baseline_lockstep(make, stream, pcs, warmup):
    kernel_policy, reference_policy = make(), make()
    result, _ = _kernel_replay(kernel_policy, stream, pcs, warmup)
    reference = LLCSimulator(reference_policy).run(
        stream, pc_trace=pcs, warmup=warmup)
    assert result.outcomes == reference.outcomes
    assert result.stats == reference.stats
    assert result.warm_stats == reference.warm_stats
    _assert_same_state(kernel_policy, reference_policy)
    return result


_baseline_access_st = st.tuples(
    # A small PC pool so table and counter entries are shared, with a
    # few kernel-space PCs (>= 2**63) among the user-space ones.
    st.sampled_from([0x400 + 4 * v for v in range(16)]
                    + [KERNEL_PC + 4 * v for v in range(4)]),
    # Tight loops (OptGen occupancy reaches the associativity), a few
    # dozen blocks (conflicts and reuse), and a wide range (sampler
    # churn, OptGen history prunes).
    st.one_of(st.integers(min_value=0, max_value=SMALL_SETS * 6),
              st.integers(min_value=0, max_value=SMALL_SETS * 8),
              st.integers(min_value=0, max_value=SMALL_SETS * 64)),
    st.integers(min_value=0, max_value=63),
    st.booleans(),
)


class TestBaselineLockstep:
    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(_baseline_access_st, min_size=1, max_size=300),
           warmup=st.integers(min_value=0, max_value=320),
           theta=st.sampled_from([0, 1, 3, 30]),
           tau_bypass=st.sampled_from([-4, 0, 6]),
           tau_replace=st.sampled_from([-2, 0, 2]))
    def test_perceptron_lockstep(self, picks, warmup, theta, tau_bypass,
                                 tau_replace):
        stream, pcs = _synthetic_stream(picks)
        _assert_baseline_lockstep(
            lambda: _small_perceptron(theta, tau_bypass, tau_replace),
            stream, pcs, warmup)

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(_baseline_access_st, min_size=1, max_size=300),
           warmup=st.integers(min_value=0, max_value=320))
    def test_hawkeye_lockstep(self, picks, warmup):
        stream, pcs = _synthetic_stream(picks)
        _assert_baseline_lockstep(_small_hawkeye, stream, pcs, warmup)

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(_baseline_access_st, min_size=1, max_size=300),
           warmup=st.integers(min_value=-5, max_value=320),
           columns=st.booleans())
    def test_lru_lockstep(self, picks, warmup, columns):
        stream, pcs = _synthetic_stream(picks)
        if columns:
            stream = LLCColumns.from_accesses(stream)
        _assert_baseline_lockstep(_small_lru, stream, pcs, warmup)

    def test_small_geometry_reaches_every_path(self):
        """The lockstep geometry really exercises full sets, sampler
        evictions, reuse-bit victims, detraining, OptGen window wrap and
        history prunes: counted on the reference, then matched."""
        rng = random.Random(2017)
        picks = [(0x400 + 4 * rng.randrange(16),
                  rng.randrange(SMALL_SETS * rng.choice((8, 64))),
                  rng.randrange(64), rng.random() < 0.3)
                 for _ in range(3_000)]
        # A six-block loop in sampled set 0: five reuse intervals overlap
        # each quantum, one more than the OptGen associativity.
        picks += [(0x480, SMALL_SETS * (k % 6), 0, False)
                  for k in range(60)]
        stream, pcs = _synthetic_stream(picks)
        seen = {"reuse_victims": 0, "dead_trains": 0, "detrains": 0,
                "opt_capacity_misses": 0}

        perceptron = _small_perceptron(theta=3)
        choose, train = perceptron.choose_victim, perceptron.predictor._train

        def counting_choose(set_idx, ctx):
            seen["reuse_victims"] += any(perceptron._reuse_bit[set_idx])
            return choose(set_idx, ctx)

        def counting_train(indices, dead):
            seen["dead_trains"] += dead
            train(indices, dead)

        perceptron.choose_victim = counting_choose
        perceptron.predictor._train = counting_train
        reference = LLCSimulator(perceptron).run(
            stream, pc_trace=pcs, warmup=500)
        assert reference.stats.evictions > 0
        assert reference.stats.bypasses > 0
        assert seen["reuse_victims"] > 0 and seen["dead_trains"] > 0

        hawkeye = _small_hawkeye()
        detrain = hawkeye.predictor.detrain

        def counting_detrain(pc):
            seen["detrains"] += 1
            detrain(pc)

        hawkeye.predictor.detrain = counting_detrain
        for optgen in hawkeye.predictor._optgens:
            def counting_access(previous_time, optgen=optgen,
                                access=optgen.access):
                opt_hit = access(previous_time)
                # A reuse inside the window that MIN still misses: some
                # quantum of it was already at full occupancy.
                seen["opt_capacity_misses"] += not opt_hit and (
                    0 <= previous_time > optgen.time - optgen.window)
                return opt_hit

            optgen.access = counting_access
        LLCSimulator(hawkeye).run(
            stream, pc_trace=pcs, warmup=500)
        assert seen["detrains"] > 0 and seen["opt_capacity_misses"] > 0
        window = hawkeye.predictor._optgens[0].window
        assert all(o.time > window for o in hawkeye.predictor._optgens)
        sampled_blocks = {a.block for a in stream
                          if a.block % SMALL_SETS == 0}
        assert len(sampled_blocks) > 4 * window + 1
        assert len(hawkeye.predictor._histories[0]) <= 4 * window + 1

        _assert_baseline_lockstep(lambda: _small_perceptron(theta=3),
                                  stream, pcs, 500)
        _assert_baseline_lockstep(_small_hawkeye, stream, pcs, 500)

    @pytest.mark.parametrize("make", [_small_lru, _small_perceptron,
                                      _small_hawkeye])
    def test_policy_reused_across_replays(self, make):
        """A policy replayed again on a fresh cache starts from the state
        the first replay left: both paths must read it back the same."""
        rng = random.Random(7)
        streams = [
            _synthetic_stream([(0x400 + 4 * rng.randrange(16),
                                rng.randrange(SMALL_SETS * 12),
                                rng.randrange(64), rng.random() < 0.3)
                               for _ in range(400)])
            for _ in range(2)
        ]
        kernel_policy, reference_policy = make(), make()
        for stream, pcs in streams:
            result, _ = _kernel_replay(kernel_policy, stream, pcs, 100)
            reference = LLCSimulator(reference_policy).run(
                stream, pc_trace=pcs, warmup=100)
            assert result.outcomes == reference.outcomes
            assert result.stats == reference.stats
            _assert_same_state(kernel_policy, reference_policy)

    @settings(max_examples=40, deadline=None)
    @given(replays=st.lists(
        st.tuples(st.lists(_baseline_access_st, max_size=40),
                  st.integers(min_value=-5, max_value=45), st.booleans()),
        min_size=2, max_size=3))
    def test_lru_stale_stack_tails(self, replays):
        """Short replays of one LRU policy leave sets partly filled, so
        each fresh cache keeps some of the previous replay's ways at
        the tail of the recency stacks."""
        kernel_policy, reference_policy = _small_lru(), _small_lru()
        for picks, warmup, columns in replays:
            stream, pcs = _synthetic_stream(picks)
            kernel_stream = (LLCColumns.from_accesses(stream) if columns
                             else stream)
            result, _ = _kernel_replay(kernel_policy, kernel_stream, pcs,
                                       warmup)
            reference = LLCSimulator(reference_policy).run(
                stream, pc_trace=pcs, warmup=warmup)
            assert result.outcomes == reference.outcomes
            assert result.stats == reference.stats
            assert result.warm_stats == reference.warm_stats
            _assert_same_state(kernel_policy, reference_policy)

    def test_lru_stale_tail_keeps_its_order(self):
        """Touched ways come first, MRU first; the ways the second
        replay did not touch follow in their old order."""
        policy = _small_lru()
        first, pcs = _synthetic_stream([(0x400, SMALL_SETS * k, 0, False)
                                        for k in range(SMALL_WAYS)])
        _kernel_replay(policy, first, pcs, 0)
        assert policy.stack(0) == (3, 2, 1, 0)
        second, pcs = _synthetic_stream([(0x400, SMALL_SETS * 9, 0, False),
                                         (0x400, SMALL_SETS * 10, 0, False),
                                         (0x400, SMALL_SETS * 9, 0, False)])
        _kernel_replay(policy, second, pcs, 0)
        assert policy.stack(0) == (0, 1, 3, 2)

    @pytest.mark.parametrize("policy_cls",
                             [LRUPolicy, PerceptronPolicy, HawkeyePolicy])
    def test_merged_four_thread_mix(self, mix_stream, policy_cls):
        """A timestamp-merged 4-core stream on the shared LLC, with its
        rebased PC histories and region laps."""
        stream, pcs, hierarchy = mix_stream
        _assert_baseline_lockstep(
            lambda: policy_cls(hierarchy.llc_sets, hierarchy.llc_ways),
            stream, pcs, len(stream) // 4)


def _small_hawkeye_window(factor):
    policy = _small_hawkeye()
    policy.predictor._optgens = [OptGen(SMALL_WAYS, window_factor=factor)
                                 for _ in policy.predictor._optgens]
    return policy


# Three policies of one kernel type sharing their lowering inputs but
# not their hyperparameters.
_SMALL_BATCHES = {
    "lru": [_small_lru] * 3,
    "perceptron": [lambda: _small_perceptron(30, 6, 0),
                   lambda: _small_perceptron(3, -4, 2),
                   lambda: _small_perceptron(0, 0, -2)],
    "hawkeye": [lambda factor=factor: _small_hawkeye_window(factor)
                for factor in (1, 2, 8)],
}


class TestBaselineBatches:
    @pytest.mark.parametrize("kind", sorted(_SMALL_BATCHES))
    def test_batch_equals_single_replays(self, kind):
        """K baseline policies in one batch finish as K one-policy
        replays do, and as K LLCSimulator replays."""
        stream, pcs = _window_stream(WINDOW_ACCESSES)
        makes = _SMALL_BATCHES[kind]
        sim = BatchLLCSimulator([make() for make in makes])
        results = sim.run(stream, pcs, 500)
        for make, policy, cache, result in zip(makes, sim.policies,
                                               sim.caches, results):
            alone, alone_cache = _kernel_replay(make(), stream, pcs, 500)
            reference_policy = make()
            reference = LLCSimulator(reference_policy).run(
                stream, pc_trace=pcs, warmup=500)
            for expected in (alone, reference):
                assert result.outcomes == expected.outcomes
                assert result.stats == expected.stats
                assert result.warm_stats == expected.warm_stats
            assert _cache_state(cache) == _cache_state(alone_cache)
            _assert_same_state(policy, reference_policy)
        if kind != "lru":
            assert len({tuple(r.outcomes) for r in results}) == len(makes)


@pytest.fixture(scope="module")
def mix_stream():
    from repro.traces.mixes import generate_mixes
    from repro.traces.workloads import build_suite

    hierarchy = TINY.multi_hierarchy
    suite = build_suite(hierarchy.llc_bytes, ACCESSES,
                        names=("gamess", "soplex", "mcf", "lbm", "milc"))
    segments = [s for name in sorted(suite) for s in suite[name]]
    mix = generate_mixes(segments, 1)[0]
    runner = MultiProgrammedRunner(hierarchy)
    threads = [runner.thread_data(segment) for segment in mix.segments]
    merged, _origins, merged_pcs, _offsets = runner._interleave(threads)
    return merged, merged_pcs, hierarchy


def _assert_accounting(result, cache, stream, never_bypasses):
    """Identities any correct replay satisfies, checked on the kernel's
    output alone: no reference simulator involved."""
    for stats in (result.stats, result.warm_stats):
        assert stats.hits + stats.misses == stats.accesses
        assert stats.demand_hits + stats.demand_misses \
            == stats.demand_accesses
        assert stats.demand_misses <= stats.misses
        assert stats.bypasses <= stats.misses
        assert stats.evictions <= stats.misses - stats.bypasses
        if never_bypasses:
            assert stats.bypasses == 0
    warm, measured = result.warm_stats, result.stats
    assert warm.accesses + measured.accesses == len(stream)
    assert warm.hits + measured.hits == sum(result.outcomes)
    assert measured.demand_accesses == sum(
        not a.is_prefetch for a in stream[warm.accesses:])
    # Fills counted from the cache itself: every fill into a fresh
    # cache is still resident or was evicted.
    resident = sum(len(where) for where in cache._where)
    fills = resident + warm.evictions + measured.evictions
    assert fills + warm.bypasses + measured.bypasses \
        == warm.misses + measured.misses
    assert all(len(where) <= cache.ways for where in cache._where)
    # A block's first access is always a miss.
    first_seen = set()
    for access, hit in zip(stream, result.outcomes):
        if access.block not in first_seen:
            first_seen.add(access.block)
            assert not hit


# Baselines whose replays never bypass a fill.
_NEVER_BYPASS = (LRUPolicy, HawkeyePolicy)


class TestBaselineAccounting:
    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(_baseline_access_st, min_size=1, max_size=300),
           warmup=st.integers(min_value=0, max_value=320),
           make=st.sampled_from([_small_lru, _small_perceptron,
                                 _small_hawkeye]))
    def test_random_streams(self, picks, warmup, make):
        stream, pcs = _synthetic_stream(picks)
        policy = make()
        result, cache = _kernel_replay(policy, stream, pcs, warmup)
        _assert_accounting(result, cache, stream,
                           never_bypasses=type(policy) in _NEVER_BYPASS)

    @pytest.mark.parametrize("policy_cls",
                             [LRUPolicy, PerceptronPolicy, HawkeyePolicy])
    def test_workload_stream(self, stage1, policy_cls):
        stream, pcs = stage1
        result, cache = _kernel_replay(policy_cls(NUM_SETS, WAYS), stream,
                                       pcs, 300)
        _assert_accounting(result, cache, stream,
                           never_bypasses=policy_cls in _NEVER_BYPASS)
        assert result.stats.evictions > 0

    def test_lru_mix_stream(self, mix_stream):
        stream, pcs, hierarchy = mix_stream
        policy = LRUPolicy(hierarchy.llc_sets, hierarchy.llc_ways)
        result, cache = _kernel_replay(policy, stream, pcs, len(stream) // 4)
        _assert_accounting(result, cache, stream, never_bypasses=True)
        assert result.stats.evictions > 0


# -- columnar streams (LLCColumns) -------------------------------------------


def _with_kernel_pcs(stream):
    """``stream`` with every third access's PC moved to kernel space."""
    return [
        LLCAccess(pc=KERNEL_PC + a.pc if i % 3 == 0 else a.pc,
                  block=a.block, offset=a.offset, is_write=a.is_write,
                  is_prefetch=a.is_prefetch, mem_index=a.mem_index,
                  instr_index=a.instr_index)
        for i, a in enumerate(stream)
    ]


def _assert_same_lowering(ours, theirs):
    assert ours.n == theirs.n
    for name in ("blocks", "set_idxs", "tags", "samp_idxs", "prefetch"):
        a, b = getattr(ours, name), getattr(theirs, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert len(ours.cols) == len(theirs.cols)
    for a, b in zip(ours.cols, theirs.cols):
        assert a.dtype == b.dtype and np.array_equal(a, b)


class TestLLCColumns:
    @pytest.fixture(scope="class")
    def streams(self, stage1):
        stream, pcs = stage1
        stream = _with_kernel_pcs(_edge_stream(stream, pcs))
        return stream, LLCColumns.from_accesses(stream), pcs

    def test_sequence_equals_materialized_list(self, streams, monkeypatch):
        stream, columns, _pcs = streams
        n = len(stream)
        assert len(columns) == n
        for index in (0, 1, n // 2, n - 1, -1, -n):
            assert columns[index] == stream[index]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                columns[bad]
        for cut in (slice(None), slice(3, 40), slice(-25, None),
                    slice(10, 200, 7), slice(None, None, -3),
                    slice(n, n + 5)):
            assert columns[cut] == stream[cut]
        # Iteration materializes chunk by chunk; a small chunk crosses
        # many chunk boundaries.
        monkeypatch.setattr(llc_mod, "WINDOW", 7)
        assert list(columns) == stream

    def test_fields_are_python_scalars(self, streams):
        _stream, columns, _pcs = streams
        for access in [columns[0], columns[-1], *columns[:5]]:
            assert all(type(getattr(access, name)) is int
                       for name in ("pc", "block", "offset", "mem_index",
                                    "instr_index"))
            assert type(access.is_write) is bool
            assert type(access.is_prefetch) is bool
        assert max(a.pc for a in columns) >= 2**63

    def test_lowerings_equal_list_lowerings(self, streams):
        stream, columns, pcs = streams
        configs = _configs(k=4)
        _assert_same_lowering(_lower(configs, columns, pcs),
                              _lower(configs, stream, pcs))
        predictor = PerceptronPredictor(NUM_SETS)
        sampler = predictor.sampler
        args = (NUM_SETS, sampler._stride, sampler.sampler_sets,
                predictor.table_bits)
        _assert_same_lowering(
            columns_mod.lower_perceptron(columns, pcs, *args),
            columns_mod.lower_perceptron(stream, pcs, *args))
        predictor = HawkeyePredictor(NUM_SETS, WAYS)
        sampler = predictor.sampler
        args = (NUM_SETS, sampler._stride, sampler.sampler_sets,
                predictor.table_bits)
        _assert_same_lowering(columns_mod.lower_hawkeye(columns, *args),
                              columns_mod.lower_hawkeye(stream, *args))


# -- kernel-space PCs (>= 2**63) end to end ------------------------------------

_KERNEL_POLICIES = ["mpppb-1a", "lru", "perceptron", "hawkeye"]


def _kernel_space(segment):
    """``segment`` with every PC moved into the kernel half."""
    trace = segment.trace
    moved = Trace(trace.name, [KERNEL_PC + pc for pc in trace.pcs],
                  trace.addresses, trace.writes, trace.gaps, trace.deps)
    return Segment(segment.name, moved, segment.weight)


def _on_both_legs(monkeypatch, run):
    """``run()`` on the kernel, then on the LLCSimulator reference."""
    monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
    kernel = run()
    monkeypatch.setenv("REPRO_STAGE2_KERNEL", "off")
    return kernel, run()


class TestKernelSpacePcs:
    @pytest.mark.parametrize("policy", _KERNEL_POLICIES)
    def test_single_segment(self, policy, monkeypatch):
        segment = _kernel_space(build_segments("soplex", LLC_BYTES,
                                               ACCESSES)[0])
        upper = UpperLevels(TINY.hierarchy).run(segment.trace)
        assert max(a.pc for a in upper.llc_stream) >= 2**63

        def run():
            [result] = replay_segment(
                [policy_factory(policy)(NUM_SETS, WAYS)], upper.llc_stream,
                segment.trace.pcs, 300)
            return result

        kernel, reference = _on_both_legs(monkeypatch, run)
        assert kernel.outcomes == reference.outcomes
        assert kernel.stats == reference.stats
        assert kernel.warm_stats == reference.warm_stats

    @pytest.mark.parametrize("policy", _KERNEL_POLICIES)
    def test_four_thread_mix(self, policy, monkeypatch):
        hierarchy = TINY.multi_hierarchy
        segments = tuple(
            _kernel_space(build_segments(name, hierarchy.llc_bytes,
                                         ACCESSES)[0])
            for name in ("gamess", "soplex", "mcf", "lbm"))
        runner = MultiProgrammedRunner(hierarchy)
        mix = Mix("kernel-space", segments)
        kernel, reference = _on_both_legs(
            monkeypatch, lambda: runner.run_mix(mix, policy_factory(policy)))
        assert kernel == reference


# -- LRU routing ---------------------------------------------------------------


class _LRUSubclass(LRUPolicy):
    """Overrides nothing: only the exact type rides the kernel."""


def _reference_policies(monkeypatch, run):
    """Types of the policies ``run()`` replays on ``LLCSimulator.run``."""
    seen = []
    real = LLCSimulator.run

    def spy(sim, *args, **kwargs):
        seen.append(type(sim.policy))
        return real(sim, *args, **kwargs)

    monkeypatch.setattr(LLCSimulator, "run", spy)
    run()
    monkeypatch.setattr(LLCSimulator, "run", real)
    return seen


class _NeverBypass(MPPPBPolicy):
    """Never bypasses: the kernel's inlined cascade would ignore this."""

    def should_bypass(self, set_idx, ctx):
        return False


class TestLRURouting:
    @pytest.mark.parametrize("policy_cls,kernel,reaches", [
        (LRUPolicy, "on", []),
        (LRUPolicy, "off", [LRUPolicy]),
        (_LRUSubclass, "on", [_LRUSubclass]),
    ])
    def test_cell(self, stage1, policy_cls, kernel, reaches, monkeypatch):
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", kernel)
        stream, pcs = stage1
        assert _reference_policies(monkeypatch, lambda: replay_segment(
            [policy_cls(NUM_SETS, WAYS)], stream, pcs, 300)) == reaches

    @pytest.mark.parametrize("kernel,reaches", [
        ("on", []), ("off", [LRUPolicy, LRUPolicy])])
    def test_thread_baseline(self, kernel, reaches, monkeypatch):
        """A mix thread's standalone-LRU baseline takes a cell's route."""
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", kernel)
        hierarchy = TINY.multi_hierarchy
        segments = [build_segments(name, hierarchy.llc_bytes, ACCESSES)[0]
                    for name in ("soplex", "mcf")]
        runner = MultiProgrammedRunner(hierarchy)
        assert _reference_policies(
            monkeypatch,
            lambda: [runner.thread_data(segment) for segment in segments]) \
            == reaches


class TestSubclassRouting:
    def test_mpppb_subclass_keeps_its_override(self, monkeypatch):
        """An MPPPBPolicy subclass replays on LLCSimulator, so its
        never-bypass override holds, as on a reference replay.  On the
        first tiny soplex segment with Table 1(a) the kernel, which
        inlines MPPPBPolicy's own cascade, would bypass 9 fills."""
        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
        segment = build_segments("soplex", LLC_BYTES,
                                 TINY.segment_accesses)[0]
        stream = UpperLevels(TINY.hierarchy).run(segment.trace).llc_stream
        pcs = segment.trace.pcs
        config = single_thread_config("a")
        policy = _NeverBypass(NUM_SETS, WAYS, config)
        results = []
        routed = _reference_policies(monkeypatch, lambda: results.extend(
            replay_segment([policy], stream, pcs, 300)))
        reference_policy = _NeverBypass(NUM_SETS, WAYS, config)
        reference = LLCSimulator(reference_policy).run(
            stream, pc_trace=pcs, warmup=300)
        [result] = results
        assert result.stats.bypasses == reference.stats.bypasses == 0
        _assert_identical(result, policy, reference, reference_policy)
        assert routed == [_NeverBypass]

    def test_mixed_list_replays_on_reference(self, stage1, monkeypatch):
        """Policies of two kernel types in one call replay one by one on
        LLCSimulator, each equal to its own one-policy kernel replay."""
        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
        stream, pcs = stage1
        config = _configs(k=1)[0]
        mixed = [LRUPolicy(NUM_SETS, WAYS), MPPPBPolicy(NUM_SETS, WAYS,
                                                        config)]
        results = []
        assert _reference_policies(monkeypatch, lambda: results.extend(
            replay_segment(mixed, stream, pcs, 300))) \
            == [LRUPolicy, MPPPBPolicy]
        alone = [LRUPolicy(NUM_SETS, WAYS), MPPPBPolicy(NUM_SETS, WAYS,
                                                        config)]
        for result, policy in zip(results, alone):
            [expected] = replay_segment([policy], stream, pcs, 300)
            assert result.outcomes == expected.outcomes
            assert result.stats == expected.stats


# -- windowed replays ----------------------------------------------------------

# Every kernel route replays llc_mod.WINDOW accesses at a time; these
# streams fit in one window at the default, which is the reference.
WINDOW_ACCESSES = 2_000


def _window_stream(n):
    rng = random.Random(31)
    picks = [(0x400 + 4 * rng.randrange(16),
              rng.randrange(SMALL_SETS * rng.choice((6, 12, 64))),
              rng.randrange(64), rng.random() < 0.3)
             for _ in range(n)]
    return _synthetic_stream(picks)


def _window_configs():
    """Three 4-set x 4-way candidates: MDPP and SRRIP defaults, one with
    thresholds low enough to bypass and suppress promotions."""
    return [
        MPPPBConfig(features=parse_feature_set(TABLE_1A_SPECS),
                    default_policy="mdpp", placements=(3, 2, 1),
                    sampler_sets=2),
        MPPPBConfig(features=parse_feature_set(TABLE_1B_SPECS),
                    default_policy="srrip", placements=(3, 2, 1),
                    sampler_sets=2),
        MPPPBConfig(features=random_feature_set(random.Random(5)),
                    default_policy="mdpp", placements=(3, 2, 1),
                    sampler_sets=2, tau_bypass=20, taus=(10, 0, -10),
                    tau_no_promote=0),
    ]


def _cache_state(cache):
    return cache.tags, cache.valid, cache._where


def _mpppb_state(policy, cache):
    default = policy.default
    recency = ([tree.bits for tree in default.trees]
               if policy.config.default_policy == "mdpp" else default.rrpvs)
    return {
        "cache": _cache_state(cache),
        "recency": recency,
        "sampler": _sampler_state(policy),
        "weights": policy.predictor._weights,
        "counters": (policy.bypasses, policy.promotions_suppressed,
                     policy.sampler.trainings_live,
                     policy.sampler.trainings_dead),
    }


_SMALL_BASELINES = {"lru": _small_lru, "perceptron": _small_perceptron,
                    "hawkeye": _small_hawkeye}


def _route_replay(route, stream, pcs, warmup):
    """One replay on ``route``: its results and every policy's end state
    (cache contents included)."""
    if route == "mpppb":
        sim = BatchLLCSimulator([MPPPBPolicy(SMALL_SETS, SMALL_WAYS, config)
                                 for config in _window_configs()])
        results = sim.run(stream, pcs, warmup)
        return results, [_mpppb_state(policy, cache)
                         for policy, cache in zip(sim.policies, sim.caches)]
    policy = _SMALL_BASELINES[route]()
    result, cache = _kernel_replay(policy, stream, pcs, warmup)
    return [result], [{"cache": _cache_state(cache),
                       **_policy_state(policy)}]


def _assert_same_replay(ours, theirs):
    (results, states), (ref_results, ref_states) = ours, theirs
    assert len(results) == len(ref_results)
    for result, reference in zip(results, ref_results):
        assert result.outcomes == reference.outcomes
        assert result.stats == reference.stats
        assert result.warm_stats == reference.warm_stats
    for state, reference in zip(states, ref_states):
        for name, value in reference.items():
            same = state[name] == value  # a bool: keeps failure output short
            assert same, f"{name} differs from the one-window replay's"


_ROUTES = ["lru", "perceptron", "hawkeye", "mpppb"]


class TestWindows:
    @pytest.mark.parametrize("window", [1, 97, 1024])
    @pytest.mark.parametrize("route", _ROUTES)
    def test_windows_equal_one_window(self, route, window, monkeypatch):
        """Warmup 0, on a window edge, inside a window and the whole
        stream: every window size leaves what one window leaves."""
        # Window 1 lowers per access: a shorter stream keeps it quick.
        stream, pcs = _window_stream(min(WINDOW_ACCESSES, 400 * window))
        n = len(stream)
        assert n < llc_mod.WINDOW
        edge = window * max(1, n // (2 * window))
        for warmup in sorted({0, edge, edge + window // 2, n}):
            one_window = _route_replay(route, stream, pcs, warmup)
            with monkeypatch.context() as patch:
                patch.setattr(llc_mod, "WINDOW", window)
                _assert_same_replay(_route_replay(route, stream, pcs, warmup),
                                    one_window)

    def test_streams_reach_every_counter(self):
        """The window streams evict, bypass, suppress promotions and
        train both ways, so the counters compared above move."""
        stream, pcs = _window_stream(WINDOW_ACCESSES)
        results, states = _route_replay("mpppb", stream, pcs, 0)
        assert all(result.stats.evictions > 0 for result in results)
        bypasses, suppressed, live, dead = states[2]["counters"]
        assert bypasses > 0 and suppressed > 0 and live > 0 and dead > 0
        [perceptron], _ = _route_replay("perceptron", stream, pcs, 0)
        assert perceptron.stats.bypasses > 0

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("route", _ROUTES)
    def test_empty_and_one_access_streams(self, route, n, monkeypatch):
        """Both replay on the reference's terms at window 1."""
        monkeypatch.setattr(llc_mod, "WINDOW", 1)
        stream, pcs = _window_stream(n)
        for warmup in (0, n):
            if route != "mpppb":
                result = _assert_baseline_lockstep(_SMALL_BASELINES[route],
                                                   stream, pcs, warmup)
                assert len(result.outcomes) == n
                continue
            config = _window_configs()[0]
            sim = BatchLLCSimulator([MPPPBPolicy(SMALL_SETS, SMALL_WAYS,
                                                 config)])
            [result] = sim.run(stream, pcs, warmup)
            reference_policy = MPPPBPolicy(SMALL_SETS, SMALL_WAYS, config)
            reference = LLCSimulator(reference_policy).run(
                stream, pc_trace=pcs, warmup=warmup)
            _assert_identical(result, sim.policies[0], reference,
                              reference_policy)

    @pytest.mark.parametrize("route", _ROUTES)
    def test_telemetry_equals_one_window(self, route, monkeypatch):
        """The confidence histogram and the llc/* counters of a windowed
        replay are the one-window replay's; llc/replays counts replays,
        not windows."""
        stream, pcs = _window_stream(WINDOW_ACCESSES)

        def recorded(window):
            obs.enable()
            try:
                with monkeypatch.context() as patch:
                    patch.setattr(llc_mod, "WINDOW", window)
                    with obs.capture() as ctx:
                        _route_replay(route, stream, pcs, 700)
                    return ctx.payload()
            finally:
                obs.disable()

        windowed, one_window = recorded(97), recorded(llc_mod.WINDOW)
        replays = len(_window_configs()) if route == "mpppb" else 1
        assert one_window["counters"]["llc/replays"] == replays
        assert windowed["counters"] == one_window["counters"]
        assert windowed["hists"] == one_window["hists"]
        if route == "mpppb":
            assert one_window["hists"]["mpppb/confidence"]["count"] \
                == replays * WINDOW_ACCESSES


# The memory test's LLC: small, so that a short stream fills every
# set, sampler set and per-block history before the stream grows.
MEMORY_SETS = 16
MEMORY_BLOCKS = MEMORY_SETS * 3 * WAYS


def _columns_stream(n):
    """``n`` accesses as :class:`LLCColumns` over a fixed 512-PC
    history, like a mix whose threads lap: only the stream grows.  The
    first accesses touch every block of a working set three times the
    LLC, so the cache, the samplers and Hawkeye's OptGen histories are
    full before the stream grows."""
    history = 512
    rng = np.random.default_rng(11)
    pcs = (0x400 + 4 * rng.integers(0, 64, history)).tolist()
    index = np.arange(n, dtype=np.int64)
    blocks = rng.integers(0, MEMORY_BLOCKS, n, dtype=np.int64)
    blocks[:MEMORY_BLOCKS] = np.arange(MEMORY_BLOCKS)
    stream = LLCColumns(
        (0x400 + 4 * rng.integers(0, 64, n)).astype(np.uint64),
        blocks,
        rng.integers(0, 64, n, dtype=np.int64),
        np.zeros(n, dtype=np.bool_),
        rng.random(n) < 0.3,
        index % history,
        index)
    return stream, pcs


def _traced_peak(route, length, telemetry=False):
    """Traced peak of one replay of a ``length``-access stream; with
    ``telemetry``, the policy records its histograms."""
    stream, pcs = _columns_stream(length)
    if telemetry:
        obs.enable()
    try:
        policy = policy_factory(route)(MEMORY_SETS, WAYS)
        tracemalloc.start()
        replay_segment([policy], stream, pcs, length // 4)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        obs.disable()


class TestWindowMemory:
    @pytest.mark.parametrize("route,kernel,telemetry", [
        pytest.param("lru", "on", False, id="lru"),
        pytest.param("perceptron", "on", False, id="perceptron"),
        pytest.param("hawkeye", "on", False, id="hawkeye"),
        pytest.param("mpppb-1a", "on", False, id="mpppb-1a"),
        pytest.param("mpppb-1a", "on", True, id="mpppb-1a-telemetry"),
        # Off the kernel's table: LLCSimulator on either leg.
        pytest.param("srrip", "on", False, id="srrip"),
        pytest.param("lru", "off", False, id="lru-reference"),
        pytest.param("hawkeye", "off", False, id="hawkeye-reference"),
    ])
    def test_peak_grows_by_the_outcomes_alone(self, route, kernel,
                                              telemetry, monkeypatch):
        """Quadrupling the stream adds at most 16 B per added access to
        a replay's traced peak; its outcome list alone costs 8."""
        monkeypatch.setattr(llc_mod, "WINDOW", 1024)
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", kernel)
        # tracemalloc slows the allocating kernels tenfold: stay short.
        n = 4_096
        # Compiles and memoizes what a replay may.
        _traced_peak(route, n, telemetry)
        short = _traced_peak(route, n, telemetry)
        long = _traced_peak(route, 4 * n, telemetry)
        per_access = (long - short) / (3 * n)
        assert per_access <= 16, f"{per_access:.1f} B per added access"
