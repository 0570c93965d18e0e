"""Columnar Stage-2 kernel: lowering, replay, and the reference switch.

Each contract is pinned independently:

* **Lowering** — :func:`repro.sim.kernel.columns.lower_stream` must
  reproduce the stream decode (blocks, set indices, partial tags,
  sampler sets, prefetch flags), and every deduplicated static feature
  slot, run through the kernel's own index expressions together with
  the access's dynamic bits, must equal the index
  :func:`repro.core.features.compile_fused` computes from the
  :class:`~repro.cache.access.AccessContext`.
* **Replay** — the exec-specialized numpy loop must finish
  bit-identical to :class:`~repro.sim.llc.LLCSimulator`: outcomes,
  stats, policy counters, sampler entries, and perceptron weights.  A
  hypothesis lockstep drive over adversarial random streams backs the
  fixed workloads.  Its instrumented variant differs from the plain
  source only by the confidence recording.
* **Switch** — ``REPRO_STAGE2_KERNEL=off`` selects the reference
  replay; anything else (including unset) the kernel.
* **Baselines** — the Perceptron and Hawkeye columns equal the
  predictors' own index functions access by access; their replays
  match ``LLCSimulator`` down to every piece of policy state on
  random streams, a geometry that reaches every replacement and
  training path, and a merged 4-thread mix; and their output
  satisfies the accounting identities with no reference involved.
* **Columnar streams** — an :class:`~repro.sim.llc.LLCColumns` stream
  behaves as its materialized list and lowers to the same columns, and
  kernel-space PCs (>= 2**63) replay on the kernel exactly as on the
  reference, for a single segment and a 4-thread mix.
"""

import random
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from repro.cache.access import AccessContext
from repro.config import TINY
from repro.core.features import (
    compile_fused,
    parse_feature_set,
    random_feature_set,
)
from repro.core.mpppb import MPPPBConfig, MPPPBPolicy
from repro.core.presets import TABLE_1A_SPECS, TABLE_1B_SPECS
from repro.policies import policy_factory
from repro.predictors.base import partial_tag
from repro.predictors.hawkeye import HawkeyePolicy, HawkeyePredictor, OptGen
from repro.predictors.perceptron import PerceptronPolicy, PerceptronPredictor
from repro.sim import kernel as kernel_mod
from repro.sim import llc as llc_mod
from repro.sim.batch import BatchLLCSimulator
from repro.sim.hierarchy import UpperLevels
from repro.sim.kernel import baselines as baselines_mod
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
NUM_SETS = LLC_BYTES // (WAYS * 64)
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
    return BatchLLCSimulator(LLC_BYTES, WAYS, policies)


def _lower(sim, stream, pcs):
    first = sim.policies[0].sampler
    return columns_mod.lower_stream(
        stream, pcs, sim.num_sets, first.mapper._stride,
        first.mapper.sampler_sets, first.tag_bits, sim._slots,
        sim._needs_h,
    )


def _sequential(stream, pcs, config, warmup):
    policy = MPPPBPolicy(NUM_SETS, WAYS, config)
    sim = LLCSimulator(LLC_BYTES, WAYS, policy)
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


def _assert_columns_match_compile_fused(configs, stream, pcs, seed=3):
    """Stream columns equal the scalar decode, and each candidate's
    kernel index expressions over the slot columns equal
    ``compile_fused`` on the access context, under random dynamic
    bits (hit or miss, MRU hit, set's last access a miss)."""
    sim = _batch(configs)
    cols = _lower(sim, stream, pcs)
    sampler = sim.policies[0].sampler
    assert cols.n == len(stream)
    assert cols.blocks.tolist() == [a.block for a in stream]
    set_idxs = [a.block & (NUM_SETS - 1) for a in stream]
    assert cols.set_idxs.tolist() == set_idxs
    assert cols.tags.tolist() == [partial_tag(a.block, sampler.tag_bits)
                                  for a in stream]
    assert cols.samp_idxs.tolist() == [sampler.mapper.sampler_index(s)
                                       for s in set_idxs]
    assert cols.prefetch.tolist() == [int(a.is_prefetch) for a in stream]

    rng = random.Random(seed)
    env = {f"c{j}": col.tolist() for j, col in enumerate(cols.cols)}
    for config, entries in zip(configs, sim._entry_sets):
        fused = compile_fused(config.features)
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
            if sim._needs_h:
                env["hv"] = env["c0"][i]
            assert [eval(e, env) for e in exprs[hit]] == fused(ctx)


def test_columns_match_compile_fused(stage1):
    """Vectorized lowering + kernel index expressions == compile_fused."""
    stream, pcs = stage1
    _assert_columns_match_compile_fused(_configs(k=6), stream, pcs)


def test_columns_empty_history_and_stream():
    sim = _batch(_configs(k=2))
    cols = _lower(sim, [], [])
    assert cols.n == 0
    assert cols.as_lists()[0] == []
    access = LLCAccess(pc=0x4000, block=17, offset=8, is_write=False,
                       is_prefetch=False, mem_index=0, instr_index=0)
    _assert_columns_match_compile_fused(_configs(k=2), [access], [])


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
        cols = _lower(sim, stream, pcs)
        results = numpy_backend.replay_all(sim, cols, warmup)
        for config, policy, result in zip(configs, sim.policies, results):
            seq_result, seq_policy = _sequential(stream, pcs, config,
                                                 warmup)
            _assert_identical(result, policy, seq_result, seq_policy)

    @pytest.mark.parametrize("default_policy", ["mdpp", "srrip"])
    def test_instrumented_source_only_adds_recording(self, default_policy):
        """The instrumented variant is the plain source plus the two
        confidence-recording lines and one extra parameter."""
        sim = _batch(_configs(k=3, default_policy=default_policy))
        for k in range(len(sim.policies)):
            key = numpy_backend._candidate_key(sim, k)
            assert key[-1] is False  # telemetry off at construction
            plain = numpy_backend._build_source(key)
            instrumented = numpy_backend._build_source(key[:-1] + (True,))
            assert "        observe(conf)\n" in instrumented
            assert instrumented.replace(", CONFS):", "):").replace(
                "    observe = CONFS.append\n", "").replace(
                "        observe(conf)\n", "") == plain


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
        """BatchLLCSimulator.run really routes through the kernel."""
        stream, pcs = stage1
        monkeypatch.delenv("REPRO_STAGE2_KERNEL", raising=False)
        calls = []
        original = numpy_backend.replay_all

        def spy(sim, cols, warmup):
            calls.append(warmup)
            return original(sim, cols, warmup)

        monkeypatch.setattr(numpy_backend, "replay_all", spy)
        sim = _batch(_configs(k=2))
        sim.run(stream, pc_trace=pcs, warmup=250)
        assert calls == [250]

    def test_batch_run_off_uses_reference(self, stage1, monkeypatch):
        """With the switch off, every candidate replays on LLCSimulator
        and lands in the batch's own caches."""
        stream, pcs = stage1
        monkeypatch.setenv("REPRO_STAGE2_KERNEL", "off")

        def refuse(*args):
            raise AssertionError("kernel used with REPRO_STAGE2_KERNEL=off")

        monkeypatch.setattr(numpy_backend, "replay_all", refuse)
        configs = _configs(k=2)
        sim = _batch(configs)
        results = sim.run(stream, pc_trace=pcs, warmup=250)
        for config, policy, result in zip(configs, sim.policies, results):
            seq_result, seq_policy = _sequential(stream, pcs, config, 250)
            _assert_identical(result, policy, seq_result, seq_policy)
        assert all(any(cache._where) for cache in sim.caches)


# -- baseline predictors (Perceptron, Hawkeye) ------------------------------

# A 4-set x 4-way LLC with half its sets sampled: random streams over a
# few dozen blocks fill sets, evict sampler entries, pick reuse-bit
# victims, and wrap a 2x-associativity OptGen window.
SMALL_SETS = 4
SMALL_WAYS = 4
SMALL_BYTES = SMALL_SETS * SMALL_WAYS * 64


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


def _policy_state(policy):
    """Every piece of mutable policy state the replay touches, by name."""
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


def _kernel_replay(policy, llc_bytes, ways, stream, pcs, warmup):
    """Replay through the kernel; also returns the cache it filled."""
    caches = []
    real = baselines_mod.policy_cache

    def capture(*args):
        caches.append(real(*args))
        return caches[-1]

    with mock.patch.object(baselines_mod, "policy_cache", capture):
        result = baselines_mod.replay_baseline(llc_bytes, ways, policy, 64,
                                               stream, pcs, warmup)
    return result, caches[0]


def _assert_baseline_lockstep(make, llc_bytes, ways, stream, pcs, warmup):
    kernel_policy, reference_policy = make(), make()
    result, _ = _kernel_replay(kernel_policy, llc_bytes, ways, stream, pcs,
                               warmup)
    reference = LLCSimulator(llc_bytes, ways, reference_policy).run(
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
            SMALL_BYTES, SMALL_WAYS, stream, pcs, warmup)

    @settings(max_examples=60, deadline=None)
    @given(picks=st.lists(_baseline_access_st, min_size=1, max_size=300),
           warmup=st.integers(min_value=0, max_value=320))
    def test_hawkeye_lockstep(self, picks, warmup):
        stream, pcs = _synthetic_stream(picks)
        _assert_baseline_lockstep(_small_hawkeye, SMALL_BYTES, SMALL_WAYS,
                                  stream, pcs, warmup)

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
        reference = LLCSimulator(SMALL_BYTES, SMALL_WAYS, perceptron).run(
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
        LLCSimulator(SMALL_BYTES, SMALL_WAYS, hawkeye).run(
            stream, pc_trace=pcs, warmup=500)
        assert seen["detrains"] > 0 and seen["opt_capacity_misses"] > 0
        window = hawkeye.predictor._optgens[0].window
        assert all(o.time > window for o in hawkeye.predictor._optgens)
        sampled_blocks = {a.block for a in stream
                          if a.block % SMALL_SETS == 0}
        assert len(sampled_blocks) > 4 * window + 1
        assert len(hawkeye.predictor._histories[0]) <= 4 * window + 1

        _assert_baseline_lockstep(lambda: _small_perceptron(theta=3),
                                  SMALL_BYTES, SMALL_WAYS, stream, pcs, 500)
        _assert_baseline_lockstep(_small_hawkeye, SMALL_BYTES, SMALL_WAYS,
                                  stream, pcs, 500)

    @pytest.mark.parametrize("make", [_small_perceptron, _small_hawkeye])
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
            result, _ = _kernel_replay(kernel_policy, SMALL_BYTES,
                                       SMALL_WAYS, stream, pcs, 100)
            reference = LLCSimulator(SMALL_BYTES, SMALL_WAYS,
                                     reference_policy).run(
                stream, pc_trace=pcs, warmup=100)
            assert result.outcomes == reference.outcomes
            assert result.stats == reference.stats
            _assert_same_state(kernel_policy, reference_policy)

    @pytest.mark.parametrize("policy_cls", [PerceptronPolicy, HawkeyePolicy])
    def test_merged_four_thread_mix(self, mix_stream, policy_cls):
        """A timestamp-merged 4-core stream on the shared LLC, with its
        rebased PC histories and region laps."""
        stream, pcs, llc_bytes, ways = mix_stream
        num_sets = llc_bytes // (ways * 64)
        _assert_baseline_lockstep(lambda: policy_cls(num_sets, ways),
                                  llc_bytes, ways, stream, pcs,
                                  len(stream) // 4)


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
    return merged, merged_pcs, hierarchy.llc_bytes, hierarchy.llc_ways


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


class TestBaselineAccounting:
    @settings(max_examples=40, deadline=None)
    @given(picks=st.lists(_baseline_access_st, min_size=1, max_size=300),
           warmup=st.integers(min_value=0, max_value=320),
           hawkeye=st.booleans())
    def test_random_streams(self, picks, warmup, hawkeye):
        stream, pcs = _synthetic_stream(picks)
        policy = _small_hawkeye() if hawkeye else _small_perceptron()
        result, cache = _kernel_replay(policy, SMALL_BYTES, SMALL_WAYS,
                                       stream, pcs, warmup)
        _assert_accounting(result, cache, stream, never_bypasses=hawkeye)

    @pytest.mark.parametrize("policy_cls", [PerceptronPolicy, HawkeyePolicy])
    def test_workload_stream(self, stage1, policy_cls):
        stream, pcs = stage1
        result, cache = _kernel_replay(policy_cls(NUM_SETS, WAYS), LLC_BYTES,
                                       WAYS, stream, pcs, 300)
        _assert_accounting(result, cache, stream,
                           never_bypasses=policy_cls is HawkeyePolicy)
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
        monkeypatch.setattr(llc_mod, "_ITER_CHUNK", 7)
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
        sim = _batch(_configs(k=4))
        _assert_same_lowering(_lower(sim, columns, pcs),
                              _lower(sim, stream, pcs))
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

_KERNEL_POLICIES = ["mpppb-1a", "perceptron", "hawkeye"]


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
            return replay_segment(LLC_BYTES, WAYS,
                                  policy_factory(policy)(NUM_SETS, WAYS), 64,
                                  upper.llc_stream, segment.trace.pcs, 300)

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
