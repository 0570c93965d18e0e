"""The seven parameterized feature families of multiperspective reuse
prediction (Section 3.2).

Every feature carries two universal parameters:

* **A** — the recency-stack position beyond which a block counts as
  *dead* for this feature's table.  Each feature thereby simulates a
  cache of a different associativity (Section 3.3), which is the
  paper's key generalization over earlier samplers.
* **X** — when true, the feature bits are exclusive-ORed with a hash
  of the current memory instruction's PC before indexing, letting the
  feature exploit correlations between its value and the accessing PC.

The families and their extra parameters:

=========  =======================  ==========================================
family     parameters               value
=========  =======================  ==========================================
pc         A, B, E, W, X            bits B..E of the W-th most recent
                                    memory-access PC (W = 0 is current)
address    A, B, E, X               bits B..E of the physical address
bias       A, X                     the constant 0 — a global dead/live
                                    counter, or a pure PC table when X is set
burst      A, X                     1 iff the access hits the MRU block
insert     A, X                     1 iff the access is an insertion (miss)
lastmiss   A, X                     1 iff the previous access to this set
                                    missed
offset     A, B, E, X               bits B..E of the block offset (≤ 6 bits)
=========  =======================  ==========================================

Published feature tables contain OCR-era quirks (reversed bit ranges,
an ``address`` entry with a stray fifth parameter); :func:`parse_feature`
accepts them leniently, as documented in DESIGN.md.

Multi-bit values are XOR-folded to at most ``INDEX_BITS`` (8) bits, the
paper's maximum table size of 256 entries (Section 3.4).

For the simulator's hot loop each feature *compiles* to a closure with
its parameters bound to locals; the closures take the
:class:`~repro.cache.access.AccessContext` of an LLC access and return
a table index.
"""

from __future__ import annotations

import random
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

from repro.cache.access import AccessContext
from repro.util.hashing import hash_to

INDEX_BITS = 8
MAX_TABLE_SIZE = 1 << INDEX_BITS
MAX_ASSOCIATIVITY = 18  # sampler ways (Section 3.3)
BLOCK_OFFSET_BITS = 6   # 64-byte blocks

IndexFn = Callable[[AccessContext], int]

# Real workloads touch few distinct memory-access PCs, so the hash of
# the current PC — needed by every X-flagged feature on every access —
# is memoized globally rather than recomputed 16 times per access.
_PC_HASH_CACHE: dict = {}


def _hashed_pc(pc: int) -> int:
    cached = _PC_HASH_CACHE.get(pc)
    if cached is None:
        cached = hash_to(pc >> 2, INDEX_BITS)
        if len(_PC_HASH_CACHE) > 1 << 16:
            _PC_HASH_CACHE.clear()
        _PC_HASH_CACHE[pc] = cached
    return cached


def _normalize_range(begin: int, end: int, limit: int) -> Tuple[int, int]:
    """Order and clamp a published bit range."""
    lo, hi = (begin, end) if begin <= end else (end, begin)
    lo = max(0, min(limit, lo))
    hi = max(0, min(limit, hi))
    return lo, hi


def _slice_and_fold(lo: int, hi: int, bits: int) -> Callable[[int], int]:
    """Compile a memoized bits[lo..hi]-then-fold-to-``bits`` extractor."""
    width = hi - lo + 1
    slice_mask = (1 << width) - 1
    fold_mask = (1 << bits) - 1
    if width <= bits:
        return lambda value: (value >> lo) & slice_mask
    cache: dict = {}

    def extract(value: int) -> int:
        sliced = (value >> lo) & slice_mask
        cached = cache.get(sliced)
        if cached is not None:
            return cached
        key = sliced
        folded = 0
        while sliced:
            folded ^= sliced & fold_mask
            sliced >>= bits
        if len(cache) > 1 << 16:
            cache.clear()
        cache[key] = folded
        return folded

    return extract


@dataclass(frozen=True)
class Feature(ABC):
    """A parameterized feature; immutable and hashable."""

    associativity: int
    xor_pc: bool

    def __post_init__(self) -> None:
        if not 1 <= self.associativity <= MAX_ASSOCIATIVITY:
            raise ValueError(
                f"associativity {self.associativity} outside 1..{MAX_ASSOCIATIVITY}"
            )

    @property
    @abstractmethod
    def family(self) -> str:
        """The feature family name (``pc``, ``address``, ...)."""

    @property
    @abstractmethod
    def value_bits(self) -> int:
        """Width of the raw feature value before any PC XOR."""

    @property
    def table_size(self) -> int:
        """Number of weights in this feature's prediction table.

        XORing with the PC spreads any feature over the full 8-bit
        index space; otherwise the table only needs 2^value_bits
        entries (1 for the plain bias feature) — the paper's
        variable-sized tables (Section 3.4).
        """
        if self.xor_pc:
            return MAX_TABLE_SIZE
        return 1 << self.value_bits

    @abstractmethod
    def _extra_params(self) -> Tuple[int, ...]:
        """Family-specific parameters, in published order."""

    @abstractmethod
    def compile(self) -> IndexFn:
        """Build the specialized index closure for the hot loop."""

    def index(self, ctx: AccessContext) -> int:
        """Convenience single-shot index (tests, documentation)."""
        return self.compile()(ctx)

    def spec(self) -> str:
        """Render in the paper's notation, e.g. ``pc(10,1,53,10,0)``."""
        params = (self.associativity, *self._extra_params(), int(self.xor_pc))
        return f"{self.family}({','.join(str(p) for p in params)})"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.spec()

    def _xor_wrap(self, raw_fn: Callable[[AccessContext], int]) -> IndexFn:
        """Apply the X parameter and size masking around a raw value fn."""
        if not self.xor_pc:
            mask = self.table_size - 1
            if mask == 0:
                return lambda ctx: 0
            return lambda ctx: raw_fn(ctx) & mask
        hashed_pc = _hashed_pc
        mask = MAX_TABLE_SIZE - 1

        def indexed(ctx: AccessContext) -> int:
            return (raw_fn(ctx) ^ hashed_pc(ctx.pc)) & mask

        return indexed


@dataclass(frozen=True)
class PCFeature(Feature):
    """pc(A, B, E, W, X): PC-history bits (Section 3.2, feature 1)."""

    begin: int
    end: int
    depth: int  # W: which most-recent memory-access PC

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0 <= self.depth < MAX_ASSOCIATIVITY:
            raise ValueError(f"pc history depth {self.depth} outside 0..17")

    @property
    def family(self) -> str:
        return "pc"

    @property
    def value_bits(self) -> int:
        lo, hi = _normalize_range(self.begin, self.end, 63)
        return min(INDEX_BITS, hi - lo + 1)

    def _extra_params(self) -> Tuple[int, ...]:
        return (self.begin, self.end, self.depth)

    def compile(self) -> IndexFn:
        lo, hi = _normalize_range(self.begin, self.end, 63)
        extract = _slice_and_fold(lo, hi, self.value_bits)
        depth = self.depth

        if depth == 0:
            return self._xor_wrap(lambda ctx: extract(ctx.pc))

        def raw(ctx: AccessContext) -> int:
            # Prefetches are not instructions: depth counts real memory
            # instructions, whose trace position is history_index (the
            # triggering instruction).
            index = ctx.history_index - depth + (1 if ctx.is_prefetch else 0)
            history = ctx.pc_history
            return extract(history[index] if 0 <= index < len(history) else 0)

        return self._xor_wrap(raw)


@dataclass(frozen=True)
class AddressFeature(Feature):
    """address(A, B, E, X): physical-address bits (feature 2)."""

    begin: int
    end: int

    @property
    def family(self) -> str:
        return "address"

    @property
    def value_bits(self) -> int:
        lo, hi = _normalize_range(self.begin, self.end, 63)
        return min(INDEX_BITS, hi - lo + 1)

    def _extra_params(self) -> Tuple[int, ...]:
        return (self.begin, self.end)

    def compile(self) -> IndexFn:
        lo, hi = _normalize_range(self.begin, self.end, 63)
        extract = _slice_and_fold(lo, hi, self.value_bits)
        return self._xor_wrap(lambda ctx: extract(ctx.address))


@dataclass(frozen=True)
class BiasFeature(Feature):
    """bias(A, X): the constant 0 (feature 3).

    Without X this is a single global up/down counter tracking the
    short-term tendency of blocks to be dead; with X it degenerates to
    a pure PC-indexed table, i.e. an SDBP/SHiP-style predictor.
    """

    @property
    def family(self) -> str:
        return "bias"

    @property
    def value_bits(self) -> int:
        return 0

    def _extra_params(self) -> Tuple[int, ...]:
        return ()

    def compile(self) -> IndexFn:
        return self._xor_wrap(lambda ctx: 0)


@dataclass(frozen=True)
class BurstFeature(Feature):
    """burst(A, X): 1 iff the access hits the MRU block (feature 4)."""

    @property
    def family(self) -> str:
        return "burst"

    @property
    def value_bits(self) -> int:
        return 1

    def _extra_params(self) -> Tuple[int, ...]:
        return ()

    def compile(self) -> IndexFn:
        return self._xor_wrap(lambda ctx: 1 if ctx.is_mru_hit else 0)


@dataclass(frozen=True)
class InsertFeature(Feature):
    """insert(A, X): 1 iff the access inserts a missing block (feature 5)."""

    @property
    def family(self) -> str:
        return "insert"

    @property
    def value_bits(self) -> int:
        return 1

    def _extra_params(self) -> Tuple[int, ...]:
        return ()

    def compile(self) -> IndexFn:
        return self._xor_wrap(lambda ctx: 1 if ctx.is_insert else 0)


@dataclass(frozen=True)
class LastMissFeature(Feature):
    """lastmiss(A, X): 1 iff this set's previous access missed (feature 6)."""

    @property
    def family(self) -> str:
        return "lastmiss"

    @property
    def value_bits(self) -> int:
        return 1

    def _extra_params(self) -> Tuple[int, ...]:
        return ()

    def compile(self) -> IndexFn:
        return self._xor_wrap(lambda ctx: 1 if ctx.last_was_miss else 0)


@dataclass(frozen=True)
class OffsetFeature(Feature):
    """offset(A, B, E, X): block-offset bits (feature 7, 1-6 bits)."""

    begin: int
    end: int

    @property
    def family(self) -> str:
        return "offset"

    @property
    def value_bits(self) -> int:
        lo, hi = _normalize_range(self.begin, self.end, BLOCK_OFFSET_BITS - 1)
        return hi - lo + 1

    def _extra_params(self) -> Tuple[int, ...]:
        return (self.begin, self.end)

    def compile(self) -> IndexFn:
        lo, hi = _normalize_range(self.begin, self.end, BLOCK_OFFSET_BITS - 1)
        mask = (1 << (hi - lo + 1)) - 1
        return self._xor_wrap(lambda ctx: (ctx.offset >> lo) & mask)


# Fused index functions are pure functions of the feature tuple, and a
# multi-benchmark compare constructs the same policy once per cell —
# memoizing skips the repeated exec/compile.  Bounded: the feature
# search churns through many random sets.
_FUSED_CACHE: dict = {}


def _fold_into(bits: int, cache: dict) -> Callable[[int], int]:
    """Fold a sliced value to ``bits`` and memoize it in ``cache``.

    The slow path of the inline slice-and-fold sequence emitted by
    :func:`compile_fused`; mirrors :func:`_slice_and_fold` exactly so
    the fused function stays bit-identical to :meth:`Feature.compile`.
    """
    fold_mask = (1 << bits) - 1

    def fold(sliced: int) -> int:
        key = sliced
        folded = 0
        while sliced:
            folded ^= sliced & fold_mask
            sliced >>= bits
        if len(cache) > 1 << 16:
            cache.clear()
        cache[key] = folded
        return folded

    return fold


def compile_fused(features: Sequence[Feature]) -> Callable[[AccessContext], list]:
    """Fuse a whole feature set into one compiled per-access index function.

    :meth:`Feature.compile` produces one closure per feature, so the
    predictor's hot loop pays 16 Python calls plus 16 repeated
    ``ctx``-attribute loads per access.  This compiler emits a single
    function (via ``exec``) that loads each needed ``AccessContext``
    field exactly once, hashes the PC at most once, reuses one
    ``history_index`` base across all pc-history depths, inlines the
    slice-and-fold memo lookups (a dict ``get`` instead of a closure
    call on the hot path, deduplicated across features that slice the
    same bits), and returns the full index vector as a list literal.
    Compiled functions are memoized per feature tuple, so repeated
    policy construction skips the ``exec``.

    The generated function is bit-identical to evaluating each
    feature's :meth:`~Feature.compile` closure in order — a pure
    strength reduction of that per-feature reference, enforced by
    ``tests/test_core_features.py``.
    """
    cache_key = tuple(features)
    cached = _FUSED_CACHE.get(cache_key)
    if cached is not None:
        return cached

    prologue: list = []
    exprs: list = []
    env: dict = {"_hp": _hashed_pc, "_hc": _PC_HASH_CACHE}
    needs: set = set()
    depths: set = set()
    extractors: dict = {}  # (source, lo, hi, bits) -> value expression
    xor_mask = MAX_TABLE_SIZE - 1

    def value_expr(source: str, begin: int, end: int, limit: int,
                   bits: int) -> str:
        """Slice bits [lo..hi] of ``source`` and fold to ``bits``.

        Narrow slices inline to a shift-and-mask; wide slices emit a
        memo-dict probe with :func:`_fold_into` as the miss path.
        Identical (source, range, width) extractions are emitted once.
        """
        lo, hi = _normalize_range(begin, end, limit)
        key = (source, lo, hi, bits)
        known = extractors.get(key)
        if known is not None:
            return known
        width = hi - lo + 1
        slice_mask = (1 << width) - 1
        if width <= bits:
            expr = f"({source} >> {lo}) & {slice_mask}" if lo else \
                f"{source} & {slice_mask}"
            extractors[key] = expr
            return expr
        k = len(extractors)
        memo: dict = {}
        env[f"_g{k}"] = memo.get
        env[f"_f{k}"] = _fold_into(bits, memo)
        sliced = f"({source} >> {lo}) & {slice_mask}" if lo else \
            f"{source} & {slice_mask}"
        prologue.append(f"_s{k} = {sliced}")
        prologue.append(f"_v{k} = _g{k}(_s{k})")
        prologue.append(f"if _v{k} is None: _v{k} = _f{k}(_s{k})")
        extractors[key] = f"_v{k}"
        return f"_v{k}"

    def wrap(raw: str, feature: Feature) -> str:
        if feature.xor_pc:
            if raw == "0":
                return f"_h & {xor_mask}"
            return f"(({raw}) ^ _h) & {xor_mask}"
        if feature.table_size == 1:
            return "0"
        # Non-XOR values are already within the table mask: narrow
        # slices carry at most value_bits bits and folds saturate at
        # the fold mask, so no extra masking is emitted.
        return raw

    def head(feature: Feature) -> None:
        """Record which prologue loads this feature's source needs."""
        family = feature.family
        if feature.xor_pc:
            needs.add("pc_hash")
        if family == "pc" and feature.depth:
            needs.add("history")
            depths.add(feature.depth)
        elif family == "pc":
            needs.add("pc")
        elif family == "address":
            needs.add("address")
        elif family == "offset":
            needs.add("offset")
        elif family == "burst":
            needs.add("burst")
        elif family == "insert":
            needs.add("insert")
        elif family == "lastmiss":
            needs.add("lastmiss")

    # Prologue ordering: all ctx loads first, then the per-depth
    # history values, then the extractor probes (which reference both).
    loads: list = []
    probes = prologue  # value_expr appends probe statements here
    for feature in features:
        head(feature)

    if "pc" in needs or "pc_hash" in needs:
        loads.append("_pc = ctx.pc")
    if "pc_hash" in needs:
        loads.append("_h = _hc.get(_pc)")
        loads.append("if _h is None: _h = _hp(_pc)")
    if "address" in needs:
        loads.append("_addr = ctx.address")
    if "offset" in needs:
        loads.append("_off = ctx.offset")
    if "burst" in needs:
        loads.append("_mru = 1 if ctx.is_mru_hit else 0")
    if "insert" in needs:
        loads.append("_ins = 1 if ctx.is_insert else 0")
    if "lastmiss" in needs:
        loads.append("_lm = 1 if ctx.last_was_miss else 0")
    if "history" in needs:
        loads.append("_hist = ctx.pc_history")
        loads.append("_hlen = len(_hist)")
        loads.append("_b = ctx.history_index + (1 if ctx.is_prefetch else 0)")
        for d in sorted(depths):
            loads.append(f"_i{d} = _b - {d}")
            loads.append(f"_pd{d} = _hist[_i{d}] if 0 <= _i{d} < _hlen else 0")

    for feature in features:
        family = feature.family
        if family == "pc":
            source = "_pc" if feature.depth == 0 else f"_pd{feature.depth}"
            raw = value_expr(source, feature.begin, feature.end, 63,
                             feature.value_bits)
        elif family == "address":
            raw = value_expr("_addr", feature.begin, feature.end, 63,
                             feature.value_bits)
        elif family == "offset":
            raw = value_expr("_off", feature.begin, feature.end,
                             BLOCK_OFFSET_BITS - 1, feature.value_bits)
        elif family == "bias":
            raw = "0"
        elif family == "burst":
            raw = "_mru"
        elif family == "insert":
            raw = "_ins"
        elif family == "lastmiss":
            raw = "_lm"
        else:  # pragma: no cover - new families must be added here
            raise ValueError(f"compile_fused cannot fuse family {family!r}")
        exprs.append(wrap(raw, feature))

    body = "\n    ".join(loads + probes
                         + [f"return [{', '.join(exprs)}]"])
    source = f"def _fused(ctx):\n    {body}\n"
    exec(compile(source, "<fused-features>", "exec"), env)  # noqa: S102
    fused = env["_fused"]
    fused.__source__ = source  # aid debugging/tests
    if len(_FUSED_CACHE) > 256:
        _FUSED_CACHE.clear()
    _FUSED_CACHE[cache_key] = fused
    return fused


_FAMILIES = {
    "pc": PCFeature,
    "address": AddressFeature,
    "bias": BiasFeature,
    "burst": BurstFeature,
    "insert": InsertFeature,
    "lastmiss": LastMissFeature,
    "offset": OffsetFeature,
}

_SPEC_RE = re.compile(r"^\s*([a-z]+)\s*\(\s*([-0-9,\s]*)\)\s*$")


def parse_feature(spec: str) -> Feature:
    """Parse the paper's ``family(p1,p2,...)`` notation.

    Lenient, per DESIGN.md: reversed bit ranges are normalized at use,
    and an ``address`` spec with five parameters (one published entry
    of Table 2) drops the stray fourth parameter.
    """
    match = _SPEC_RE.match(spec)
    if not match:
        raise ValueError(f"malformed feature spec {spec!r}")
    family, body = match.group(1), match.group(2)
    if family not in _FAMILIES:
        raise ValueError(f"unknown feature family {family!r} in {spec!r}")
    params = [int(p) for p in body.split(",") if p.strip()]
    if len(params) < 2:
        raise ValueError(f"feature spec {spec!r} needs at least (A, X)")
    a, x = params[0], bool(params[-1])
    middle = params[1:-1]
    if family == "pc":
        if len(middle) != 3:
            raise ValueError(f"pc feature takes (A,B,E,W,X): {spec!r}")
        return PCFeature(a, x, begin=middle[0], end=middle[1], depth=middle[2])
    if family == "address":
        if len(middle) == 3:
            middle = middle[:2]  # the Table 2 five-parameter quirk
        if len(middle) != 2:
            raise ValueError(f"address feature takes (A,B,E,X): {spec!r}")
        return AddressFeature(a, x, begin=middle[0], end=middle[1])
    if family == "offset":
        if len(middle) != 2:
            raise ValueError(f"offset feature takes (A,B,E,X): {spec!r}")
        return OffsetFeature(a, x, begin=middle[0], end=middle[1])
    if middle:
        raise ValueError(f"{family} feature takes (A,X) only: {spec!r}")
    return _FAMILIES[family](a, x)


def parse_feature_set(specs: Sequence[str]) -> Tuple[Feature, ...]:
    """Parse a whole published feature table."""
    return tuple(parse_feature(spec) for spec in specs)


def random_feature(rng: random.Random) -> Feature:
    """Draw one random parameterized feature (the Section 5.1 search).

    Families are weighted toward pc/address/offset the way the
    published tables are; associativity spans the sampler's 1..18.
    """
    family = rng.choices(
        ["pc", "address", "bias", "burst", "insert", "lastmiss", "offset"],
        weights=[8, 4, 2, 2, 3, 2, 4],
    )[0]
    a = rng.randint(1, MAX_ASSOCIATIVITY)
    x = rng.random() < 0.5
    if family == "pc":
        begin = rng.randint(0, 24)
        end = begin + rng.randint(0, 16)
        return PCFeature(a, x, begin=begin, end=end, depth=rng.randint(0, 17))
    if family == "address":
        begin = rng.randint(0, 32)
        end = begin + rng.randint(0, 16)
        return AddressFeature(a, x, begin=begin, end=end)
    if family == "offset":
        begin = rng.randint(0, BLOCK_OFFSET_BITS - 1)
        end = rng.randint(begin, BLOCK_OFFSET_BITS - 1)
        return OffsetFeature(a, x, begin=begin, end=end)
    return _FAMILIES[family](a, x)


def random_feature_set(rng: random.Random, size: int = 16) -> Tuple[Feature, ...]:
    """Draw a random set of ``size`` features (paper default: 16)."""
    return tuple(random_feature(rng) for _ in range(size))


def with_associativity(feature: Feature, associativity: int) -> Feature:
    """Clone ``feature`` with a different A (the Figure 9 ablation)."""
    from dataclasses import replace

    return replace(feature, associativity=associativity)


def perturb_feature(feature: Feature, rng: random.Random) -> Feature:
    """Slightly perturb one parameter (the hill-climbing move)."""
    from dataclasses import replace

    choices = ["assoc", "xor"]
    if isinstance(feature, (PCFeature, AddressFeature, OffsetFeature)):
        choices += ["begin", "end"]
    if isinstance(feature, PCFeature):
        choices.append("depth")
    move = rng.choice(choices)
    if move == "assoc":
        delta = rng.choice([-2, -1, 1, 2])
        a = min(MAX_ASSOCIATIVITY, max(1, feature.associativity + delta))
        return replace(feature, associativity=a)
    if move == "xor":
        return replace(feature, xor_pc=not feature.xor_pc)
    if move == "depth":
        d = min(17, max(0, feature.depth + rng.choice([-1, 1])))
        return replace(feature, depth=d)
    limit = BLOCK_OFFSET_BITS - 1 if isinstance(feature, OffsetFeature) else 63
    delta = rng.choice([-2, -1, 1, 2])
    if move == "begin":
        return replace(feature, begin=min(limit, max(0, feature.begin + delta)))
    return replace(feature, end=min(limit, max(0, feature.end + delta)))
