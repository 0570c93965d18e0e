#!/usr/bin/env python
"""Author a custom feature set and inspect the predictor it builds.

Demonstrates the feature API end to end: parse the paper's notation,
construct features programmatically, check each table's size and the
hardware budget (the Section 4.4 accounting), and run the resulting
MPPPB configuration against the published Table 1(a) preset.

Run with::

    python examples/custom_features.py
"""

from repro import (
    MPPPBConfig,
    SingleThreadRunner,
    build_segments,
    get_scale,
    parse_feature,
    single_thread_config,
)
from repro.core.features import (
    AddressFeature,
    BiasFeature,
    BurstFeature,
    InsertFeature,
    PCFeature,
)
from repro.core.mpppb import MPPPBPolicy

CUSTOM_SPECS = [
    "bias(16,0)",          # global dead/live tendency counter
    "pc(17,0,12,0,1)",     # current PC, low bits, XORed
    "pc(12,4,20,2,0)",     # PC two loads back
    "address(10,12,26,0)", # physical region bits
    "insert(16,1)",        # insertion bit crossed with the PC
    "burst(8,0)",          # MRU-burst bit
    "offset(14,0,5,1)",    # block offset crossed with the PC
]


def main() -> None:
    features = [parse_feature(spec) for spec in CUSTOM_SPECS]
    # The same set can be built programmatically:
    assert features[0] == BiasFeature(16, False)
    assert features[1] == PCFeature(17, True, begin=0, end=12, depth=0)
    assert features[3] == AddressFeature(10, False, begin=12, end=26)
    assert features[4] == InsertFeature(16, True)
    assert features[5] == BurstFeature(8, False)

    print("Custom feature set:")
    for feature in features:
        print(f"  {feature.spec():24s} table={feature.table_size:4d} weights"
              f"  (A={feature.associativity}, X={int(feature.xor_pc)})")

    config = MPPPBConfig(features=tuple(features))
    scale = get_scale()
    hierarchy = scale.hierarchy
    policy = MPPPBPolicy(hierarchy.llc_sets, hierarchy.llc_ways, config)
    print(f"\nHardware budget: {policy.storage_bits() / 8 / 1024:.2f} KiB "
          f"({100 * policy.storage_bits() / 8 / hierarchy.llc_bytes:.2f}% "
          f"of the {hierarchy.llc_kib} KiB LLC)")

    segments = build_segments(
        "mcf", hierarchy.llc_bytes, accesses=scale.segment_accesses
    )
    runner = SingleThreadRunner(hierarchy,
                                warmup_fraction=scale.warmup_fraction)
    custom = runner.run_benchmark(
        "mcf", segments, lambda ns, w: MPPPBPolicy(ns, w, config)
    )
    published = runner.run_benchmark(
        "mcf", segments,
        lambda ns, w: MPPPBPolicy(ns, w, single_thread_config("a")),
    )
    print(f"\nmcf MPKI: custom 7-feature set = {custom.mpki:.3f}, "
          f"published Table 1(a) = {published.mpki:.3f}")


if __name__ == "__main__":
    main()
