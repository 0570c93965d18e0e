"""Table 2: the multi-programmed feature set (Section 5.3).

Prints the published set and validates the paper's train/test
discipline: the Table 2 features were developed on the first 100
mixes and reported on the remaining 900; here we evaluate MPPPB with
Table 2 features on both the training and test mixes and check the
speedup generalizes (no train-only artifact).
"""

from __future__ import annotations

from _shared import SWEEP_MIXES, header, multi_mixes, run_mixes, run_mixes_with_config
from repro import geometric_mean, multi_programmed_config
from repro.core.presets import TABLE_2_SPECS


def run_experiment():
    train, test = multi_mixes()
    train = train[:SWEEP_MIXES]
    test = test[:SWEEP_MIXES]
    config = multi_programmed_config()

    def geomean_ws(mixes):
        lru = run_mixes(mixes, "lru")
        mp = run_mixes_with_config(config, mixes)
        return geometric_mean([
            r.weighted_speedup / b.weighted_speedup for r, b in zip(mp, lru)
        ])

    return {"train": geomean_ws(train), "test": geomean_ws(test)}


def print_results(ws) -> None:
    header(
        "Table 2 - Multi-programmed feature set",
        "Developed on training mixes, reported on test mixes "
        "(paper: 100 train / 900 test).",
    )
    for spec in TABLE_2_SPECS:
        print(f"  {spec}")
    print("-" * 60)
    print(f"weighted speedup on training mixes: {ws['train']:.4f}")
    print(f"weighted speedup on test mixes    : {ws['test']:.4f}")


def test_table2_mp_features(benchmark, capsys):
    ws = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    with capsys.disabled():
        print_results(ws)

    # The Table 2 configuration must generalize from train to test:
    # no train-only artifact (the two sides track each other).  Note
    # EXPERIMENTS.md: Table 2's address-heavy features carry less
    # signal under the synthetic address layout, so absolute speedup
    # is modest here; the tuned multi-core preset (mpppb-mp) is what
    # Figure 4 evaluates.
    assert 0.9 < ws["test"] / ws["train"] < 1.1
    assert ws["test"] > 0.97
