"""A2 — Ablation: Basic vs Cumulate vs EstMerge generalized miners.

The paper delegates step 1 to "one of Basic, Cumulate or EstMerge"; this
ablation times all three on the same dataset and verifies that Cumulate
and EstMerge agree exactly (Basic additionally reports its redundant
item+ancestor itemsets).

Run directly::

    python -m benchmarks.bench_ablation_generalized
"""

import random
import time

import pytest

from repro.mining.generalized import ALGORITHMS, mine_generalized

from .common import dataset, support_sweep

MINSUP = support_sweep()[0]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_generalized_miner(benchmark, algorithm):
    data = dataset("short")

    def mine():
        return mine_generalized(
            data.database,
            data.taxonomy,
            MINSUP,
            algorithm=algorithm,
            rng=random.Random(0),
        )

    index = benchmark.pedantic(mine, rounds=1, iterations=1)
    benchmark.extra_info.update(
        large_itemsets=len(index),
        passes=data.database.logical_scans,
    )
    data.database.reset_scans()


def main() -> None:
    data = dataset("short")
    print(
        f"=== A2: generalized miners at MinSup={MINSUP}, "
        f"|D|={len(data.database)} ==="
    )
    results = {}
    for algorithm in ALGORITHMS:
        data.database.reset_scans()
        started = time.perf_counter()
        index = mine_generalized(
            data.database,
            data.taxonomy,
            MINSUP,
            algorithm=algorithm,
            rng=random.Random(0),
        )
        elapsed = time.perf_counter() - started
        results[algorithm] = index
        print(
            f"  {algorithm:<9} {elapsed:8.3f}s  large={len(index):>6} "
            f"passes={data.database.logical_scans}"
        )
    print(
        "\ncumulate == estmerge: "
        f"{results['cumulate'] == results['estmerge']}"
    )
    extras = len(results["basic"]) - len(results["cumulate"])
    print(f"basic reports {extras} extra (item+ancestor) itemsets")


if __name__ == "__main__":
    main()
