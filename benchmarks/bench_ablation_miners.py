"""A8 — Ablation: the four frequent-itemset miners of the substrate.

Apriori (level-wise counting), AprioriTid (single data pass),
AprioriHybrid (switch-over) and Partition (two passes) all compute the
same large itemsets; this ablation compares their wall-clock time and
data passes on the leaf-level (non-generalized) workload and verifies
output equality.

Run directly::

    python -m benchmarks.bench_ablation_miners
"""

import time

import pytest

from repro.mining.apriori import find_large_itemsets
from repro.mining.aprioritid import (
    find_large_itemsets_aprioritid,
    find_large_itemsets_hybrid,
)
from repro.mining.partition import find_large_itemsets_partition

from .common import dataset, support_sweep

MINSUP = support_sweep()[0]

MINERS = {
    "apriori": lambda db: find_large_itemsets(db, MINSUP),
    "aprioritid": lambda db: find_large_itemsets_aprioritid(db, MINSUP),
    "hybrid": lambda db: find_large_itemsets_hybrid(db, MINSUP),
    "partition": lambda db: find_large_itemsets_partition(
        db, MINSUP, partitions=4
    ),
}


@pytest.mark.parametrize("name", sorted(MINERS))
def test_frequent_miner(benchmark, name):
    data = dataset("short")
    data.database.reset_scans()

    def mine():
        data.database.reset_scans()
        return MINERS[name](data.database)

    index = benchmark.pedantic(mine, rounds=1, iterations=1)
    benchmark.extra_info.update(
        large_itemsets=len(index),
        passes=data.database.logical_scans,
    )


def main() -> None:
    data = dataset("short")
    print(
        f"=== A8: frequent-itemset miners at MinSup={MINSUP} "
        f"(leaf items, |D|={len(data.database)}) ==="
    )
    results = {}
    for name in ("apriori", "aprioritid", "hybrid", "partition"):
        data.database.reset_scans()
        started = time.perf_counter()
        index = MINERS[name](data.database)
        elapsed = time.perf_counter() - started
        results[name] = index
        print(
            f"  {name:<11} {elapsed:7.3f}s  large={len(index):>5} "
            f"passes={data.database.logical_scans}"
        )
    agree = all(
        results[name] == results["apriori"] for name in results
    )
    print(f"\nall miners agree: {agree} (must be True)")


if __name__ == "__main__":
    main()
