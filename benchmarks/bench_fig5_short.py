"""E1 — Figure 5: execution times on the "Short" data set.

The paper plots negative-phase execution time against minimum support
(2.0 %% down to 0.5 %%) for the Naive and the Better (Improved) algorithm
on the fan-out-9 dataset; the Improved algorithm wins at every support
level and the gap widens as support drops.

Each parametrized benchmark below is one point of the figure; running the
module directly prints the whole series as a table::

    python -m benchmarks.bench_fig5_short
"""

import pytest

from repro.mining.generalized import mine_generalized

from .common import dataset, support_sweep
from .sweep import (
    improved_negative_phase,
    naive_negative_phase,
    print_figure,
    run_sweep,
)

MINSUPS = support_sweep()


@pytest.fixture(scope="module")
def short_dataset():
    return dataset("short")


@pytest.mark.parametrize("minsup", MINSUPS)
def test_fig5_improved(benchmark, short_dataset, minsup):
    index = mine_generalized(
        short_dataset.database, short_dataset.taxonomy, minsup
    )
    point = benchmark.pedantic(
        improved_negative_phase,
        args=(short_dataset, minsup, index),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        candidates=point.candidates,
        negatives=point.negatives,
        rules=point.rules,
        large_itemsets=point.large_itemsets,
    )


@pytest.mark.parametrize("minsup", MINSUPS)
def test_fig5_naive(benchmark, short_dataset, minsup):
    point = benchmark.pedantic(
        naive_negative_phase,
        args=(short_dataset, minsup),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        candidates=point.candidates,
        negatives=point.negatives,
        rules=point.rules,
    )


def main() -> None:
    points = run_sweep(dataset("short"), MINSUPS)
    print_figure(
        points, 'Figure 5: execution times, "Short" data set (fan-out 9)'
    )
    improved = {p.minsup: p.seconds for p in points
                if p.miner == "improved"}
    naive = {p.minsup: p.seconds for p in points if p.miner == "naive"}
    wins = sum(
        1 for minsup in improved if improved[minsup] <= naive[minsup]
    )
    print(
        f"\nshape check: improved wins at {wins}/{len(improved)} "
        "support levels (paper: all levels)"
    )


if __name__ == "__main__":
    main()
