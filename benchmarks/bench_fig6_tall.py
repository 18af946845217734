"""E2 — Figure 6: execution times on the "Tall" data set.

Same sweep as Figure 5 but on the fan-out-3 ("Tall") taxonomy. The paper
reports (a) Improved beating Naive throughout and (b) the Tall data set
taking *longer* overall than Short because far more generalized large
itemsets exist (15,476 vs 1,499 at 1.5 % support).

Run directly for the full series::

    python -m benchmarks.bench_fig6_tall
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
def tall_dataset():
    return dataset("tall")


@pytest.mark.parametrize("minsup", MINSUPS)
def test_fig6_improved(benchmark, tall_dataset, minsup):
    index = mine_generalized(
        tall_dataset.database, tall_dataset.taxonomy, minsup
    )
    point = benchmark.pedantic(
        improved_negative_phase,
        args=(tall_dataset, minsup, index),
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
def test_fig6_naive(benchmark, tall_dataset, minsup):
    point = benchmark.pedantic(
        naive_negative_phase,
        args=(tall_dataset, minsup),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(
        candidates=point.candidates,
        negatives=point.negatives,
        rules=point.rules,
    )


def main() -> None:
    points = run_sweep(dataset("tall"), MINSUPS)
    print_figure(
        points, 'Figure 6: execution times, "Tall" data set (fan-out 3)'
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
