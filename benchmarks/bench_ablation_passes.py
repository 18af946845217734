"""A6 — Ablation: data-pass accounting, Naive (2n) vs Improved (n+1).

The paper's core efficiency argument is pass counts: the Naive schedule
re-reads the database twice per level while the Improved one defers all
negative counting to a single extra pass. The database's scan counter
verifies the claim directly; run directly it exits 1 unless the Improved
miner makes exactly n + 1 passes and both miners find the same negative
itemsets.

Run directly::

    python -m benchmarks.bench_ablation_passes
"""

import sys

import pytest

from repro.core.negmining import ImprovedNegativeMiner, NaiveNegativeMiner

from .common import MINRI, dataset, support_sweep

MINSUP = support_sweep()[0]


def _run(miner_class):
    data = dataset("short")
    data.database.reset_scans()
    output = miner_class(
        data.database, data.taxonomy, MINSUP, MINRI
    ).mine()
    return output


@pytest.mark.parametrize(
    "miner_class", [ImprovedNegativeMiner, NaiveNegativeMiner],
    ids=["improved", "naive"],
)
def test_miner_passes(benchmark, miner_class):
    output = benchmark.pedantic(
        _run, args=(miner_class,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        passes=output.stats.data_passes,
        levels=output.large_itemsets.max_size,
        negatives=output.stats.negative_itemsets,
    )


def main() -> int:
    print(f"=== A6: pass accounting at MinSup={MINSUP} ===")
    improved = _run(ImprovedNegativeMiner)
    naive = _run(NaiveNegativeMiner)
    levels = improved.large_itemsets.max_size
    print(f"  levels (n)        : {levels}")
    print(
        f"  improved passes   : {improved.stats.data_passes} "
        f"(paper: n + 1 = {levels + 1})"
    )
    print(
        f"  naive passes      : {naive.stats.data_passes} "
        f"(paper: ~2n = {2 * levels})"
    )
    same = {n.items for n in improved.negatives} == {
        n.items for n in naive.negatives
    }
    print(f"  identical outputs : {same}")
    failures = []
    if improved.stats.data_passes != levels + 1:
        failures.append(
            f"Improved made {improved.stats.data_passes} passes, not "
            f"n + 1 = {levels + 1}"
        )
    if not same:
        failures.append("Naive and Improved found different negatives")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
