"""A3 — Ablation: taxonomy pruning of small 1-itemsets.

The Improved algorithm's first optimization deletes small items from the
taxonomy before candidate generation; candidate *output* is unchanged
(replacements are always filtered to large items) but generation iterates
far fewer children/sibling combinations. This ablation times candidate
generation with and without pruning and verifies output equality; run
directly it exits 1 when the two candidate sets differ.

Run directly::

    python -m benchmarks.bench_ablation_pruning
"""

import sys
import time

import pytest

from repro.core.candidates import generate_negative_candidates
from repro.mining.generalized import mine_generalized
from repro.taxonomy.prune import restrict_to_items

from .common import MINRI, dataset, support_sweep

MINSUP = support_sweep()[0]


def _setup():
    data = dataset("short")
    index = mine_generalized(data.database, data.taxonomy, MINSUP)
    large_singles = [items[0] for items in index.of_size(1)]
    pruned = restrict_to_items(data.taxonomy, large_singles)
    return data, index, pruned


@pytest.mark.parametrize("variant", ["pruned", "full"])
def test_candidate_generation(benchmark, variant):
    data, index, pruned = _setup()
    taxonomy = pruned if variant == "pruned" else data.taxonomy

    def generate():
        return generate_negative_candidates(
            index, taxonomy, MINSUP, MINRI
        )

    candidates = benchmark.pedantic(generate, rounds=1, iterations=1)
    benchmark.extra_info.update(
        candidates=len(candidates),
        taxonomy_nodes=len(taxonomy),
    )


def main() -> int:
    data, index, pruned = _setup()
    print(
        f"=== A3: taxonomy pruning, {len(data.taxonomy)} -> "
        f"{len(pruned)} nodes ==="
    )
    outputs = {}
    for label, taxonomy in (("full", data.taxonomy), ("pruned", pruned)):
        started = time.perf_counter()
        outputs[label] = generate_negative_candidates(
            index, taxonomy, MINSUP, MINRI
        )
        elapsed = time.perf_counter() - started
        print(
            f"  {label:<7} {elapsed:8.3f}s  "
            f"candidates={len(outputs[label])}"
        )
    same = set(outputs["full"]) == set(outputs["pruned"])
    print(f"\nidentical candidate sets: {same}")
    if not same:
        print(
            "FAIL: pruning the taxonomy changed the candidate set",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
