"""Shared sweep logic for the execution-time figures (Figures 5 and 6).

The paper measures "generation of negative itemsets and negative rules"
and explicitly excludes "the time taken to generate the generalized large
itemsets" — :func:`negative_phase_seconds` reproduces that accounting by
pre-mining the positive itemsets outside the timed region and timing only
candidate generation, counting, negative selection and rule generation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.candidates import generate_negative_candidates
from repro.core.negmining import (
    NaiveNegativeMiner,
    select_negatives,
)
from repro.core.rulegen import generate_negative_rules
from repro.core.session import MiningSession
from repro.mining.generalized import mine_generalized
from repro.mining.itemset_index import LargeItemsetIndex
from repro.synthetic.generator import SyntheticDataset
from repro.taxonomy.prune import restrict_to_items

from .common import MINRI


@dataclass(slots=True)
class SweepPoint:
    """One (miner, minsup) measurement of the Figure 5/6 sweep."""

    miner: str
    minsup: float
    seconds: float
    large_itemsets: int
    candidates: int
    negatives: int
    rules: int


def _positive_index(
    dataset: SyntheticDataset, minsup: float
) -> LargeItemsetIndex:
    return mine_generalized(dataset.database, dataset.taxonomy, minsup)


def improved_negative_phase(
    dataset: SyntheticDataset, minsup: float, index: LargeItemsetIndex
) -> SweepPoint:
    """Time the Improved algorithm's negative phase (Figure 3)."""
    database, taxonomy = dataset.database, dataset.taxonomy
    total = len(database)

    started = time.perf_counter()
    large_singles = [items[0] for items in index.of_size(1)]
    pruned = restrict_to_items(taxonomy, large_singles)
    candidates = generate_negative_candidates(
        index, pruned, minsup, MINRI
    )
    counts = MiningSession(database, taxonomy).count(
        list(candidates), restrict_to_candidate_items=True
    )
    negatives = select_negatives(
        candidates, counts, total, minsup, MINRI
    )
    rules = generate_negative_rules(negatives, index, MINRI)
    seconds = time.perf_counter() - started
    return SweepPoint(
        miner="improved",
        minsup=minsup,
        seconds=seconds,
        large_itemsets=len(index),
        candidates=len(candidates),
        negatives=len(negatives),
        rules=len(rules),
    )


def naive_negative_phase(
    dataset: SyntheticDataset, minsup: float
) -> SweepPoint:
    """Time the Naive algorithm end to end, then subtract the positive
    passes by re-measuring them separately.

    The Naive schedule interleaves positive and negative passes, so its
    negative-phase cost is measured as (total - positive-only) — the same
    normalization the paper applies.
    """
    database = dataset.database

    started = time.perf_counter()
    output = NaiveNegativeMiner(
        database, dataset.taxonomy, minsup, MINRI
    ).mine()
    rules = generate_negative_rules(
        output.negatives, output.large_itemsets, MINRI
    )
    total_seconds = time.perf_counter() - started

    started = time.perf_counter()
    mine_generalized(database, dataset.taxonomy, minsup)
    positive_seconds = time.perf_counter() - started

    return SweepPoint(
        miner="naive",
        minsup=minsup,
        seconds=max(0.0, total_seconds - positive_seconds),
        large_itemsets=len(output.large_itemsets),
        candidates=output.stats.candidates_generated,
        negatives=output.stats.negative_itemsets,
        rules=len(rules),
    )


def run_sweep(dataset: SyntheticDataset, minsups: list[float]) -> list[SweepPoint]:
    """Full Figure 5/6 sweep: both algorithms at every support level."""
    points: list[SweepPoint] = []
    for minsup in minsups:
        index = _positive_index(dataset, minsup)
        points.append(improved_negative_phase(dataset, minsup, index))
        points.append(naive_negative_phase(dataset, minsup))
    return points


def print_figure(points: list[SweepPoint], title: str) -> None:
    """Render the sweep as the paper's time-vs-support series."""
    print()
    print(f"=== {title} (MinRI = {MINRI}) ===")
    print(
        f"{'minsup':>8} {'miner':>10} {'time(s)':>9} {'large':>7} "
        f"{'cands':>7} {'negs':>7} {'rules':>7}"
    )
    for point in points:
        print(
            f"{point.minsup:>8.4f} {point.miner:>10} "
            f"{point.seconds:>9.3f} {point.large_itemsets:>7} "
            f"{point.candidates:>7} {point.negatives:>7} "
            f"{point.rules:>7}"
        )
