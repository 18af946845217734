"""Property-based tests for the negative-mining core invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import mine_negative_rules
from repro.core.candidates import generate_negative_candidates
from repro.core.expectation import expected_support
from repro.core.negmining import ImprovedNegativeMiner, NaiveNegativeMiner
from repro.data.database import TransactionDatabase
from repro.mining.itemset_index import LargeItemsetIndex
from repro.taxonomy.builders import taxonomy_from_parents

# A fixed two-level taxonomy: 3 roots, each with 3 leaf children.
TAXONOMY = taxonomy_from_parents(
    {child: (child - 1) // 3 + 100 for child in range(1, 10)},
)
LEAVES = sorted(TAXONOMY.leaves)


@st.composite
def leaf_databases(draw):
    row_count = draw(st.integers(min_value=10, max_value=60))
    rows = [
        draw(
            st.lists(
                st.sampled_from(LEAVES), min_size=1, max_size=5
            )
        )
        for _ in range(row_count)
    ]
    return TransactionDatabase(rows)


@settings(max_examples=25, deadline=None)
@given(leaf_databases(), st.sampled_from([0.1, 0.2]),
       st.sampled_from([0.3, 0.6]))
def test_naive_equals_improved(database, minsup, minri):
    improved = ImprovedNegativeMiner(
        database, TAXONOMY, minsup, minri
    ).mine()
    naive = NaiveNegativeMiner(database, TAXONOMY, minsup, minri).mine()
    assert {n.items for n in naive.negatives} == {
        n.items for n in improved.negatives
    }


@settings(max_examples=25, deadline=None)
@given(leaf_databases(), st.integers(min_value=1, max_value=7))
def test_batching_invariance(database, batch):
    whole = ImprovedNegativeMiner(database, TAXONOMY, 0.1, 0.4).mine()
    batched = ImprovedNegativeMiner(
        database, TAXONOMY, 0.1, 0.4, max_candidates_in_memory=batch
    ).mine()
    assert [n.items for n in whole.negatives] == [
        n.items for n in batched.negatives
    ]


@settings(max_examples=25, deadline=None)
@given(leaf_databases())
def test_rules_respect_all_thresholds(database):
    result = mine_negative_rules(
        database, TAXONOMY, minsup=0.15, minri=0.4
    )
    for rule in result.rules:
        assert rule.antecedent_support >= 0.15
        assert rule.consequent_support >= 0.15
        assert rule.ri >= 0.4
        assert set(rule.antecedent).isdisjoint(rule.consequent)


@st.composite
def random_indexes(draw):
    """Supports for all taxonomy nodes + some large pairs, consistent
    enough for candidate generation (children never out-support parents).
    """
    index = LargeItemsetIndex()
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    for root in (100, 101, 102):
        root_support = rng.uniform(0.3, 0.9)
        index.add((root,), root_support)
        for child in TAXONOMY.children(root):
            index.add((child,), rng.uniform(0.05, root_support / 2))
    pair_count = draw(st.integers(min_value=1, max_value=4))
    nodes = [100, 101, 102] + LEAVES
    for _ in range(pair_count):
        first, second = rng.sample(nodes, 2)
        if first in TAXONOMY.ancestors(second):
            continue
        if second in TAXONOMY.ancestors(first):
            continue
        bound = min(
            index.support((first,)), index.support((second,))
        )
        index.add(
            tuple(sorted((first, second))), rng.uniform(0.01, bound)
        )
    return index


@settings(max_examples=40, deadline=None)
@given(random_indexes(), st.sampled_from([0.05, 0.1]),
       st.sampled_from([0.3, 0.6]))
def test_candidate_generation_invariants(index, minsup, minri):
    candidates = generate_negative_candidates(
        index, TAXONOMY, minsup, minri
    )
    for items, candidate in candidates.items():
        # Never an existing large itemset, always canonical, same size
        # as its source, every 1-subset large, expectation thresholded.
        assert items not in index
        assert items == tuple(sorted(set(items)))
        assert len(items) == len(candidate.source)
        assert all(index.is_large((item,)) for item in items)
        assert candidate.expected_support >= minsup * minri - 1e-12
        # Expectation is reproducible from the recorded source.
        source_set = set(candidate.source)
        replaced = [
            (item, source_item)
            for item, source_item in _match_replacements(
                items, candidate.source
            )
        ]
        ratios = [
            (index.support((new,)), index.support((old,)))
            for new, old in replaced
        ]
        rebuilt = expected_support(index.support(candidate.source), ratios)
        assert candidate.expected_support <= rebuilt + 1e-9 or (
            set(items) & source_set
        )


def _match_replacements(candidate, source):
    """Pair each new item with the source item it replaced.

    Items present in both sets were kept; the rest replaced positionally
    by parent/sibling relation. For the invariant check we only need a
    consistent pairing of the disjoint parts, matched through the
    taxonomy (parent or shared parent).
    """
    kept = set(candidate) & set(source)
    new_items = [item for item in candidate if item not in kept]
    old_items = [item for item in source if item not in kept]
    pairs = []
    used = set()
    for new in new_items:
        parent = TAXONOMY.parent(new)
        for old in old_items:
            if old in used:
                continue
            if old == parent or TAXONOMY.parent(old) == parent:
                pairs.append((new, old))
                used.add(old)
                break
    return pairs
