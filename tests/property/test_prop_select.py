"""Property-based tests: negative-itemset selection against a scalar
oracle.

:func:`repro.core.negmining.select_negatives` judges all counted
candidates at once with each measure's array predicate and sorts the
admitted ones by ``(-deviation, items)`` over padded item columns. The
oracle judges one candidate at a time with each measure's formula and
sorts with that key, and the two must agree exactly: the same records,
field by field, in the same order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import NegativeCandidate
from repro.core.negmining import (
    NaiveNegativeMiner,
    NegativeItemset,
    select_negatives,
)
from repro.data.database import TransactionDatabase
from repro.measures.registry import create_measure
from repro.mining.itemset_index import LargeItemsetIndex
from repro.taxonomy.builders import taxonomy_from_parents

MEASURES = {
    "ri": lambda: create_measure("ri"),
    "ri-figure3": lambda: create_measure("ri", figure3_literal=True),
    "kong-interest": lambda: create_measure("kong-interest"),
    "coherent": lambda: create_measure("coherent"),
}


def scalar_admits(name, expected, actual, singles, minsup, minri):
    """Each measure's itemset predicate, one candidate at a time."""
    independence = 1.0
    for support in singles:
        independence *= support
    if name == "ri":
        return expected - actual >= minsup * minri
    if name == "ri-figure3":
        return actual < minsup * minri
    if name == "kong-interest":
        return independence - actual >= minsup * minri
    return actual < independence


def scalar_select(name, candidates, counts, total, minsup, minri, index):
    negatives = []
    for items, count in counts.items():
        candidate = candidates[items]
        actual = count / total
        singles = tuple(
            index.support_or_none((item,)) or 0.0 for item in items
        )
        if scalar_admits(
            name, candidate.expected_support, actual, singles, minsup, minri
        ):
            negatives.append(NegativeItemset(
                items=items,
                expected_support=candidate.expected_support,
                actual_support=actual,
                source=candidate.source,
                case=candidate.case,
            ))
    negatives.sort(key=lambda negative: (-negative.deviation, negative.items))
    return negatives


def assert_same(found, expected):
    assert found == expected
    for negative, oracle in zip(found, expected):
        assert negative.items == oracle.items
        assert negative.expected_support == oracle.expected_support
        assert negative.actual_support == oracle.actual_support
        assert negative.source == oracle.source
        assert negative.case == oracle.case


@st.composite
def counted(draw):
    """Candidates of 2-4 items over a small pool, their counts and an
    index of single supports.

    Expectations and counts come from a few values, so deviations tie
    often, also between itemsets where one is a prefix of the other
    ({1, 2} and {1, 2, 3}). Item 9 is never a large single: a candidate
    holding it has an independence baseline of 0.
    """
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    index = LargeItemsetIndex()
    for item in range(1, 9):
        index.add((item,), rng.choice([0.2, 0.4, 0.6, 0.9]))
    index.add((1, 2), 0.3)
    total = draw(st.sampled_from([10, 40, 97]))
    candidates, counts = {}, {}
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        items = tuple(sorted(rng.sample(range(1, 10), rng.choice((2, 3, 4)))))
        candidates[items] = NegativeCandidate(
            items=items,
            expected_support=rng.choice([0.1, 0.25, 0.4]),
            source=items[:-1] + (items[-1] + 100,),
            case=rng.choice(["children", "siblings"]),
        )
        counts[items] = rng.choice([0, 1, 2, total // 4])
    return candidates, counts, total, index


@pytest.mark.parametrize("name", sorted(MEASURES))
@settings(max_examples=80, deadline=None)
@given(counted(), st.sampled_from([0.1, 0.2]), st.sampled_from([0.3, 0.5]))
def test_select_equals_scalar_oracle(name, args, minsup, minri):
    candidates, counts, total, index = args
    assert_same(
        select_negatives(
            candidates, counts, total, minsup, minri,
            measure=MEASURES[name](), index=index,
        ),
        scalar_select(name, candidates, counts, total, minsup, minri, index),
    )


def test_prefix_ties_and_a_small_single():
    """Equal deviations sort by items, a prefix first; a candidate with
    the small item 9 reads an independence baseline of 0."""
    index = LargeItemsetIndex({(1,): 0.5, (2,): 0.5, (3,): 0.5})
    candidates = {
        items: NegativeCandidate(items, 0.4, items, "children")
        for items in [(1, 2, 3), (1, 2), (2, 3), (1, 9)]
    }
    counts = {items: 1 for items in candidates}
    for name in MEASURES:
        found = select_negatives(
            candidates, counts, 10, 0.1, 0.5,
            measure=MEASURES[name](), index=index,
        )
        assert_same(found, scalar_select(
            name, candidates, counts, 10, 0.1, 0.5, index
        ))
    ri = [n.items for n in select_negatives(candidates, counts, 10, 0.1, 0.5)]
    assert ri == [(1, 2), (1, 2, 3), (1, 9), (2, 3)]
    kong = select_negatives(
        candidates, counts, 10, 0.1, 0.5,
        measure=create_measure("kong-interest"), index=index,
    )
    assert (1, 9) not in [negative.items for negative in kong]


TAXONOMY = taxonomy_from_parents(
    {child: (child - 1) // 3 + 100 for child in range(1, 10)},
)
LEAVES = sorted(TAXONOMY.leaves)


@st.composite
def leaf_databases(draw):
    rows = [
        draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=5))
        for _ in range(draw(st.integers(min_value=10, max_value=40)))
    ]
    return TransactionDatabase(rows)


@pytest.mark.parametrize("name", sorted(MEASURES))
@settings(max_examples=15, deadline=None)
@given(leaf_databases(), st.sampled_from([0.1, 0.2]))
def test_naive_per_level_selection_equals_scalar_oracle(
    name, database, minsup
):
    """The Naive miner selects level by level and sorts the union."""
    output = NaiveNegativeMiner(
        database, TAXONOMY, minsup, 0.4, measure=MEASURES[name](),
    ).mine()
    assert_same(output.negatives, scalar_select(
        name, output.candidates, output.counts, output.total_transactions,
        minsup, 0.4, output.large_itemsets,
    ))
