"""Property-based tests for the frequent-itemset miners."""

from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.database import TransactionDatabase
from repro.itemset import itemset
from repro.mining.apriori import apriori_gen, find_large_itemsets

databases = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=12), min_size=1, max_size=6
    ),
    min_size=1,
    max_size=40,
).map(TransactionDatabase)

minsups = st.sampled_from([0.1, 0.25, 0.5])


def exhaustive_large_itemsets(database, minsup):
    """Oracle: enumerate every itemset up to size 4 by brute force."""
    rows = [set(row) for row in database]
    universe = sorted({item for row in rows for item in row})
    min_count = minsup * len(rows)
    found = {}
    for size in range(1, 5):
        for candidate in combinations(universe, size):
            count = sum(
                1 for row in rows if set(candidate) <= row
            )
            if count >= min_count:
                found[candidate] = count / len(rows)
    return found


@settings(max_examples=40, deadline=None)
@given(databases, minsups)
def test_apriori_matches_exhaustive_oracle(database, minsup):
    index = find_large_itemsets(database, minsup, max_size=4)
    assert dict(index.items()) == exhaustive_large_itemsets(
        database, minsup
    )


@settings(max_examples=40, deadline=None)
@given(databases, minsups)
def test_downward_closure(database, minsup):
    index = find_large_itemsets(database, minsup)
    for items, _support in index.items():
        for drop in range(len(items)):
            subset = items[:drop] + items[drop + 1:]
            if subset:
                assert subset in index


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=10),
            min_size=2,
            max_size=2,
        ).map(itemset).filter(lambda s: len(s) == 2),
        min_size=1,
        max_size=20,
    ).map(lambda pairs: sorted(set(pairs)))
)
def test_apriori_gen_soundness(pairs):
    """Every generated candidate has all (k-1)-subsets in the input."""
    prev = set(pairs)
    for candidate in apriori_gen(pairs):
        assert len(candidate) == 3
        for drop in range(3):
            subset = candidate[:drop] + candidate[drop + 1:]
            assert subset in prev


@settings(max_examples=40, deadline=None)
@given(
    st.sets(st.integers(min_value=0, max_value=8), min_size=3, max_size=6)
)
def test_apriori_gen_completeness_on_full_lattice(universe):
    """From ALL pairs over a universe, gen must yield ALL triples."""
    pairs = [itemset(pair) for pair in combinations(sorted(universe), 2)]
    triples = set(apriori_gen(pairs))
    assert triples == {
        itemset(triple) for triple in combinations(sorted(universe), 3)
    }

