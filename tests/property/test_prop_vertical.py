"""Property-based tests: the cached engine is bit-identical to brute force.

The vertical index cache's contract is that *no observable count ever
changes*: not across passes, not under a taxonomy (descendant-OR versus
per-row ancestor extension), not after the database mutates beneath the
cache (fingerprint invalidation).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.itemset import itemset
from repro.taxonomy.builders import taxonomy_from_parents

transactions_strategy = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=25), min_size=1, max_size=8
    ).map(itemset),
    min_size=1,
    max_size=40,
)
candidates_strategy = st.lists(
    st.lists(
        st.integers(min_value=0, max_value=25), min_size=1, max_size=4
    ).map(itemset),
    min_size=1,
    max_size=25,
).map(lambda cands: sorted(set(cands)))

# Random three-level taxonomies: each leaf 1..12 under a random category
# 100..103, each category under a random root 200..201.
taxonomy_strategy = st.builds(
    lambda mids, tops: taxonomy_from_parents(
        {leaf: mid for leaf, mid in enumerate(mids, start=1)}
        | {100 + index: top for index, top in enumerate(tops)}
    ),
    st.lists(
        st.integers(min_value=100, max_value=103), min_size=12, max_size=12
    ),
    st.lists(
        st.integers(min_value=200, max_value=201), min_size=4, max_size=4
    ),
)
leaf_transactions_strategy = st.lists(
    st.lists(
        st.integers(min_value=1, max_value=12), min_size=1, max_size=5
    ).map(itemset),
    min_size=1,
    max_size=30,
)


def brute(rows, candidates, taxonomy=None):
    return MiningSession(list(rows), taxonomy, "brute").count(candidates)


def cached(database, candidates, taxonomy=None):
    return MiningSession(database, taxonomy, "cached").count(candidates)


@settings(max_examples=60, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_cached_matches_brute_across_passes(transactions, candidates):
    database = TransactionDatabase(transactions)
    expected = brute(transactions, candidates)
    session = MiningSession(database, engine="cached")
    for _ in range(3):
        assert session.count(candidates) == expected
    assert database.scans == 1


@settings(max_examples=60, deadline=None)
@given(leaf_transactions_strategy, taxonomy_strategy, st.data())
def test_cached_matches_brute_generalized(transactions, taxonomy, data):
    nodes = sorted(taxonomy.nodes)
    candidates = data.draw(
        st.lists(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=3).map(
                itemset
            ),
            min_size=1,
            max_size=12,
        ).map(lambda cands: sorted(set(cands)))
    )
    database = TransactionDatabase(transactions)
    expected = brute(transactions, candidates, taxonomy=taxonomy)
    for _ in range(2):
        assert (
            cached(database, candidates, taxonomy=taxonomy) == expected
        )


@settings(max_examples=40, deadline=None)
@given(transactions_strategy, transactions_strategy, candidates_strategy)
def test_mutation_never_serves_stale_counts(first, second, candidates):
    database = TransactionDatabase(first)
    session = MiningSession(database, engine="cached")
    assert session.count(candidates) == brute(first, candidates)
    # Swap the rows out from under the cache: the fingerprint must catch
    # it and rebuild — a stale count here would be silent corruption.
    database._transactions = tuple(second)
    assert session.count(candidates) == brute(second, candidates)

