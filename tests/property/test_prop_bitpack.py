"""Property-based tests: the NumPy kernel is bit-identical to brute force.

The bit-packed kernel (``PackedMatrix.count``) is what the ``mmap``
engine counts with. Its contract mirrors
the cached engine's: no observable count ever changes — not for flat
candidate sets, not under a taxonomy (descendant-OR versus per-row
ancestor extension), not at word boundaries (row counts straddling
64-bit words), and not when the candidate gather is split into tiny
batches.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemset import itemset
from repro.core.session import MiningSession
from repro.mining.bitpack import PackedMatrix
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


def numpy_count(rows, candidates, taxonomy=None, batch_words=None):
    return PackedMatrix.from_rows(rows).count(
        candidates, taxonomy=taxonomy, batch_words=batch_words
    )


@settings(max_examples=60, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_numpy_matches_brute_flat(transactions, candidates):
    assert numpy_count(transactions, candidates) == brute(
        transactions, candidates
    )


@settings(max_examples=60, deadline=None)
@given(leaf_transactions_strategy, taxonomy_strategy, st.data())
def test_numpy_matches_brute_generalized(transactions, taxonomy, data):
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
    assert numpy_count(
        transactions, candidates, taxonomy=taxonomy
    ) == brute(transactions, candidates, taxonomy=taxonomy)


@settings(max_examples=20, deadline=None)
@given(candidates_strategy, st.sampled_from([1, 63, 64, 65, 1000]))
def test_numpy_exact_at_word_boundaries(candidates, n_rows):
    """Row counts straddling uint64 words leave no stray tail bits."""
    transactions = [
        itemset([index % 26, (index * 7) % 26]) for index in range(n_rows)
    ]
    assert numpy_count(transactions, candidates) == brute(
        transactions, candidates
    )


@settings(max_examples=40, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_numpy_tiny_batches_match_default(transactions, candidates):
    default = numpy_count(transactions, candidates)
    assert numpy_count(transactions, candidates, batch_words=1) == default
