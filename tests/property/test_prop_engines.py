"""Property-based tests: every registered engine agrees with brute force.

The registry is the source of truth: the parametrization enumerates
:func:`repro.mining.engines.engine_names`, so a newly registered engine
is covered by these bit-identity checks automatically, with and without
a taxonomy.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import MiningSession
from repro.itemset import itemset
from repro.mining.engines import engine_names
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

# Leaves 1..12 under categories 100..103 under roots 200..201, with the
# shape drawn randomly per example.
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


@pytest.mark.parametrize("spec", engine_names())
@settings(max_examples=25, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_engine_matches_brute(spec, transactions, candidates):
    expected = MiningSession(transactions, engine="brute").count(candidates)
    assert MiningSession(transactions, engine=spec).count(
        candidates
    ) == expected


@pytest.mark.parametrize("spec", engine_names())
@settings(max_examples=15, deadline=None)
@given(leaf_transactions_strategy, taxonomy_strategy, st.data())
def test_engine_matches_brute_generalized(spec, transactions, taxonomy, data):
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
    expected = MiningSession(transactions, taxonomy, "brute").count(
        candidates
    )
    counted = MiningSession(transactions, taxonomy, spec).count(candidates)
    assert counted == expected


@pytest.mark.parametrize("spec", engine_names())
@settings(max_examples=15, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_restriction_never_changes_counts(spec, transactions, candidates):
    plain = MiningSession(transactions, engine=spec).count(candidates)
    restricted = MiningSession(transactions, engine=spec).count(
        candidates, restrict_to_candidate_items=True
    )
    assert restricted == plain


# ----------------------------------------------------------------------
# Out-of-core segmentation: word/segment-boundary layouts and the
# incremental maintenance paths (append, then out-of-band mutation).
# ----------------------------------------------------------------------

#: Segment sizes straddling the uint64 word boundary plus tiny ones
#: that force many partial-tail / exact-multiple layouts over the
#: (up to 40-row) generated databases.
segment_rows_strategy = st.sampled_from([1, 3, 7, 8, 63, 64, 65])

#: The engines that keep per-database state across passes: the
#: vertical cache and the segmented mmap matrix.
INCREMENTAL_SPECS = ("cached", "mmap")


def incremental_session(spec, database, segment_rows):
    options = {"segment_rows": segment_rows} if spec == "mmap" else {}
    return MiningSession(database, engine=spec, **options)


@settings(max_examples=20, deadline=None)
@given(transactions_strategy, candidates_strategy, segment_rows_strategy)
def test_mmap_segment_boundaries_match_brute(
    transactions, candidates, segment_rows
):
    expected = MiningSession(transactions, engine="brute").count(candidates)
    session = MiningSession(
        transactions, engine="mmap", segment_rows=segment_rows
    )
    assert session.count(candidates) == expected


@pytest.mark.parametrize("spec", INCREMENTAL_SPECS)
@settings(max_examples=15, deadline=None)
@given(
    transactions_strategy,
    transactions_strategy,
    transactions_strategy,
    candidates_strategy,
    segment_rows_strategy,
)
def test_append_mutate_recount_sequences(
    spec, first, tail, rewrite, candidates, segment_rows
):
    """One session through build -> append -> out-of-band rewrite.

    Every recount must match a fresh brute count over the rows the
    database holds *now*: the append must be absorbed incrementally
    without serving stale heads, and the rewrite must invalidate."""
    from repro.data.database import TransactionDatabase

    def brute(rows):
        return MiningSession(list(rows), engine="brute").count(candidates)

    database = TransactionDatabase(first)
    session = incremental_session(spec, database, segment_rows)
    assert session.count(candidates) == brute(first)
    database.append(tail)
    assert session.count(candidates) == brute(list(first) + list(tail))
    database._transactions = tuple(rewrite)  # out-of-band rewrite
    assert session.count(candidates) == brute(rewrite)
