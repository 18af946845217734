"""Property-based tests: all counting engines agree with set semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.itemset import itemset
from repro.mining.engines import count_pass, create_engine
from repro.mining.hash_tree import HashTree


def count(engine_spec, transactions, candidates):
    engine = create_engine(engine_spec)
    return count_pass(
        engine, engine.prepare(transactions, None), candidates
    )

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


def oracle(transactions, candidates):
    counts = {candidate: 0 for candidate in candidates}
    for row in transactions:
        row_set = set(row)
        for candidate in candidates:
            if set(candidate) <= row_set:
                counts[candidate] += 1
    return counts


@settings(max_examples=60, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_engines_match_oracle(transactions, candidates):
    expected = oracle(transactions, candidates)
    for engine in ("bitmap", "hashtree", "brute"):
        assert count(engine, transactions, candidates) == expected


@settings(max_examples=60, deadline=None)
@given(
    transactions_strategy,
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=25),
            min_size=3,
            max_size=3,
        ).map(itemset).filter(lambda s: len(s) == 3),
        min_size=1,
        max_size=30,
    ).map(lambda cands: sorted(set(cands))),
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=4),
)
def test_hash_tree_parameters_never_change_counts(
    transactions, candidates, branching, leaf_capacity
):
    """Branching factor and leaf capacity are performance knobs only."""
    tree = HashTree(
        candidates, branching=branching, leaf_capacity=leaf_capacity
    )
    assert tree.count_all(transactions) == oracle(transactions, candidates)


@settings(max_examples=40, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_counts_bounded_by_database_size(transactions, candidates):
    counts = count("hashtree", transactions, candidates)
    assert all(0 <= count <= len(transactions) for count in counts.values())


@settings(max_examples=40, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_count_is_antitone_in_candidate_size(transactions, candidates):
    """A candidate can never out-count one of its own subsets."""
    counts = count("brute", transactions, candidates)
    by_items = dict(counts)
    for candidate, support in counts.items():
        for drop in range(len(candidate)):
            subset = candidate[:drop] + candidate[drop + 1:]
            if subset in by_items:
                assert by_items[subset] >= support
