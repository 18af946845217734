"""Property-based tests: every registered engine agrees with brute force.

The registry is the source of truth: the parametrization enumerates
:func:`repro.mining.engines.engine_names`, so a newly registered engine
is covered by these bit-identity checks automatically, with and without
a taxonomy. ``parallel-shm`` runs against one persistent module-level
two-worker engine: every example rebinds a different database, so the
publish / re-publish / pool-reconfigure cycle is exercised hundreds of
times while the worker processes themselves live for the whole module.
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


_SHM_ENGINE = None


def _shm_engine():
    """One persistent two-worker shm engine shared by every example."""
    global _SHM_ENGINE
    if _SHM_ENGINE is None:
        from repro.mining.engines.parallel import ParallelShmEngine
        from repro.parallel.pool import PoolConfig

        _SHM_ENGINE = ParallelShmEngine(
            n_jobs=2,
            pool_config=PoolConfig(n_jobs=2, retries=1, backoff=0.0),
        )
    return _SHM_ENGINE


@pytest.fixture(scope="module", autouse=True)
def _close_shm_engine():
    """Tear the persistent engine down so its segment and workers do
    not outlive this module (later tests assert no live segments)."""
    yield
    global _SHM_ENGINE
    if _SHM_ENGINE is not None:
        _SHM_ENGINE.close()
        _SHM_ENGINE = None


def session_for(spec, transactions, taxonomy=None):
    """A session over *spec*; ``parallel-shm`` shares the module engine."""
    if spec == "parallel-shm":
        return MiningSession(transactions, taxonomy, _shm_engine())
    return MiningSession(transactions, taxonomy, spec)


@pytest.mark.parametrize("spec", engine_names())
@settings(max_examples=25, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_engine_matches_brute(spec, transactions, candidates):
    expected = MiningSession(transactions, engine="brute").count(candidates)
    assert session_for(spec, transactions).count(candidates) == expected


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
    counted = session_for(spec, transactions, taxonomy).count(candidates)
    assert counted == expected


@pytest.mark.parametrize("spec", engine_names())
@settings(max_examples=15, deadline=None)
@given(transactions_strategy, candidates_strategy)
def test_restriction_never_changes_counts(spec, transactions, candidates):
    plain = session_for(spec, transactions).count(candidates)
    restricted = session_for(spec, transactions).count(
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
#: vertical cache, the segmented mmap matrix and the published shm
#: matrix (re-published on change).
INCREMENTAL_SPECS = ("cached", "mmap", "parallel-shm")


def incremental_session(spec, database, segment_rows):
    if spec == "parallel-shm":
        return MiningSession(database, engine=_shm_engine())
    return MiningSession(database, engine=spec, segment_rows=segment_rows)


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
