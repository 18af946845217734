"""Property-based test: generalized mining against brute force.

The oracle extends every row with the ancestors of its items, enumerates
every combination of taxonomy nodes up to size 4, drops those holding an
item together with one of its ancestors, and keeps the combinations that
reach ``MinSup × |D|`` extended rows — the definition of the generalized
large itemsets, with no candidate generation or counting engine involved.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.mining.engines import DEFAULT_ENGINE
from repro.mining.generalized import mine_generalized
from repro.taxonomy.builders import taxonomy_from_parents

MAX_SIZE = 4


@st.composite
def generalized_worlds(draw):
    """A random forest over 3-10 nodes and 1-30 rows of its leaves.

    Node ``k`` is a root or the child of an earlier node, so every
    shape — flat, chains, wide fans, several trees — can be drawn.
    """
    size = draw(st.integers(min_value=3, max_value=10))
    parents = {}
    for node in range(1, size):
        parent = draw(st.none() | st.integers(min_value=0, max_value=node - 1))
        if parent is not None:
            parents[node] = parent
    taxonomy = taxonomy_from_parents(parents, extra_roots=range(size))
    leaves = sorted(taxonomy.leaves)
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(leaves), min_size=1, max_size=4),
            min_size=1,
            max_size=30,
        )
    )
    return taxonomy, rows


def exhaustive_generalized(taxonomy, rows, minsup):
    """Oracle: every lineage-free node set up to ``MAX_SIZE`` by brute
    force over the ancestor-extended rows."""
    extended = [taxonomy.ancestor_closure(row) for row in rows]
    min_count = minsup * len(rows)
    found = {}
    for size in range(1, MAX_SIZE + 1):
        for candidate in combinations(sorted(taxonomy.nodes), size):
            if any(
                other in taxonomy.ancestors(item)
                for item in candidate
                for other in candidate
            ):
                continue
            count = sum(1 for row in extended if row.issuperset(candidate))
            if count >= min_count:
                found[candidate] = count / len(rows)
    return found


@pytest.mark.parametrize("engine", [DEFAULT_ENGINE, "brute"])
@settings(max_examples=60, deadline=None)
@given(generalized_worlds(), st.sampled_from([0.1, 0.25, 0.5]))
def test_cumulate_matches_exhaustive_oracle(engine, world, minsup):
    taxonomy, rows = world
    database = TransactionDatabase(rows)
    index = mine_generalized(
        database,
        taxonomy,
        minsup,
        session=MiningSession(database, taxonomy, engine),
        max_size=MAX_SIZE,
    )
    assert dict(index.items()) == exhaustive_generalized(
        taxonomy, rows, minsup
    )
