"""Generalized association mining over a taxonomy (Srikant–Agrawal 1995).

The negative-rule algorithm's first step is "find all the generalized large
itemsets in the data (i.e., itemsets at all levels in the taxonomy whose
support is greater than the user specified minimum support)", citing
Srikant and Agrawal's generalized miners. Any one of them gives the paper's
step 1; this module implements *Cumulate*, behind one entry point,
:func:`mine_generalized`.

Generalized support: a transaction (of leaf items) supports an itemset when
the transaction *extended with all ancestors* of its items contains the
itemset. Categories therefore accumulate the support of their descendants.

Cumulate's optimizations over extending every row with all ancestors and
running plain Apriori, none of which changes which *interesting* itemsets
are found:

1. pre-computed ancestor table and per-pass filtering of the extension
   to items that can occur in a candidate;
2. pruning of any candidate that contains both an item and one of its
   ancestors (their support equals the support without the ancestor, so
   they carry no information) — applied from C2 on, which by downward
   closure keeps them out of all later levels;
3. items occurring in no candidate are dropped from rows before
   matching.
"""

from __future__ import annotations

from collections.abc import Iterator

from .._util import check_fraction
from ..data.database import TransactionDatabase
from ..itemset import Itemset
from ..obs import api as obs
from ..taxonomy.tree import Taxonomy
from .apriori import apriori_gen
from .itemset_index import LargeItemsetIndex


def _resolve_session(session, database, taxonomy):
    """The caller's session, or a serial default-engine one.

    Imported lazily: :mod:`repro.core.session` sits above the mining
    package in the import graph.
    """
    if session is not None:
        return session
    from ..core.session import MiningSession

    return MiningSession(database, taxonomy)


def contains_item_and_ancestor(items: Itemset, taxonomy: Taxonomy) -> bool:
    """True when some member of *items* is an ancestor of another member."""
    members = set(items)
    for item in items:
        if members.intersection(taxonomy.ancestors(item)):
            return True
    return False


def mine_generalized(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    minsup: float,
    session=None,
    max_size: int | None = None,
) -> LargeItemsetIndex:
    """Mine all generalized large itemsets of *database* under *taxonomy*.

    Parameters
    ----------
    database:
        Transactions over taxonomy *leaves*.
    taxonomy:
        The item taxonomy; every transaction item must be a node in it.
    minsup:
        Fractional minimum support in ``(0, 1]``.
    session:
        The :class:`~repro.core.session.MiningSession` every counting
        pass goes through (engine and cache policy); ``None`` uses a
        default-engine session over *database*.
    max_size:
        Optional cap on itemset size.

    Returns
    -------
    LargeItemsetIndex
        All generalized large itemsets with fractional supports, none
        holding an item together with one of its ancestors.
    """
    index = LargeItemsetIndex()
    for level in iter_generalized_levels(
        database, taxonomy, minsup, session=session, max_size=max_size
    ):
        for candidate, support in level.items():
            index.add(candidate, support)
    return index


def _large_singles(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    min_count: float,
    session,
) -> dict[Itemset, int]:
    """Pass 1: count every taxonomy node as a 1-itemset, keep the large."""
    singles = [(node,) for node in taxonomy.nodes]
    counts = session.count(
        singles, transactions=database, taxonomy=taxonomy
    )
    return {
        single: count
        for single, count in counts.items()
        if count >= min_count
    }


def iter_generalized_levels(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    minsup: float,
    session=None,
    max_size: int | None = None,
) -> "Iterator[dict[Itemset, float]]":
    """Yield the generalized large itemsets one level at a time.

    Each yielded mapping holds the size-``k`` large itemsets with their
    fractional supports; producing it costs exactly one pass over the
    data. The Naive negative miner consumes this generator so it can
    interleave its own negative-candidate counting pass after every level
    (two passes per iteration, as in Section 2.2.1). All counting goes
    through *session* (``None`` = a serial default-engine session).
    """
    check_fraction(minsup, "minsup")
    session = _resolve_session(session, database, taxonomy)
    total = len(database)
    min_count = minsup * total

    large_singles = _large_singles(database, taxonomy, min_count, session)
    level = {
        single: count / total for single, count in large_singles.items()
    }
    yield level

    current = list(level)
    size = 2
    while current and (max_size is None or size <= max_size):
        with obs.span("gen.candidates") as span:
            candidates = apriori_gen(current)
            if size == 2:
                # Downward closure keeps the pairs dropped here out of
                # every later level, so only C2 needs the filter.
                candidates = [
                    candidate
                    for candidate in candidates
                    if not contains_item_and_ancestor(candidate, taxonomy)
                ]
            span.annotate("size", size)
            span.annotate("candidates", len(candidates))
        if not candidates:
            return
        counts = session.count(
            candidates,
            transactions=database,
            taxonomy=taxonomy,
            restrict_to_candidate_items=True,
        )
        level = {
            candidate: count / total
            for candidate, count in counts.items()
            if count >= min_count
        }
        if not level:
            return
        yield level
        current = list(level)
        size += 1
