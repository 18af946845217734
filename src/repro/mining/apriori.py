"""Apriori frequent-itemset mining (Agrawal & Srikant, VLDB 1994).

Two public pieces:

* :func:`apriori_gen` — the candidate join + prune step. It is reused
  verbatim by the negative rule generator (paper Figure 4 calls
  ``apriori-gen`` to grow consequents).
* :func:`find_large_itemsets` — the level-wise miner: one pass of the data
  per candidate size, counting through a pluggable engine.

Supports are returned as fractions of |D| inside a
:class:`~repro.mining.itemset_index.LargeItemsetIndex`.
"""

from __future__ import annotations

from collections.abc import Collection

from .._util import check_fraction
from ..data.database import TransactionDatabase
from ..itemset import Itemset
from .itemset_index import LargeItemsetIndex


def _default_session(database):
    """A serial default-engine session over *database*.

    Imported lazily: :mod:`repro.core.session` sits above the mining
    package in the import graph.
    """
    from ..core.session import MiningSession

    return MiningSession(database)


def apriori_gen(large_prev: Collection[Itemset]) -> list[Itemset]:
    """Generate size-``k`` candidates from the size-``k-1`` large itemsets.

    The join step merges two itemsets sharing their first ``k-2`` items;
    the prune step discards any candidate with a ``k-1`` subset outside
    *large_prev* (downward closure).

    >>> apriori_gen([(1, 2), (1, 3), (2, 3)])
    [(1, 2, 3)]
    >>> apriori_gen([(1, 2), (1, 3)])  # (2, 3) missing -> pruned
    []
    """
    prev = set(large_prev)
    if not prev:
        return []
    size = len(next(iter(prev)))
    ordered = sorted(prev)
    candidates: list[Itemset] = []
    for i, first in enumerate(ordered):
        prefix = first[:-1]
        for second in ordered[i + 1:]:
            if second[:-1] != prefix:
                break  # sorted order: no further itemset shares the prefix
            joined = first + (second[-1],)
            if _all_subsets_large(joined, prev, size):
                candidates.append(joined)
    return candidates


def _all_subsets_large(
    candidate: Itemset, prev: set[Itemset], size: int
) -> bool:
    """Prune step: every size-``k-1`` subset must be large."""
    # The two subsets dropping the last two positions are the join parents
    # and are large by construction; check the remaining ones.
    for drop in range(size - 1):
        subset = candidate[:drop] + candidate[drop + 1:]
        if subset not in prev:
            return False
    return True


def find_large_itemsets(
    database: TransactionDatabase,
    minsup: float,
    session=None,
    max_size: int | None = None,
) -> LargeItemsetIndex:
    """Mine all large itemsets of *database* at fractional support *minsup*.

    Parameters
    ----------
    database:
        Transactions over plain items (no taxonomy semantics; see
        :func:`repro.mining.generalized.mine_generalized` for that).
    minsup:
        Fractional minimum support in ``(0, 1]``.
    session:
        The :class:`~repro.core.session.MiningSession` to count through
        (engine and cache policy); ``None`` uses a default-engine
        session.
    max_size:
        Optional cap on itemset size (``None`` mines to exhaustion).

    Returns
    -------
    LargeItemsetIndex
        Every large itemset with its fractional support.
    """
    check_fraction(minsup, "minsup")
    if session is None:
        session = _default_session(database)
    total = len(database)
    min_count = minsup * total

    index = LargeItemsetIndex()
    item_counts = session.count(
        [(item,) for item in database.items],
        transactions=database,
        taxonomy=None,
    )
    current: list[Itemset] = []
    for single, count in item_counts.items():
        if count >= min_count:
            index.add(single, count / total)
            current.append(single)

    size = 2
    while current and (max_size is None or size <= max_size):
        candidates = apriori_gen(current)
        if not candidates:
            break
        counts = session.count(
            candidates, transactions=database, taxonomy=None
        )
        current = []
        for candidate, count in counts.items():
            if count >= min_count:
                index.add(candidate, count / total)
                current.append(candidate)
        size += 1
    return index
