"""The Partition algorithm (Savasere, Omiecinski & Navathe, VLDB 1995).

Reference [11] of the paper — the authors' own two-pass frequent-itemset
miner, included here as an alternative substrate and ablation baseline.

Phase 1 splits the database into ``n`` partitions sized to fit in memory
and mines each partition *locally* with vertical tid-lists (an itemset's
tid-list is the intersection of its generators' tid-lists, so local support
counting needs no further data passes). Any itemset that is globally large
must be locally large in at least one partition, so the union of local
large itemsets is a superset of the answer.

Phase 2 counts that union against the whole database once and keeps the
itemsets meeting global minimum support. Exactly two passes are made over
the data, independent of the longest itemset.
"""

from __future__ import annotations

from .._util import check_fraction, check_positive
from ..data.database import TransactionDatabase
from ..itemset import Itemset
from .apriori import _default_session, apriori_gen
from .itemset_index import LargeItemsetIndex

TidList = tuple[int, ...]


def _local_large(
    rows: list[Itemset], minsup: float, max_size: int | None
) -> set[Itemset]:
    """Mine one partition bottom-up with tid-list intersections."""
    min_count = minsup * len(rows)
    tidlists: dict[Itemset, list[int]] = {}
    for tid, row in enumerate(rows):
        for item in row:
            tidlists.setdefault((item,), []).append(tid)

    local: set[Itemset] = set()
    current: dict[Itemset, list[int]] = {
        single: tids
        for single, tids in tidlists.items()
        if len(tids) >= min_count
    }
    local.update(current)

    size = 2
    while current and (max_size is None or size <= max_size):
        candidates = apriori_gen(list(current))
        following: dict[Itemset, list[int]] = {}
        for candidate in candidates:
            # Intersect the tid-lists of the two generating subsets; both
            # are guaranteed locally large and therefore present.
            left = current[candidate[:-1]]
            right = current[candidate[:-2] + candidate[-1:]]
            shared = _intersect(left, right)
            if len(shared) >= min_count:
                following[candidate] = shared
        local.update(following)
        current = following
        size += 1
    return local


def _intersect(left: list[int], right: list[int]) -> list[int]:
    """Intersect two ascending tid-lists with a linear merge."""
    out: list[int] = []
    i = j = 0
    len_left, len_right = len(left), len(right)
    while i < len_left and j < len_right:
        a, b = left[i], right[j]
        if a < b:
            i += 1
        elif b < a:
            j += 1
        else:
            out.append(a)
            i += 1
            j += 1
    return out


def find_large_itemsets_partition(
    database: TransactionDatabase,
    minsup: float,
    partitions: int = 4,
    session=None,
    max_size: int | None = None,
) -> LargeItemsetIndex:
    """Mine large itemsets with the two-pass Partition algorithm.

    Parameters
    ----------
    database:
        Transactions over plain items. For generalized mining, extend the
        database first with
        :func:`repro.mining.generalized.extend_database`.
    minsup:
        Fractional minimum support in ``(0, 1]``.
    partitions:
        Number of partitions; clamped to |D| so each partition is
        non-empty.
    session:
        :class:`~repro.core.session.MiningSession` used for the global
        (phase 2) counting pass; ``None`` uses a serial default-engine
        session.
    max_size:
        Optional cap on itemset size.

    Returns
    -------
    LargeItemsetIndex
        Identical content to :func:`repro.mining.apriori.find_large_itemsets`
        (property-tested equivalence).
    """
    check_fraction(minsup, "minsup")
    check_positive(partitions, "partitions")
    if session is None:
        session = _default_session(database)
    total = len(database)
    parts = min(partitions, total)

    # Phase 1: one pass, mining each partition as its rows stream in.
    global_candidates: set[Itemset] = set()
    bounds = [round(part * total / parts) for part in range(parts + 1)]
    rows_iter = database.scan()
    buffer: list[Itemset] = []
    boundary_index = 1
    for position, row in enumerate(rows_iter, start=1):
        buffer.append(row)
        if position == bounds[boundary_index]:
            global_candidates.update(_local_large(buffer, minsup, max_size))
            buffer = []
            boundary_index += 1
    if buffer:  # defensive: rounding never leaves a tail, but be safe
        global_candidates.update(_local_large(buffer, minsup, max_size))

    # Phase 2: one pass counting the merged candidate set globally.
    index = LargeItemsetIndex()
    if not global_candidates:
        return index
    min_count = minsup * total
    counts = session.count(
        sorted(global_candidates), transactions=database, taxonomy=None
    )
    for candidate, count in counts.items():
        if count >= min_count:
            index.add(candidate, count / total)
    return index
