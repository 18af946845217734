"""Generalized association mining over a taxonomy (Srikant–Agrawal 1995).

The negative-rule algorithm's first step is "find all the generalized large
itemsets in the data (i.e., itemsets at all levels in the taxonomy whose
support is greater than the user specified minimum support)", citing the
*Basic*, *Cumulate* and *EstMerge* algorithms. All three are implemented
here behind one entry point, :func:`mine_generalized`.

Generalized support: a transaction (of leaf items) supports an itemset when
the transaction *extended with all ancestors* of its items contains the
itemset. Categories therefore accumulate the support of their descendants.

Algorithms
----------
Basic
    Extend every transaction with all ancestors and run plain level-wise
    Apriori over the extended rows. Itemsets containing both an item and
    its ancestor are kept (they are trivially as frequent as the item) —
    exactly as in the original paper.

Cumulate
    Three optimizations over Basic, none of which changes which
    *interesting* itemsets are found:

    1. pre-computed ancestor table and per-pass filtering of the extension
       to items that can occur in a candidate;
    2. pruning of any candidate that contains both an item and one of its
       ancestors (their support equals the support without the ancestor, so
       they carry no information) — applied from C2 on, which by downward
       closure keeps them out of all later levels;
    3. items occurring in no candidate are dropped from rows before
       matching.

Est_merge (``"estmerge"``)
    Sampling-guided counting. Each new candidate's support is first
    estimated on a random sample; estimated-large candidates are counted
    against the full database in the current pass, while the doubtful
    rest are *deferred and merged* into the following pass. Candidates
    are always generated from confirmed large itemsets; when a deferred
    candidate proves large after all, the next size is re-queued so its
    extensions are generated and counted in a catch-up pass (the
    "merge"). Every candidate is counted against the database exactly
    once and the final output equals Cumulate's (property-tested) — the
    sample only shifts *when* each candidate is counted. This follows
    the estimate-then-merge structure of the original; its remaining-time
    heuristics for choosing what to defer are simplified to a single
    estimated-support threshold.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .._util import check_fraction
from ..data.database import TransactionDatabase
from ..data.sampling import sample_database
from ..errors import ConfigError
from ..itemset import Itemset
from ..obs import api as obs
from ..taxonomy.tree import Taxonomy
from .apriori import apriori_gen
from .itemset_index import LargeItemsetIndex

ALGORITHMS = ("basic", "cumulate", "estmerge")


def _resolve_session(session, database, taxonomy):
    """The caller's session, or a serial default-engine one.

    Imported lazily: :mod:`repro.core.session` sits above the mining
    package in the import graph.
    """
    if session is not None:
        return session
    from ..core.session import MiningSession

    return MiningSession(database, taxonomy)


def extend_database(
    database: TransactionDatabase, taxonomy: Taxonomy
) -> TransactionDatabase:
    """Materialize the ancestor-extended version of *database*.

    Useful for running non-taxonomy miners (e.g. Partition) in the
    generalized setting. Costs one pass over the data.
    """
    return TransactionDatabase(
        taxonomy.ancestor_closure(row) for row in database.scan()
    )


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
    algorithm: str = "cumulate",
    session=None,
    max_size: int | None = None,
    sample_fraction: float = 0.1,
    estimation_slack: float = 0.9,
    rng: random.Random | None = None,
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
    algorithm:
        ``"basic"``, ``"cumulate"`` (default) or ``"estmerge"``.
    session:
        The :class:`~repro.core.session.MiningSession` every counting
        pass goes through (engine, cache and parallel policy); ``None``
        uses a serial default-engine session over *database*.
    max_size:
        Optional cap on itemset size.
    sample_fraction, estimation_slack, rng:
        EstMerge tuning: sample size as a fraction of |D|, and the
        fraction of ``minsup`` above which a sampled estimate counts as
        "probably large". Ignored by the other algorithms.

    Returns
    -------
    LargeItemsetIndex
        All generalized large itemsets with fractional supports. With
        ``"basic"``, itemsets mixing an item and its ancestor are included
        (as in the original Basic); the other algorithms prune them.
    """
    check_fraction(minsup, "minsup")
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
        )
    session = _resolve_session(session, database, taxonomy)
    if algorithm == "estmerge":
        return _mine_estmerge(
            database,
            taxonomy,
            minsup,
            session,
            max_size,
            sample_fraction,
            estimation_slack,
            rng,
        )
    prune_lineage = algorithm == "cumulate"
    restrict = algorithm == "cumulate"
    return _mine_levelwise(
        database,
        taxonomy,
        minsup,
        session,
        max_size,
        prune_lineage,
        restrict,
    )


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


def _prune_lineage_candidates(
    candidates: list[Itemset], taxonomy: Taxonomy
) -> list[Itemset]:
    return [
        candidate
        for candidate in candidates
        if not contains_item_and_ancestor(candidate, taxonomy)
    ]


def iter_generalized_levels(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    minsup: float,
    session=None,
    max_size: int | None = None,
    prune_lineage: bool = True,
    restrict: bool = True,
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
            if prune_lineage:
                candidates = _prune_lineage_candidates(
                    candidates, taxonomy
                )
            span.annotate("size", size)
            span.annotate("candidates", len(candidates))
        if not candidates:
            return
        counts = session.count(
            candidates,
            transactions=database,
            taxonomy=taxonomy,
            restrict_to_candidate_items=restrict,
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


def _mine_levelwise(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    minsup: float,
    session,
    max_size: int | None,
    prune_lineage: bool,
    restrict: bool,
) -> LargeItemsetIndex:
    """Shared level-wise loop for Basic and Cumulate."""
    index = LargeItemsetIndex()
    for level in iter_generalized_levels(
        database,
        taxonomy,
        minsup,
        session=session,
        max_size=max_size,
        prune_lineage=prune_lineage,
        restrict=restrict,
    ):
        for candidate, support in level.items():
            index.add(candidate, support)
    return index


def _mine_estmerge(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    minsup: float,
    session,
    max_size: int | None,
    sample_fraction: float,
    estimation_slack: float,
    rng: random.Random | None,
) -> LargeItemsetIndex:
    """Sampling-guided variant; see module docstring for the contract.

    Work-queue formulation. Candidates are always generated from
    *confirmed* large itemsets (so every candidate's subsets are already
    known large). A new candidate's support is first estimated on the
    sample; estimated-large candidates join the current counting pass,
    estimated-small ones are *deferred* and merged into the following
    pass. When a deferred candidate proves large after all, the sizes
    above it are re-queued for generation so its extensions are produced
    (the "merge" catch-up) — already-counted candidates are skipped, so
    each candidate is counted against the database exactly once.
    """
    if not 0.0 < estimation_slack <= 1.0:
        raise ConfigError(
            f"estimation_slack must be in (0, 1], got {estimation_slack}"
        )
    total = len(database)
    min_count = minsup * total
    index = LargeItemsetIndex()

    sample = sample_database(database, sample_fraction, rng=rng)
    sample_threshold = estimation_slack * minsup * len(sample)

    large_singles = _large_singles(database, taxonomy, min_count, session)
    for single, count in large_singles.items():
        index.add(single, count / total)

    queued: set[Itemset] = set()  # estimated or counted at least once
    deferred: list[Itemset] = []  # estimated-small, awaiting exact counts
    to_generate: set[int] = {2}
    while True:
        fresh: list[Itemset] = []
        with obs.span("gen.candidates") as span:
            for size in sorted(to_generate):
                if max_size is not None and size > max_size:
                    continue
                previous = sorted(index.of_size(size - 1))
                if not previous:
                    continue
                for candidate in _prune_lineage_candidates(
                    apriori_gen(previous), taxonomy
                ):
                    if candidate not in queued:
                        queued.add(candidate)
                        fresh.append(candidate)
            span.annotate("candidates", len(fresh))
        to_generate = set()

        if not fresh and not deferred:
            break

        if fresh:
            estimates = session.count(
                fresh,
                transactions=sample,
                taxonomy=taxonomy,
            )
            probably_large = [
                candidate
                for candidate in fresh
                if estimates[candidate] >= sample_threshold
            ]
            doubtful = [
                candidate
                for candidate in fresh
                if estimates[candidate] < sample_threshold
            ]
        else:
            probably_large, doubtful = [], []

        to_count = probably_large + deferred
        deferred = doubtful
        if not to_count:
            if not deferred:
                break
            continue
        counts = session.count(
            to_count,
            transactions=database,
            taxonomy=taxonomy,
            restrict_to_candidate_items=True,
        )
        for candidate, count in counts.items():
            if count >= min_count:
                index.add(candidate, count / total)
                # Newly confirmed itemsets may enable extensions that
                # were never generated; re-queue the next size.
                to_generate.add(len(candidate) + 1)
    return index
