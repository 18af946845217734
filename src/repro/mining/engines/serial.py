"""The serial row-scanning engines: bitmap, hashtree, brute.

All three share the same pass shape — read the rows once, optionally
extend each with taxonomy ancestors, match candidates — and differ only
in the matching data structure. :class:`RowScanEngine` holds the shared
shape; each subclass supplies ``_count_rows``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection, Iterable, Iterator

from ...itemset import Itemset
from ...taxonomy.tree import Taxonomy
from ..hash_tree import HashTree
from .base import Capabilities, CountingEngine, EngineState, register_engine


def extended_rows(
    transactions: Iterable[Itemset],
    taxonomy: Taxonomy,
    keep: frozenset[int] | None,
) -> Iterator[Itemset]:
    """Yield transactions extended with ancestors (optionally filtered).

    *keep*, when given, restricts the extended transaction to items that
    can appear in some candidate — Cumulate's "filter the ancestors" and
    "drop useless items" optimizations rolled into one.
    """
    for row in transactions:
        extended = taxonomy.ancestor_closure(row)
        if keep is not None:
            extended = extended & keep
        yield tuple(sorted(extended))


class RowScanEngine(CountingEngine):
    """Shared pass shape of the serial row-scanning engines."""

    capabilities = Capabilities()

    def count(
        self,
        state: EngineState,
        candidates: Collection[Itemset],
        *,
        restrict_to_candidate_items: bool = False,
        cache_stats=None,
        parallel_stats=None,
    ) -> dict[Itemset, int]:
        rows: Iterable[Itemset] = state.rows()
        if state.taxonomy is not None:
            keep: frozenset[int] | None = None
            if restrict_to_candidate_items:
                keep = frozenset(
                    item for candidate in candidates for item in candidate
                )
            rows = extended_rows(rows, state.taxonomy, keep)
        return self._count_rows(rows, candidates)

    @staticmethod
    def _count_rows(
        transactions: Iterable[Itemset], candidates: Collection[Itemset]
    ) -> dict[Itemset, int]:
        raise NotImplementedError


@register_engine("bitmap")
class BitmapEngine(RowScanEngine):
    """Vertical counting with per-item transaction bitsets, rebuilt per pass.

    Builds ``mask[item]`` — an arbitrary-precision integer whose bit
    ``t`` is set when transaction ``t`` contains the item — restricted
    to items that occur in some candidate, then intersects masks per
    candidate and popcounts. By far the fastest row-scanning engine,
    and the default ``cached`` engine keeps the same bitsets across passes instead.
    The 1998 paper predates the vertical-layout literature, so both are
    an engineering substitution (documented in DESIGN.md) — the
    paper-faithful hash tree remains available and equivalent.
    """

    @staticmethod
    def _count_rows(
        transactions: Iterable[Itemset], candidates: Collection[Itemset]
    ) -> dict[Itemset, int]:
        if not candidates:
            return {}
        wanted = set()
        for candidate in candidates:
            wanted.update(candidate)
        masks: dict[int, int] = {}
        get_mask = masks.get
        for position, row in enumerate(transactions):
            bit = 1 << position
            for item in row:
                if item in wanted:
                    masks[item] = get_mask(item, 0) | bit
        counts: dict[Itemset, int] = {}
        for candidate in candidates:
            # Micro-fast path: a candidate whose items never occurred in
            # this pass needs no mask intersection (and no popcount).
            mask = get_mask(candidate[0])
            if mask is None:
                counts[candidate] = 0
                continue
            for item in candidate[1:]:
                other = get_mask(item)
                if other is None:
                    mask = 0
                    break
                mask &= other
                if not mask:
                    break
            counts[candidate] = mask.bit_count()
        return counts


@register_engine("hashtree")
class HashTreeEngine(RowScanEngine):
    """The classic Apriori hash tree of paper Section 2.4.

    Candidates are grouped by size and one tree is built per size (see
    :mod:`repro.mining.hash_tree`).
    """

    @staticmethod
    def _count_rows(
        transactions: Iterable[Itemset], candidates: Collection[Itemset]
    ) -> dict[Itemset, int]:
        if not candidates:
            return {}
        by_size: dict[int, list[Itemset]] = defaultdict(list)
        for candidate in candidates:
            by_size[len(candidate)].append(candidate)
        trees = {
            size: HashTree(members) for size, members in by_size.items()
        }
        for row in transactions:
            for tree in trees.values():
                tree.add_transaction(row)
        counts: dict[Itemset, int] = {}
        for tree in trees.values():
            counts.update(tree.counts())
        return counts


@register_engine("brute")
class BruteEngine(RowScanEngine):
    """Every candidate against every transaction (the verification oracle).

    The engine all others are property-tested against.
    """

    @staticmethod
    def _count_rows(
        transactions: Iterable[Itemset], candidates: Collection[Itemset]
    ) -> dict[Itemset, int]:
        if not candidates:
            return {}
        counts = dict.fromkeys(candidates, 0)
        candidate_list = list(counts)
        for row in transactions:
            row_set = set(row)
            for candidate in candidate_list:
                if all(item in row_set for item in candidate):
                    counts[candidate] += 1
        return counts
