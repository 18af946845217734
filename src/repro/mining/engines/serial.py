"""The engines that read the rows once per pass: bitmap, hashtree, brute.

``bitmap`` builds a one-shot :class:`~repro.mining.vertical.VerticalIndex`
per pass. ``hashtree`` and ``brute`` share the row-matching pass shape —
extend each row with taxonomy ancestors, match candidates — and differ
only in the matching data structure. :class:`RowScanEngine` holds that
shape; each subclass supplies ``_count_rows``.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection, Iterable, Iterator

from ...itemset import Itemset
from ...obs.registry import MetricsRegistry
from ...taxonomy.tree import Taxonomy
from ..hash_tree import HashTree
from ..vertical import VerticalIndex
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
    """Shared pass shape of the row-matching engines (hashtree, brute)."""

    capabilities = Capabilities()

    def count(
        self,
        state: EngineState,
        candidates: Collection[Itemset],
        *,
        restrict_to_candidate_items: bool = False,
        metrics: MetricsRegistry,
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
class BitmapEngine(CountingEngine):
    """Vertical counting with per-item transaction bitsets, rebuilt per pass.

    Each pass streams the rows once into a one-shot
    :class:`~repro.mining.vertical.VerticalIndex` — per item, an
    arbitrary-precision integer whose bit ``t`` is set when transaction
    ``t`` contains the item — and counts through it: categories are the
    OR of their descendants' bitsets, so rows are never extended with
    ancestors and ``restrict_to_candidate_items`` is moot. The default
    ``cached`` engine keeps the same index across passes instead. The
    1998 paper predates the vertical-layout literature, so both are an
    engineering substitution (documented in DESIGN.md) — the
    paper-faithful hash tree remains available and equivalent.
    """

    def count(
        self,
        state: EngineState,
        candidates: Collection[Itemset],
        *,
        restrict_to_candidate_items: bool = False,
        metrics: MetricsRegistry,
    ) -> dict[Itemset, int]:
        index = VerticalIndex.from_rows(state.rows())
        return index.count(candidates, taxonomy=state.taxonomy)


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
