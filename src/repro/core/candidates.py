"""Candidate negative itemset generation (paper Section 2.1.1).

For every large itemset, candidates are formed by swapping items for their
taxonomy relatives wherever an expected support can be computed:

* **children replacements** — any non-empty subset of positions replaced by
  immediate children (all positions = Case 1, a proper subset = Case 2);
* **sibling replacements** — a *proper* non-empty subset of positions
  replaced by siblings (Case 3; the paper's exclusion list rules out
  candidates consisting solely of siblings).

Exclusions (Section 2.1.1): ancestors never participate, and children and
sibling replacements are never mixed within one candidate. Further
admission rules:

* every 1-item subset of a candidate must itself be a large itemset
  ("otherwise no rule will be produced for this itemset");
* the candidate must not already be a (generalized) large itemset — those
  are positive associations, as with {Bryers, Evian} in the paper's
  example;
* no item of a candidate may be an ancestor of another (such itemsets are
  degenerate: their support equals the support without the ancestor);
* the expected support must reach ``MinSup × MinRI`` — a smaller
  expectation can never produce a rule with ``RI >= MinRI``;
* when the same candidate arises from several large itemsets, "the largest
  value of the expected support is chosen" — enforced via the hash-table
  dedup of Section 2.4.

The enumeration enforces the 1-item-subset rule by drawing replacements
only from large 1-itemsets, and the ancestor and threshold rules while it
descends, before a candidate is built (see :meth:`_Kernel.leaves`).

The enumeration is one level-wise NumPy kernel. It works in the dense
ids and packed int64 keys of the index's key table
(:meth:`~repro.mining.itemset_index.LargeItemsetIndex.table`): ids
ascend with the items, so a candidate's sorted ids are its canonical
tuple, and the table's rows of each size are the sorted sources and the
sentinels of the dedup below. Sources are grouped by size. For
each case and replacement count, all (source, position subset) rows of a
group are expanded as one batch, one replaced position per depth, over
replacement pools padded to a common width. The cuts multiply in the
order a depth-first walk would, and conflicts are tested on closure
masks held as uint64 words.

Each leaf has a *rank*: its place in the depth-first visit order
(source, case, replacement count, position subset, pool indices). Leaves
are reduced to one row per itemset that holds the largest expectation,
ties going to the lowest rank, and the itemset's lowest rank. Large
itemsets join that reduction as sentinel rows with an infinite
expectation, so a leaf that reaches one is dropped by the same
comparison. A depth-first walk keeping the best expectation per itemset
in one dict would replace an entry only for a strictly larger
expectation, and would insert each itemset when it first reached it, so
ordering the kept itemsets by lowest rank gives exactly that dict's
contents and order, which is what this function returns.

The miners take the kept itemsets as :class:`ItemsetColumns`
(:func:`candidate_columns`) and build :class:`NegativeCandidate` records
only for the result.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain, combinations, repeat

import numpy as np

from .._util import check_fraction
from ..itemset import Itemset
from ..measures.ri import deviation_threshold
from ..mining.itemset_index import LargeItemsetIndex
from ..mining.keytable import (
    PAD,
    KeyTable,
    distinct_values,
    key_order,
    pack,
    unpack,
)
from ..obs import api as obs
from ..taxonomy.tree import Taxonomy

CASE_CHILDREN = "children"
CASE_SIBLINGS = "siblings"
#: The cases in visit order; the kernel refers to a case by its index.
CASES = (CASE_CHILDREN, CASE_SIBLINGS)

#: Leaves expanded per chunk, about. Sources are expanded in chunks, in
#: source order, and each chunk's leaves are reduced to distinct itemsets
#: before the next chunk is expanded, which bounds the kernel's working
#: memory.
CHUNK_LEAVES = 1 << 14

#: ``_BIT[k]`` is the uint64 word with bit *k* set.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
_ZERO = np.uint64(0)


@dataclass(frozen=True, slots=True)
class NegativeCandidate:
    """A candidate negative itemset awaiting a counting pass.

    Attributes
    ----------
    items:
        The canonical candidate itemset.
    expected_support:
        Fractional support predicted by the taxonomy (maximum over all
        generation paths).
    source:
        The large itemset the winning expectation was derived from.
    case:
        ``"children"`` (Cases 1–2) or ``"siblings"`` (Case 3).
    """

    items: Itemset
    expected_support: float
    source: Itemset
    case: str


class _Relatives:
    """Large-filtered children/sibling ratio pools and related closures
    of the items one call can meet.

    Item ``item_at[i]`` has the dense id ``i`` of the index's key table.

    A pool holds ``(id, ratio)`` for each large relative of an item, where
    ratio is ``sup(relative) / sup(item)`` — the expectation factor
    contributed by replacing the item with the relative. Pools are sorted
    by descending ratio (equal ratios keep the taxonomy's order), so a
    pool's first ratio bounds the rest and the entries that pass a
    threshold are a prefix.
    """

    __slots__ = ("_taxonomy", "_index", "id_of", "item_at")

    def __init__(
        self,
        taxonomy: Taxonomy,
        index: LargeItemsetIndex,
        item_at: list[int],
    ) -> None:
        self._taxonomy = taxonomy
        self._index = index
        self.item_at = item_at
        self.id_of: dict[int, int] = {
            item: ident for ident, item in enumerate(item_at)
        }

    def _pool(self, item: int, relatives: tuple[int, ...]) -> list:
        own_support = self._index.support_or_none((item,))
        if own_support is None or own_support <= 0.0:
            return []
        entries = [
            (
                self.id_of[relative],
                self._index.support((relative,)) / own_support,
            )
            for relative in relatives
            if self._index.is_large((relative,))
        ]
        entries.sort(key=lambda entry: -entry[1])
        return entries

    def pool_table(
        self, case: int, idents: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The children (case 0) or sibling (case 1) pools of *idents*,
        one row each: ``(members, ratios, lengths)``, padded with id 0 and
        ratio 0.0 to the widest pool."""
        taxonomy = self._taxonomy
        relatives_of = (taxonomy.children, taxonomy.siblings)[case]
        pools = [
            self._pool(item, relatives_of(item))
            for item in map(self.item_at.__getitem__, idents.tolist())
        ]
        lengths = np.array([len(pool) for pool in pools], dtype=np.intp)
        width = int(lengths.max(initial=0)) or 1
        filled = np.arange(width) < lengths[:, None]
        members = np.zeros((len(pools), width), dtype=np.intp)
        ratios = np.zeros((len(pools), width))
        members[filled] = [ident for pool in pools for ident, _ in pool]
        ratios[filled] = [ratio for pool in pools for _, ratio in pool]
        return members, ratios, lengths

    def closure_words(self, idents: np.ndarray) -> np.ndarray:
        """One row of uint64 words per id in *idents*: the bits of the
        item, its ancestors and its descendants — the items that may not
        share a candidate with it. Built only for the ids the kernel
        meets, since most nodes of a full taxonomy never are."""
        taxonomy, id_of = self._taxonomy, self.id_of
        words = -(-len(self.item_at) // 64) or 1
        chunks = []
        for item in map(self.item_at.__getitem__, idents.tolist()):
            mask = 0
            for node in (
                (item,) + taxonomy.ancestors(item) + taxonomy.descendants(item)
            ):
                position = id_of.get(node)
                if position is not None:
                    mask |= 1 << position
            chunks.append(mask.to_bytes(8 * words, "little"))
        table = np.frombuffer(b"".join(chunks), dtype=np.dtype("<u8"))
        return table.reshape(len(chunks), words)


@dataclass(slots=True)
class ItemsetColumns:
    """Itemsets of the negative phase as columns, one row per itemset.

    The miners carry candidates and negative itemsets in this form from
    the candidate kernel to the rules, and build
    :class:`NegativeCandidate` (and the miners' ``NegativeItemset``)
    objects only for what a result returns.

    Attributes
    ----------
    items:
        ``(rows, width)`` int64: each row's items ascending, then
        :data:`~repro.mining.keytable.PAD`, which sorts below every item.
    tuples:
        Object array: each row's items as its canonical tuple.
    expected:
        Expected supports.
    sources:
        Object array: the large itemset each expectation came from.
    cases:
        Index into :data:`CASES` per row.
    actual:
        Measured supports, once counted; ``None`` before.
    """

    items: np.ndarray
    tuples: np.ndarray
    expected: np.ndarray
    sources: np.ndarray
    cases: np.ndarray
    actual: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.expected)

    def take(self, rows: np.ndarray) -> "ItemsetColumns":
        """The rows *rows* (indices or a mask), in that order."""
        return ItemsetColumns(
            self.items[rows], self.tuples[rows],
            self.expected[rows], self.sources[rows], self.cases[rows],
            None if self.actual is None else self.actual[rows],
        )

    @staticmethod
    def concat(parts: list["ItemsetColumns"]) -> "ItemsetColumns":
        """The rows of *parts*, one after another."""
        width = max((part.items.shape[1] for part in parts), default=0)
        items = np.full(
            (sum(map(len, parts)), width), PAD, dtype=np.int64
        )
        start = 0
        for part in parts:
            items[start:start + len(part), :part.items.shape[1]] = part.items
            start += len(part)

        def joined(field: str, dtype) -> np.ndarray:
            return np.concatenate(
                [np.empty(0, dtype=dtype)]
                + [getattr(part, field) for part in parts]
            )

        return ItemsetColumns(
            items, joined("tuples", object),
            joined("expected", np.float64), joined("sources", object),
            joined("cases", np.int8),
            None if any(part.actual is None for part in parts)
            else joined("actual", np.float64),
        )

    def item_order(self) -> np.ndarray:
        """The permutation that sorts the rows by their item tuples."""
        return np.lexsort(self.items.T[::-1]) if self.items.shape[1] else (
            np.arange(len(self))
        )

    def sizes_count(self) -> dict[int, int]:
        """Rows per itemset size, by ascending size."""
        counts = np.bincount((self.items != PAD).sum(axis=1))
        return {
            size: int(counts[size]) for size in np.flatnonzero(counts)
        }

    def records(self) -> dict[Itemset, NegativeCandidate]:
        """The rows as :class:`NegativeCandidate` records, by item tuple,
        in row order."""
        tuples = self.tuples.tolist()
        return dict(zip(tuples, frozen_records(
            NegativeCandidate,
            tuples,
            self.expected.tolist(),
            self.sources.tolist(),
            CASE_NAMES[self.cases].tolist(),
        )))


CASE_NAMES = np.array(CASES, dtype=object)


def frozen_records(cls: type, *columns: list) -> list:
    """Instances of the frozen slots dataclass *cls*, one per row of the
    field *columns*, given in field order.

    A frozen dataclass's ``__init__`` sets each field through
    ``object.__setattr__``; setting the slots directly builds equal
    objects in about half the time, which counts when a result holds
    hundreds of thousands of them.
    """
    out = list(map(object.__new__, repeat(cls, len(columns[0]))))
    for setter, values in zip(_setters(cls), columns):
        deque(map(setter, out, values), maxlen=0)
    return out


@lru_cache(maxsize=None)
def _setters(cls: type) -> tuple:
    """The slot setters of *cls*'s fields, in field order."""
    return tuple(getattr(cls, field.name).__set__ for field in fields(cls))


def item_matrix(tuples: Sequence[Itemset]) -> tuple[np.ndarray, np.ndarray]:
    """The item tuples as an :attr:`ItemsetColumns.items` matrix, and
    their sizes."""
    count = len(tuples)
    sizes = np.fromiter(map(len, tuples), dtype=np.intp, count=count)
    width = int(sizes.max(initial=0))
    items = np.full((count, width), PAD, dtype=np.int64)
    items[np.arange(width) < sizes[:, None]] = np.fromiter(
        chain.from_iterable(tuples), dtype=np.int64, count=int(sizes.sum())
    )
    return items, sizes


def _objects(values: Sequence) -> np.ndarray:
    """*values* as a one-dimensional object array (tuples stay whole)."""
    return np.fromiter(values, dtype=object, count=len(values))


def generate_negative_candidates(
    index: LargeItemsetIndex,
    taxonomy: Taxonomy,
    minsup: float,
    minri: float,
    sources: Iterable[Itemset] | None = None,
    max_size: int | None = None,
    max_sibling_replacements: int | None = None,
) -> dict[Itemset, NegativeCandidate]:
    """Generate all candidate negative itemsets from large itemsets.

    Parameters
    ----------
    index:
        The generalized large itemsets (with 1-itemset supports, which
        provide the expectation ratios).
    taxonomy:
        Full or pruned taxonomy. Pruning small items first (the Improved
        algorithm's optimization) shrinks the children/sibling lists that
        are iterated but cannot change the output: replacements are always
        filtered to large 1-itemsets here.
    minsup, minri:
        Thresholds; candidates need expected support of at least
        ``minsup * minri``.
    sources:
        Large itemsets of *index* to generate from. Defaults to every
        indexed itemset of size >= 2 (negative itemsets of size 1 cannot
        form rules).
    max_size:
        Skip sources larger than this (candidates keep the source's size).
    max_sibling_replacements:
        Cap on how many positions a Case-3 candidate may replace with
        siblings. ``None`` allows any proper subset (the paper's general
        formula); ``1`` matches the paper's worked examples exactly and
        tames the exponential blow-up on dense data — sibling support
        ratios are often near 1, so unlike children replacements the
        expectation threshold barely prunes them; ``0`` turns Case 3
        off.

    Returns
    -------
    dict
        Candidate itemset -> :class:`NegativeCandidate`, deduplicated with
        maximum expected support.
    """
    return candidate_columns(
        index, taxonomy, minsup, minri, sources, max_size,
        max_sibling_replacements,
    ).records()


def candidate_columns(
    index: LargeItemsetIndex,
    taxonomy: Taxonomy,
    minsup: float,
    minri: float,
    sources: Iterable[Itemset] | None = None,
    max_size: int | None = None,
    max_sibling_replacements: int | None = None,
) -> ItemsetColumns:
    """:func:`generate_negative_candidates` as :class:`ItemsetColumns`,
    rows in the dict's order."""
    check_fraction(minsup, "minsup")
    threshold = deviation_threshold(minsup, minri)
    table = index.table()
    item_at = table.item_at.tolist()
    # A pruned taxonomy may have dropped items of a stale index entry;
    # such sources cannot yield admissible candidates.
    in_taxonomy = np.fromiter(
        map(taxonomy.__contains__, item_at), dtype=bool, count=len(item_at)
    )
    groups = _source_groups(table, taxonomy, in_taxonomy, sources, max_size)
    # The kernel and its tables are dropped before the records are built.
    subsets, leaves, kept = _Kernel(
        table, _Relatives(taxonomy, index, item_at), groups, threshold,
        max_sibling_replacements,
    ).run()
    columns = _columns(kept, table.item_at, groups)
    obs.incr("candidates.position_subsets", subsets)
    obs.incr("candidates.leaf_masks", leaves)
    obs.incr("candidates.kept", len(columns))
    return columns


def _source_groups(
    table: KeyTable,
    taxonomy: Taxonomy,
    in_taxonomy: np.ndarray,
    sources: Iterable[Itemset] | None,
    max_size: int | None,
) -> list[_SourceGroup]:
    """The sources as one :class:`_SourceGroup` per size.

    Without explicit *sources*, every itemset of size >= 2 in the table's
    key order, which is ``sorted(index.of_size(size))`` for each size.
    A source's position in that list is its place in visit order;
    explicit sources must be itemsets of the table.
    """
    groups = []
    if sources is None:
        start = 0
        for size in table.sizes:
            if size < 2 or (max_size is not None and size > max_size):
                continue
            ids = table.rows(size)
            keep = in_taxonomy[ids].all(axis=1)
            count = int(keep.sum())
            if count:
                groups.append(_SourceGroup(
                    ids[keep], np.arange(start, start + count),
                    table.supports(size)[keep],
                ))
            start += count
        return groups
    by_size: dict[int, list[Itemset]] = {}
    at = 0
    order: dict[int, list[int]] = {}
    for source in sources:
        size = len(source)
        if (
            size < 2 or (max_size is not None and size > max_size)
            or not all(map(taxonomy.__contains__, source))
        ):
            continue
        by_size.setdefault(size, []).append(source)
        order.setdefault(size, []).append(at)
        at += 1
    for size, itemsets in by_size.items():
        ids, known = table.ids_of(np.array(itemsets, dtype=np.int64))
        found = table.find(size, pack(ids, table.bits))
        found[~known.all(axis=1)] = -1
        if (found < 0).any():
            raise KeyError(itemsets[int(np.argmin(found))])
        groups.append(_SourceGroup(
            ids, np.array(order[size]), table.supports(size)[found]
        ))
    return groups


class _SourceGroup:
    """The sources of one size, as arrays, and their expansion rows.

    ``order`` holds the sources' positions in the source list, ascending;
    ``ids[i]`` holds source ``i``'s dense ids in position order, ``slots[i]``
    their rows in the kernel's pool tables and ``base[i]`` its support.
    ``subset_positions[count]`` lists the position subsets of *count*
    positions in :func:`itertools.combinations` order and
    ``kept_positions[count]`` the positions each leaves. ``batches`` holds
    one ``(case, count, source, subset)`` entry per case and replacement
    count: the rows (source, position subset) that pass the expectation
    bound, in visit order. ``sentinels`` are the packed keys of the large
    itemsets of this size.
    """

    __slots__ = (
        "size", "order", "ids", "slots", "base", "subset_positions",
        "kept_positions", "batches", "sentinels",
    )

    def __init__(
        self, ids: np.ndarray, order: np.ndarray, base: np.ndarray
    ) -> None:
        self.size = size = ids.shape[1]
        self.ids = ids
        self.order = order.astype(np.int64)
        self.slots = np.empty_like(ids)
        self.base = base
        self.subset_positions = [np.empty((1, 0), dtype=np.intp)] + [
            np.array(list(combinations(range(size), count)), dtype=np.intp)
            for count in range(1, size + 1)
        ]
        self.kept_positions = [
            np.array(
                [[p for p in range(size) if p not in subset]
                 for subset in subsets.tolist()],
                dtype=np.intp,
            ).reshape(len(subsets), size - count)
            for count, subsets in enumerate(self.subset_positions)
        ]
        self.batches: list[tuple] = []
        self.sentinels = np.empty((0, 0), dtype=np.int64)

    def plan(
        self,
        kernel: _Kernel,
        max_sibling_replacements: int | None,
    ) -> int:
        """Drop degenerate sources and build the batches of the rest;
        returns the number of position subsets visited.

        Only positions with a non-empty pool can be replaced, so subsets
        are drawn from those alone, in the same order as from all
        positions.
        """
        size = self.size
        words, row_of = kernel.words, kernel.row_of
        clear = np.ones(len(self.order), dtype=bool)
        for first, second in combinations(range(size), 2):
            other = self.ids[:, second]
            clear &= (
                words[row_of[self.ids[:, first]], other >> 6]
                & _BIT[other & 63]
            ) == _ZERO
        # Degenerate large itemsets (an item with its ancestor; a
        # hand-built index may hold them) predict nothing beyond their
        # non-degenerate reduction.
        self.order = self.order[clear]
        self.ids = self.ids[clear]
        self.slots = slots = self.slots[clear]
        self.base = base = self.base[clear]
        visited = 0
        for case, (_, ratios, lengths) in enumerate(kernel.pools):
            max_positions = size if case == 0 else size - 1
            if case == 1 and max_sibling_replacements is not None:
                max_positions = min(max_positions, max_sibling_replacements)
            live = lengths[slots] > 0
            best = ratios[:, 0]
            for count in range(1, max_positions + 1):
                subset_positions = self.subset_positions[count]
                source, subset = np.nonzero(
                    live[:, subset_positions].all(axis=2)
                )
                visited += len(source)
                # Exact upper bound: best (first) ratio at every position,
                # multiplied left to right.
                bound = base[source]
                for depth in range(count):
                    bound = bound * best[
                        slots[source, subset_positions[subset, depth]]
                    ]
                passed = bound >= kernel.threshold
                if passed.any():
                    self.batches.append((
                        case, count, source[passed].astype(np.int32),
                        subset[passed].astype(np.int32),
                    ))
        return visited


class _Kernel:
    """One call's expansion: the source groups, the pool and closure
    tables they share, and the chunk loop.

    ``pools[case]`` = ``(members, ratios, lengths)`` holds one padded
    pool per distinct source item; ``words[row_of[i]]`` is the closure of
    id ``i`` as uint64 words; keys pack ids of ``bits`` bits each.
    """

    __slots__ = (
        "groups", "pools", "words", "row_of", "bits", "threshold",
        "subsets",
    )

    def __init__(
        self,
        table: KeyTable,
        cache: _Relatives,
        groups: list[_SourceGroup],
        threshold: float,
        max_sibling_replacements: int | None,
    ) -> None:
        self.threshold = threshold
        self.bits = table.bits
        self.groups = groups
        distinct = distinct_values(np.concatenate(
            [np.empty(0, dtype=np.intp)]
            + [group.ids.ravel() for group in self.groups]
        ))
        self.pools = [
            cache.pool_table(case, distinct) for case in range(len(CASES))
        ]
        idents = distinct_values(np.concatenate([distinct] + [
            members[np.arange(members.shape[1]) < lengths[:, None]]
            for members, _, lengths in self.pools
        ]))
        self.words = cache.closure_words(idents)
        self.row_of = np.zeros(len(table.item_at), dtype=np.intp)
        self.row_of[idents] = np.arange(len(idents))
        self.subsets = 0
        for group in self.groups:
            group.slots = np.searchsorted(distinct, group.ids)
            self.subsets += group.plan(self, max_sibling_replacements)
            # Candidates keep their source's size, so only large itemsets
            # of that size can collide with one.
            group.sentinels = table.keys(group.size)

    def run(self) -> tuple[int, int, list[tuple]]:
        """Expand every group's batches chunk by chunk; returns the number
        of position subsets visited, the number of leaves expanded and,
        per group, the kept itemsets as ``(first rank, id columns,
        expectation, source, case)`` arrays.

        A chunk is a range of source positions, so every leaf of a chunk
        ranks below every leaf of the next. Each chunk's leaves are
        reduced to distinct itemsets before the next chunk is expanded,
        and the chunk after is sized by its rows to expand about
        :data:`CHUNK_LEAVES` leaves at the rate of leaves per row just
        seen.
        """
        sources = 1 + max(
            (int(group.order[-1]) for group in self.groups
             if len(group.order)),
            default=-1,
        )
        # rows_before[k]: the rows of the sources before position k.
        rows_before = np.zeros(sources + 1, dtype=np.int64)
        for group in self.groups:
            for _, _, source, _ in group.batches:
                rows_before[1:] += np.bincount(
                    group.order[source], minlength=sources
                )
        np.cumsum(rows_before, out=rows_before)
        pending: list[list[tuple]] = [[] for _ in self.groups]
        rank_base = 0
        low, rate = 0, 8.0
        while low < sources:
            room = rows_before[low] + max(1, int(CHUNK_LEAVES / rate))
            high = int(np.searchsorted(rows_before, room, side="right")) - 1
            high = min(max(high, low + 1), sources)
            leaves = self._chunk(low, high, rank_base, pending)
            rows = int(rows_before[high] - rows_before[low])
            if rows:
                rate = max(1.0, leaves / rows)
            rank_base += leaves
            low = high

        kept = []
        for group, found in zip(self.groups, pending):
            # The large itemsets join as sentinels no expectation can
            # beat, and are dropped with the itemsets they win.
            sentinel = group.sentinels
            found.insert(0, (
                sentinel, np.full(sentinel.shape[1], np.inf),
                np.full(sentinel.shape[1], -1, dtype=np.int64),
                np.full(sentinel.shape[1], -1, dtype=np.int32),
                np.full(sentinel.shape[1], -1, dtype=np.int8),
            ))
            # Chunks are in rank order and hold each itemset once, so
            # rows in chunk order break ties as the ranks would.
            rows = [
                np.concatenate([row[field] for row in found], axis=-1)
                for field in range(5)
            ]
            found.clear()
            keys, value, first, source, case = _distinct(*rows)
            del rows
            fresh = value != np.inf
            kept.append((
                first[fresh], unpack(keys[:, fresh], self.bits, group.size),
                value[fresh], source[fresh], case[fresh],
            ))
        return self.subsets, rank_base, kept

    def _chunk(
        self, low: int, high: int, rank_base: int,
        pending: list[list[tuple]],
    ) -> int:
        """Expand the rows of source positions ``low:high`` and append each
        group's distinct itemsets to ``pending``; returns the number of
        leaves.

        A leaf's rank is ``rank_base`` plus its place in visit order:
        sources in order, each source's batches in (case, count) order,
        and each batch's leaves in the order :meth:`leaves` returns them.
        """
        span = high - low
        parts = []
        for number, group in enumerate(self.groups):
            first, last = np.searchsorted(group.order, (low, high))
            if first == last:
                continue
            for case, count, source, subset in group.batches:
                start, stop = np.searchsorted(source, (first, last))
                if start == stop:
                    continue
                keys, value, row = self.leaves(
                    group, case, count, source[start:stop],
                    subset[start:stop],
                )
                at = (group.order[source[start:stop][row]] - low).astype(
                    np.int32
                )
                parts.append((number, keys, value, at, case))
        if not parts:
            return 0
        # A part lists its leaves by source, so each source's leaves of a
        # part are one run of it. In visit order the sources follow each
        # other, and a source's runs follow each other in part order.
        totals: dict[int, np.ndarray] = {}
        for part in parts:
            counts = np.bincount(part[3], minlength=span)
            found = totals.get(part[0])
            totals[part[0]] = counts if found is None else found + counts
        # ahead[s]: the chunk's leaves from sources before low + s.
        ahead = _exclusive(sum(totals.values()))
        for number, total in totals.items():
            # Lay the group's leaves out in rank order: local[s] of them
            # come from sources before low + s, and seen[s] from low + s
            # in the parts so far.
            local = _exclusive(total)
            seen = np.zeros(span, dtype=np.int64)
            size = int(total.sum())
            keys = np.empty(
                (len(self.groups[number].sentinels), size), dtype=np.int64
            )
            value = np.empty(size)
            rank = np.empty(size, dtype=np.int64)
            case = np.empty(size, dtype=np.int8)
            for _, part_keys, part_value, at, part_case in (
                part for part in parts if part[0] == number
            ):
                counts = np.bincount(at, minlength=span)
                within = seen[at] + (
                    np.arange(len(at)) - _exclusive(counts)[at]
                )
                place = local[at] + within
                keys[:, place] = part_keys
                value[place] = part_value
                rank[place] = ahead[at] + within
                case[place] = part_case
                seen += counts
            rank += rank_base
            source = np.repeat(np.arange(low, high, dtype=np.int32), total)
            pending[number].append(
                _distinct(keys, value, rank, source, case)
            )
        return sum(int(total.sum()) for total in totals.values())

    def leaves(
        self,
        group: _SourceGroup,
        case: int,
        count: int,
        source: np.ndarray,
        subset: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand rows (``source``, ``subset``) of one case and replacement
        count, one replaced position per depth; returns the leaves that
        survive as packed keys, their expectations and the row each came
        from, in visit order.

        The raw enumeration is exponential (the Section 2.1.2 estimate),
        and the paper lists "more efficient candidate generation
        techniques" as future work. Two cuts skip only candidates that
        the admission rules reject anyway, so the candidates and
        expectations equal an exhaustive cross-product's:

        * **Expectation bound.** Each pool is sorted by descending support
          ratio, so the product of the best remaining ratios is an exact
          upper bound on the achievable expectation. A row whose bound
          falls short of ``MinSup × MinRI`` is cut in
          :meth:`_SourceGroup.plan`, and a branch whose value times the
          product of the best ratios of the depths below it does is cut
          here.
        * **Conflicts.** A replacement in the related closure (the item,
          its ancestors and its descendants) of a kept item or of an
          earlier replacement would repeat an item or pair an item with
          its ancestor, so its branch is cut.

        Every leaf therefore has distinct, mutually unrelated items.
        Bounds, suffix products and expectations are multiplied in the
        same order as the exhaustive reference: float products depend on
        their order, which decides borderline cuts. Each depth keeps its
        branches in (parent, pool index) order, so the leaves come out
        depth-first.
        """
        members, ratios, lengths = self.pools[case]
        words, row_of = self.words, self.row_of
        threshold = self.threshold
        subset_positions = group.subset_positions[count]
        positions = subset_positions[subset]
        slots = group.slots[source[:, None], positions]
        best = ratios[:, 0]
        # suffix[:, d]: the best ratios of depths d.. multiplied left to
        # right; 1.0 past the last depth.
        suffix = np.ones((len(source), count + 1))
        for depth in range(1, count):
            product = best[slots[:, depth]]
            for later in range(depth + 1, count):
                product = product * best[slots[:, later]]
            suffix[:, depth] = product
        # blocked[n]: the closure words of the items branch n must not
        # relate to: the kept items, then its replacements so far.
        kept = group.ids[source[:, None], group.kept_positions[count][subset]]
        blocked = np.bitwise_or.reduce(words[row_of[kept]], axis=1)
        row = np.arange(len(source))
        value = group.base[source]
        # trail[d]: each depth-d branch's parent at depth d - 1, and its
        # replacement.
        trail = []
        for depth in range(count):
            if not len(row):
                return (
                    np.empty((len(group.sentinels), 0), dtype=np.int64),
                    value, row,
                )
            slot = slots[row, depth]
            width = int(lengths[slot].max())
            grid = value[:, None] * ratios[slot, :width]
            # Padding has ratio 0.0, so it never reaches the threshold.
            # At the last depth the suffix is 1.0, which changes nothing.
            flat = np.flatnonzero(
                grid >= threshold if depth + 1 == count
                else grid * suffix[row, depth + 1][:, None] >= threshold
            )
            parent = flat // width
            item = members[slot, :width].ravel()[flat]
            clear = (blocked[parent, item >> 6] & _BIT[item & 63]) == _ZERO
            flat, parent, item = flat[clear], parent[clear], item[clear]
            value = grid.ravel()[flat]
            row = row[parent]
            trail.append((parent, item))
            if depth + 1 < count:
                blocked = blocked[parent] | words[row_of[item]]

        ids = group.ids[source[row]]
        leaf = np.arange(len(row))
        at = leaf
        for depth in range(count - 1, -1, -1):
            parent, item = trail[depth]
            ids[leaf, positions[row, depth]] = item[at]
            at = parent[at]
        return pack(ids, self.bits), value, row


def _exclusive(counts: np.ndarray) -> np.ndarray:
    """The exclusive running sum of *counts*."""
    return np.cumsum(counts) - counts


def _distinct(keys, value, first_rank, source, case) -> tuple:
    """Reduce rows to one per key: the row with the largest expectation,
    ties going to the earliest row, carrying the key's lowest
    *first_rank*."""
    size = len(value)
    if not size:
        return keys, value, first_rank, source, case
    order = key_order(keys)
    ordered = keys[:, order]
    fresh = np.ones(size, dtype=bool)
    fresh[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    del ordered
    # member: a dense id per key, in key order; rows by key, then
    # position (both below size, so the composite cannot overflow).
    member = np.cumsum(fresh) - 1
    composite = np.empty(size, dtype=np.int64)
    composite[order] = member
    del order
    composite *= size
    composite += np.arange(size)
    order = np.argsort(composite)
    del composite
    starts = np.flatnonzero(fresh)
    del fresh
    ranked = value[order]
    top = np.flatnonzero(
        ranked == np.maximum.reduceat(ranked, starts)[member]
    )
    del ranked
    firsts = np.ones(len(top), dtype=bool)
    firsts[1:] = member[top[1:]] != member[top[:-1]]
    pick = order[top[firsts]]
    return (
        keys[:, pick], value[pick],
        np.minimum.reduceat(first_rank[order], starts),
        source[pick], case[pick],
    )


def _columns(
    kept: list[tuple], item_at: np.ndarray, groups: list[_SourceGroup]
) -> ItemsetColumns:
    """The kept itemsets as :class:`ItemsetColumns`, in order of first
    visit; empties *kept* as it goes. Item tuples share one int object
    per item, and rows share one source tuple per winning source, as a
    scalar walk's would."""
    order = np.argsort(np.concatenate(
        [np.empty(0, dtype=np.int64)] + [rows[0] for rows in kept]
    ))
    place = np.empty(len(order), dtype=np.int64)
    place[order] = np.arange(len(order))
    width = max((group.size for group in groups), default=0)
    items = np.full((len(order), width), PAD, dtype=np.int64)
    tuples = np.empty(len(order), dtype=object)
    values = np.empty(len(order))
    sources = np.empty(len(order), dtype=object)
    cases = np.empty(len(order), dtype=np.int8)
    objects = np.array(item_at.tolist(), dtype=object)
    start = 0
    for group in groups:
        _, ids, value, source, case = kept.pop(0)
        span = place[start:start + len(value)]
        items[span, :group.size] = item_at[ids.T]
        tuples[span] = _objects(list(zip(
            *(objects[column].tolist() for column in ids)
        )))
        values[span] = value
        # The winning sources, each built once.
        row = np.searchsorted(group.order, source)
        winners = distinct_values(row)
        built = _objects(list(zip(
            *(objects[column].tolist() for column in group.ids[winners].T)
        )))
        sources[span] = built[np.searchsorted(winners, row)]
        cases[span] = case
        start += len(value)
    return ItemsetColumns(items, tuples, values, sources, cases)
