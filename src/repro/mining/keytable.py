"""Packed itemset keys and the sorted key table of large itemsets.

An itemset over a universe of items is held as the *dense ids* of its
items — their positions in the sorted universe, so ids order as the items
do — and its sorted ids are packed into int64 key columns, ``63 // bits``
ids per column with the first id in the most significant bits. Equal
itemsets give equal keys, and the keys of the itemsets of one size sort as
the itemsets do: lexicographically, column by column.

:class:`KeyTable` is the hash table of large itemsets of Section 2.4 in
that form: for each size, the sorted keys and a support array, so a batch
of subsets is looked up with one ``searchsorted`` instead of one dict
probe each. :meth:`LargeItemsetIndex.table
<repro.mining.itemset_index.LargeItemsetIndex.table>` builds it on demand.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain

import numpy as np

from ..itemset import Itemset

#: Fills the item columns of an itemset past its size: below every item,
#: so a padded row sorts before any row it is a prefix of, as a shorter
#: tuple does.
PAD = np.iinfo(np.int64).min


def pack(ids: np.ndarray, bits: int) -> np.ndarray:
    """Pack each row of *ids* (each id below ``2**bits``), sorted, into
    int64 key columns; returns an array of shape ``(columns, rows)``.
    Rows holding the same ids give equal keys.

    The rows are sorted by an odd-even transposition network over the
    columns: ``size`` rounds of elementwise minimum and maximum, which
    for the few ids of an itemset is cheaper than sorting each row.
    """
    size = ids.shape[1]
    columns = list(ids.T)
    for round_ in range(size):
        for left in range(round_ % 2, size - 1, 2):
            low = np.minimum(columns[left], columns[left + 1])
            columns[left + 1] = np.maximum(columns[left], columns[left + 1])
            columns[left] = low
    return pack_sorted(columns, bits, len(ids))


def pack_sorted(columns, bits: int, rows: int) -> np.ndarray:
    """:func:`pack` for id *columns* whose rows are already ascending."""
    per = max(1, 63 // bits)
    keys = np.zeros((-(-len(columns) // per), rows), dtype=np.int64)
    for position, column in enumerate(columns):
        key = keys[position // per]
        key <<= bits
        key |= column
    return keys


def unpack(keys: np.ndarray, bits: int, size: int) -> np.ndarray:
    """The id columns that :func:`pack` packed into *keys*:
    ``(size, rows)``. Shifts *keys* in place."""
    per = max(1, 63 // bits)
    ids = np.empty((size, keys.shape[1]), dtype=np.intp)
    low = (1 << bits) - 1
    for position in range(size - 1, -1, -1):
        column = position // per
        ids[position] = keys[column] & low
        if position % per:
            keys[column] >>= bits
    return ids


def distinct_values(values: np.ndarray) -> np.ndarray:
    """The distinct *values*, ascending. Unlike ``np.unique``, which
    imports ``numpy.ma`` on its first call in some NumPy versions, this
    adds nothing to a process's memory."""
    values = values[np.argsort(values)]
    fresh = np.ones(len(values), dtype=bool)
    fresh[1:] = values[1:] != values[:-1]
    return values[fresh]


def key_order(keys: np.ndarray) -> np.ndarray:
    """The permutation that sorts the rows of key *columns*."""
    return np.argsort(keys[0]) if len(keys) == 1 else np.lexsort(keys[::-1])


class KeyTable:
    """The large itemsets as sorted packed keys with supports, per size.

    ``item_at`` holds every item the itemsets hold, ascending; item
    ``item_at[i]`` has the dense id ``i`` and ids take ``bits`` bits.
    For a size *k*, ``keys(k)`` are the packed keys of the *k*-itemsets in
    sorted order — the order of ``sorted(index.of_size(k))`` — and
    ``supports(k)`` their supports, lined up; ``support_objects(k)`` holds
    the index's own float objects, so records built from them share them.
    """

    __slots__ = (
        "item_at", "bits", "_keys", "_supports", "_objects", "_single_at",
    )

    def __init__(
        self,
        by_size: Mapping[int, "set[Itemset]"],
        supports: Mapping[Itemset, float],
    ) -> None:
        flat = {
            size: np.fromiter(
                chain.from_iterable(itemsets), dtype=np.int64,
                count=size * len(itemsets),
            )
            for size, itemsets in by_size.items()
        }
        self.item_at = distinct_values(np.concatenate(
            [np.empty(0, dtype=np.int64)] + list(flat.values())
        ))
        self.bits = max(1, (len(self.item_at) - 1).bit_length())
        self._keys: dict[int, np.ndarray] = {}
        self._supports: dict[int, np.ndarray] = {}
        self._objects: dict[int, np.ndarray] = {}
        for size, itemsets in by_size.items():
            ids = np.searchsorted(self.item_at, flat[size])
            keys = pack_sorted(
                list(ids.reshape(len(itemsets), size).T), self.bits,
                len(itemsets),
            )
            order = key_order(keys)
            self._keys[size] = keys[:, order]
            self._objects[size] = np.fromiter(
                map(supports.__getitem__, itemsets), dtype=object,
                count=len(itemsets),
            )[order]
            self._supports[size] = self._objects[size].astype(np.float64)
        # single_at[i]: the key-order position of the 1-itemset of id i,
        # -1 for an item held only by larger itemsets.
        self._single_at = np.full(len(self.item_at), -1, dtype=np.intp)
        if 1 in self._keys:
            self._single_at[self._keys[1][0]] = np.arange(
                self._keys[1].shape[1]
            )

    @property
    def sizes(self) -> tuple[int, ...]:
        """The sizes the table holds, ascending."""
        return tuple(sorted(self._keys))

    def keys(self, size: int) -> np.ndarray:
        """The sorted keys of the *size*-itemsets, ``(columns, count)``."""
        found = self._keys.get(size)
        if found is None:
            return np.empty((-(-size // max(1, 63 // self.bits)), 0),
                            dtype=np.int64)
        return found

    def supports(self, size: int) -> np.ndarray:
        """The supports of the *size*-itemsets, in key order."""
        return self._supports.get(size, np.empty(0))

    def support_objects(self, size: int) -> np.ndarray:
        """:meth:`supports` as the index's float objects."""
        return self._objects.get(size, np.empty(0, dtype=object))

    def rows(self, size: int) -> np.ndarray:
        """The dense ids of the *size*-itemsets, one row each, in key
        order."""
        return unpack(self.keys(size).copy(), self.bits, size).T

    def single_supports(self, ids: np.ndarray) -> np.ndarray:
        """The 1-itemset support of each id in *ids*, 0.0 where the item
        is not a large 1-itemset."""
        if not len(self.supports(1)):
            return np.zeros(np.shape(ids))
        at = self._single_at[ids]
        return np.where(at >= 0, self.supports(1)[at], 0.0)

    def ids_of(self, items: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The dense ids of *items* (any shape) and whether each item is
        in the universe; an item that is not gets an arbitrary valid
        id."""
        if not len(self.item_at):
            return (
                np.zeros(items.shape, dtype=np.intp),
                np.zeros(items.shape, dtype=bool),
            )
        ids = np.minimum(
            self.item_at.searchsorted(items), len(self.item_at) - 1
        )
        return ids, self.item_at[ids] == items

    def find(self, size: int, keys: np.ndarray) -> np.ndarray:
        """The position in key order of each *size*-itemset whose packed
        key is a column of *keys*, -1 where it is not large.

        One ``searchsorted`` on the first key column; keys that span more
        columns narrow the range column by column, by bisection.
        """
        table = self.keys(size)
        count = table.shape[1]
        if not count:
            return np.full(keys.shape[1], -1, dtype=np.intp)
        low = table[0].searchsorted(keys[0])
        if len(table) == 1:
            low = np.minimum(low, count - 1)
            return np.where(table[0][low] == keys[0], low, -1)
        high = table[0].searchsorted(keys[0], side="right")
        for column in range(1, len(table)):
            values = table[column]
            low, high = (
                _bisect(values, keys[column], low, high, right=False),
                _bisect(values, keys[column], low, high, right=True),
            )
        return np.where(low < high, low, -1)

    def lookup(
        self, columns: list[np.ndarray], known: np.ndarray | None = None
    ) -> np.ndarray:
        """The key-order position of each itemset whose dense ids,
        ascending, are a row across the id *columns*, -1 where it is not
        large or *known* marks the row False."""
        size, rows = len(columns), len(columns[0])
        if not len(self.item_at):
            return np.full(rows, -1, dtype=np.intp)
        if size == 1:
            # A 1-itemset's key is its id: read its position directly.
            at = self._single_at[columns[0]]
        else:
            at = self.find(size, pack_sorted(columns, self.bits, rows))
        if known is not None:
            at = np.where(known, at, -1)
        return at


def _bisect(
    values: np.ndarray, wanted: np.ndarray, low: np.ndarray,
    high: np.ndarray, right: bool,
) -> np.ndarray:
    """Per query, the first position in ``low:high`` of the ascending
    *values* holding more than (*right*) or at least its *wanted*."""
    low, high = low.copy(), high.copy()
    while True:
        active = np.flatnonzero(low < high)
        if not len(active):
            return low
        middle = (low[active] + high[active]) >> 1
        probe = values[middle]
        goal = wanted[active]
        up = probe <= goal if right else probe < goal
        low[active[up]] = middle[up] + 1
        high[active[~up]] = middle[~up]
