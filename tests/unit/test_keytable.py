"""Unit tests for the packed-key table of large itemsets."""

import random
from itertools import combinations

import numpy as np
import pytest

from repro.mining.itemset_index import LargeItemsetIndex


def _index(items: int, seed: int = 0) -> LargeItemsetIndex:
    rng = random.Random(seed)
    index = LargeItemsetIndex()
    for item in range(items):
        index.add((item * 3,), rng.random())
    for size in range(2, 9):
        for _ in range(40):
            index.add(
                tuple(3 * item for item in rng.sample(range(items), size)),
                rng.random(),
            )
    return index


@pytest.mark.parametrize("items", [20, 300, 1_500])
def test_rows_follow_sorted_itemsets(items):
    index = _index(items)
    table = index.table()
    for size in index.sizes:
        rows = [
            tuple(table.item_at[row].tolist()) for row in table.rows(size)
        ]
        assert rows == sorted(index.of_size(size))
        assert table.supports(size).tolist() == [
            index.support(items) for items in rows
        ]


@pytest.mark.parametrize("items", [20, 300, 1_500])
def test_lookup_equals_the_dict(items):
    """1,500 items take 11 bits, so 6-item keys and up span two
    columns; 300 take 9 and 8-item keys span two."""
    index = _index(items, seed=1)
    table = index.table()
    rng = random.Random(2)
    for size in range(1, 9):
        queries = [
            tuple(sorted(rng.choice(sorted(index.of_size(size)))))
            for _ in range(30)
        ] + [
            tuple(sorted(rng.sample(range(3 * items + 2), size)))
            for _ in range(30)
        ]
        ids, known = table.ids_of(np.array(queries, dtype=np.int64))
        found = table.lookup(list(ids.T), known.all(axis=1))
        for query, at in zip(queries, found.tolist()):
            assert (at >= 0) == (query in index)
            if at >= 0:
                assert table.supports(size)[at] == index.support(query)
                # The very float object the index holds.
                assert table.support_objects(size)[at] is index.support(
                    query
                )
    # 63 bits hold 63 // bits ids per key column.
    assert (max(index.sizes) * table.bits > 63) == (items > 256)


def test_table_follows_adds():
    index = LargeItemsetIndex({(1,): 0.5, (2,): 0.4})
    first = index.table()
    assert index.table() is first
    index.add((1, 2), 0.3)
    table = index.table()
    assert table is not first
    at = table.lookup([np.array([0]), np.array([1])])
    assert table.supports(2)[at].tolist() == [0.3]


def test_empty_index():
    table = LargeItemsetIndex().table()
    ids, known = table.ids_of(np.array([[1, 2]]))
    assert not known.any()
    assert table.lookup(list(ids.T), known.all(axis=1)).tolist() == [-1]
    assert table.lookup([ids[:, 0]]).tolist() == [-1]
    assert table.single_supports(ids[:, 0]).tolist() == [0.0]
