"""Unit tests for the persistent vertical bitmap index cache."""

import pickle
from collections import Counter
from itertools import combinations

import pytest

from repro.data.database import TransactionDatabase
from repro.data.filedb import FileBackedDatabase
from repro.errors import DatabaseError
from repro.itemset import itemset
from repro.mining import vertical
from repro.core.session import MiningSession
from repro.core.negmining import MiningStats
from repro.mining.vertical import VerticalIndex
from repro.obs.registry import MetricsRegistry
from repro.taxonomy.builders import taxonomy_from_parents
from repro.taxonomy.tree import Taxonomy

ROWS = [(1, 2, 3), (1, 3), (2, 4), (1, 2, 4), (3, 4), (1, 2, 3, 4)]
CANDIDATES = [(1,), (2,), (1, 2), (3, 4), (1, 2, 3), (9,)]

# Two-level taxonomy: categories 100..101 over leaves 1..4.
TAXONOMY = taxonomy_from_parents({1: 100, 2: 100, 3: 101, 4: 101})


def brute(rows, candidates, taxonomy=None):
    return MiningSession(list(rows), taxonomy, "brute").count(candidates)


class TestVerticalIndex:
    def test_counts_match_brute(self):
        database = TransactionDatabase(ROWS)
        index = VerticalIndex.build(database)
        assert index.count(CANDIDATES) == brute(ROWS, CANDIDATES)

    def test_generalized_counts_match_brute(self):
        database = TransactionDatabase(ROWS)
        index = VerticalIndex.build(database)
        candidates = [(100,), (101,), (100, 101), (1, 101), (100, 3, 4)]
        assert index.count(candidates, taxonomy=TAXONOMY) == brute(
            ROWS, candidates, taxonomy=TAXONOMY
        )

    def test_from_rows_counts_match_brute(self):
        index = VerticalIndex.from_rows(ROWS)
        assert index.count(CANDIDATES) == brute(ROWS, CANDIDATES)

    def test_build_is_one_physical_zero_logical_pass(self):
        database = TransactionDatabase(ROWS)
        VerticalIndex.build(database)
        assert database.scans == 1
        assert database.logical_scans == 0

    def test_pickle_roundtrip_preserves_counts(self):
        index = VerticalIndex.from_rows(ROWS)
        clone = pickle.loads(pickle.dumps(index))
        assert clone.n_rows == index.n_rows
        assert clone.count(CANDIDATES) == index.count(CANDIDATES)

    def test_taxonomy_consulted_once_per_distinct_node(self):
        """Many candidates over a few nodes resolve each node once."""
        calls = Counter()

        class SpyTaxonomy(Taxonomy):
            def children(self, node):
                calls[node] += 1
                return super().children(node)

        taxonomy = SpyTaxonomy({1: 100, 2: 100, 3: 101, 4: 101})
        nodes = (1, 2, 3, 4, 100, 101)
        candidates = [
            itemset(combo)
            for size in (1, 2, 3)
            for combo in combinations(nodes, size)
        ]
        expected = brute(ROWS, candidates, taxonomy=taxonomy)
        index = VerticalIndex.build(TransactionDatabase(ROWS))
        for _ in range(2):
            calls.clear()
            assert index.count(candidates, taxonomy=taxonomy) == expected
            assert calls and max(calls.values()) == 1


class TestGetIndex:
    def test_second_call_hits_cache(self):
        database = TransactionDatabase(ROWS)
        metrics = MetricsRegistry()
        first = vertical.get_index(database, metrics)
        second = vertical.get_index(database, metrics)
        assert first is second
        assert metrics.counter("cache.hits") == 1
        assert metrics.counter("cache.misses") == 1
        assert database.scans == 1

    def test_mutated_database_invalidates(self):
        database = TransactionDatabase(ROWS)
        metrics = MetricsRegistry()
        vertical.get_index(database, metrics)
        new_rows = ((5, 6), (5,), (6,))
        database._transactions = new_rows
        index = vertical.get_index(database, metrics)
        assert metrics.counter("cache.invalidations") == 1
        assert index.count([(5,), (6,), (5, 6)]) == brute(
            new_rows, [(5,), (6,), (5, 6)]
        )

    def test_invalidate_helper_drops_caches(self):
        database = TransactionDatabase(ROWS)
        vertical.get_index(database)
        vertical.invalidate(database)
        assert database._vertical_index is None


class TestFileBackedInvalidation:
    def test_rewritten_file_invalidates(self, tmp_path):
        path = tmp_path / "baskets.txt"
        path.write_text("1 2\n2 3\n")
        database = FileBackedDatabase(path)
        session = MiningSession(database, engine="cached")
        assert session.count([(1,), (2,)]) == {(1,): 1, (2,): 2}
        path.write_text("1 2\n1 3\n1 4\n")
        assert session.count([(1,), (2,)]) == {(1,): 3, (2,): 1}
        assert session.run_metrics.counter("cache.invalidations") == 1

    def test_cache_token_requires_existing_file(self, tmp_path):
        path = tmp_path / "baskets.txt"
        path.write_text("1 2\n")
        database = FileBackedDatabase(path)
        path.unlink()
        with pytest.raises(DatabaseError):
            database.cache_token()


class TestCachedEngine:
    def test_plain_rows_one_shot(self):
        session = MiningSession(list(ROWS), engine="cached")
        assert session.count(CANDIDATES) == brute(ROWS, CANDIDATES)
        assert session.run_metrics.counter("cache.misses") == 1

    def test_database_pass_accounting(self):
        database = TransactionDatabase(ROWS)
        session = MiningSession(database, engine="cached")
        for _ in range(3):
            session.count(CANDIDATES)
        assert database.scans == 1
        assert database.logical_scans == 3

    def test_empty_candidates_touch_nothing(self):
        database = TransactionDatabase(ROWS)
        assert MiningSession(database, engine="cached").count([]) == {}
        assert database.scans == 0
        assert database.logical_scans == 0


class TestCacheStats:
    """The cache's counters, read back as a run's hit rate."""

    def test_hit_rate(self):
        database = TransactionDatabase(ROWS)
        metrics = MetricsRegistry()
        for _ in range(4):
            vertical.get_index(database, metrics)
        assert MiningStats(metrics=metrics).cache_hit_rate == 0.75

    def test_hit_rate_no_lookups(self):
        assert MiningStats().cache_hit_rate == 0.0
