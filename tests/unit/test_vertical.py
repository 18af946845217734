"""Unit tests for the persistent vertical bitmap index cache."""

import pickle

import pytest

from repro.data.database import TransactionDatabase
from repro.data.filedb import FileBackedDatabase
from repro.errors import DatabaseError
from repro.mining import vertical
from repro.core.session import MiningSession
from repro.mining.vertical import CacheStats, VerticalIndex
from repro.taxonomy.builders import taxonomy_from_parents

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

    def test_budget_evicts_lru_and_restores_on_demand(self):
        database = TransactionDatabase(ROWS)
        index = VerticalIndex.build(database, budget_bytes=1)
        assert index.evictions > 0
        stats = CacheStats()
        # Every count must still be exact: evicted bitmaps are restored
        # by a targeted physical pass, never guessed.
        assert index.count(CANDIDATES, stats=stats) == brute(ROWS, CANDIDATES)
        assert stats.rebuilt_items > 0

    def test_evicted_without_source_raises(self):
        database = TransactionDatabase(ROWS)
        index = VerticalIndex.build(database, budget_bytes=1)
        index._source = None
        with pytest.raises(DatabaseError):
            index.count(CANDIDATES)

    def test_budget_must_be_positive(self):
        database = TransactionDatabase(ROWS)
        with pytest.raises(Exception):
            VerticalIndex.build(database, budget_bytes=0)


class TestGetIndex:
    def test_second_call_hits_cache(self):
        database = TransactionDatabase(ROWS)
        stats = CacheStats()
        first = vertical.get_index(database, stats=stats)
        second = vertical.get_index(database, stats=stats)
        assert first is second
        assert (stats.hits, stats.misses) == (1, 1)
        assert database.scans == 1

    def test_mutated_database_invalidates(self):
        database = TransactionDatabase(ROWS)
        stats = CacheStats()
        vertical.get_index(database, stats=stats)
        new_rows = ((5, 6), (5,), (6,))
        database._transactions = new_rows
        index = vertical.get_index(database, stats=stats)
        assert stats.invalidations == 1
        assert index.count([(5,), (6,), (5, 6)]) == brute(
            new_rows, [(5,), (6,), (5, 6)]
        )

    def test_invalidate_helper_drops_caches(self):
        database = TransactionDatabase(ROWS)
        vertical.get_index(database)
        vertical.get_shard_indexes(database, n_shards=2)
        vertical.invalidate(database)
        assert database._vertical_index is None
        assert database._shard_cache is None


class TestFileBackedInvalidation:
    def test_rewritten_file_invalidates(self, tmp_path):
        path = tmp_path / "baskets.txt"
        path.write_text("1 2\n2 3\n")
        database = FileBackedDatabase(path)
        session = MiningSession(database, engine="cached")
        assert session.count([(1,), (2,)]) == {(1,): 1, (2,): 2}
        path.write_text("1 2\n1 3\n1 4\n")
        assert session.count([(1,), (2,)]) == {(1,): 3, (2,): 1}
        assert session.cache_stats.invalidations == 1

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
        assert session.cache_stats.misses == 1

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

    def test_cache_bytes_budget_stays_exact(self):
        database = TransactionDatabase(ROWS)
        session = MiningSession(database, engine="cached", cache_bytes=1)
        for _ in range(2):
            assert session.count(CANDIDATES) == brute(ROWS, CANDIDATES)
        assert session.cache_stats.evictions > 0
        assert session.cache_stats.rebuilt_items > 0

    def test_budget_does_not_outlive_its_session(self):
        """An unbounded session after a bounded one on the same database
        neither evicts nor re-reads the rows pass after pass."""
        database = TransactionDatabase(ROWS)
        bounded = MiningSession(database, engine="cached", cache_bytes=1)
        bounded.count(CANDIDATES)
        assert bounded.cache_stats.evictions > 0
        scans = database.scans
        unbounded = MiningSession(database, engine="cached")
        for candidates in ([(1,)], [(2,)], [(3, 4)], CANDIDATES):
            assert unbounded.count(candidates) == brute(ROWS, candidates)
        assert unbounded.cache_stats.evictions == 0
        # One pass restores what the bounded session evicted: the same
        # single read a cold unbounded session spends on its build.
        assert database.scans == scans + 1


class TestShardIndexes:
    def test_layout_reuse_and_change(self):
        database = TransactionDatabase(ROWS)
        stats = CacheStats()
        first = vertical.get_shard_indexes(
            database, n_shards=2, stats=stats
        )
        again = vertical.get_shard_indexes(
            database, n_shards=2, stats=stats
        )
        assert first is again
        assert (stats.hits, stats.misses) == (1, 1)
        other = vertical.get_shard_indexes(
            database, n_shards=3, stats=stats
        )
        assert other is not first
        assert stats.invalidations == 1

    def test_shard_counts_sum_to_serial(self):
        database = TransactionDatabase(ROWS)
        indexes = vertical.get_shard_indexes(database, n_shards=3)
        totals = dict.fromkeys(CANDIDATES, 0)
        for index in indexes:
            for items, count in index.count(CANDIDATES).items():
                totals[items] += count
        assert totals == brute(ROWS, CANDIDATES)


class TestCacheStats:
    def test_hit_rate(self):
        stats = CacheStats(hits=3, misses=1)
        assert stats.hit_rate == 0.75

    def test_hit_rate_no_lookups(self):
        assert CacheStats().hit_rate == 0.0
