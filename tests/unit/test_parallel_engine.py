"""Unit tests for the parallel counting engine and partition driver."""

import multiprocessing
import os

import pytest

import repro.parallel.engine as engine_module
from repro.core.api import MiningConfig, mine_negative_rules
from repro.errors import ConfigError
from repro.mining.apriori import find_large_itemsets
from repro.core.session import MiningSession
from repro.mining.partition import find_large_itemsets_partition
from repro.parallel.engine import (
    ParallelStats,
    parallel_count_supports,
    parallel_partition,
)
from repro.parallel.pool import PoolConfig

CANDIDATES = [(1,), (2,), (1, 2), (2, 3), (1, 2, 3), (4, 5), (6,)]


_REAL_COUNT_SHARD = engine_module._count_shard


def _crashy_count(payload):
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return _REAL_COUNT_SHARD(payload)


class TestParallelCounting:
    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_matches_serial_engine(self, small_database, n_jobs):
        rows = list(small_database)
        expected = MiningSession(rows, engine="bitmap").count(CANDIDATES)
        stats = ParallelStats()
        counts = parallel_count_supports(
            rows, CANDIDATES, n_jobs=n_jobs, stats=stats
        )
        assert counts == expected
        assert stats.shards >= 1

    def test_shard_rows_sizing_changes_no_counts(self, small_database):
        rows = list(small_database)
        expected = MiningSession(rows, engine="bitmap").count(CANDIDATES)
        stats = ParallelStats()
        counts = parallel_count_supports(
            rows, CANDIDATES, n_jobs=2, shard_rows=7, stats=stats
        )
        assert counts == expected
        assert stats.shards == 6  # ceil(40 / 7)

    def test_generalized_counting_matches(
        self, soft_drinks_database, soft_drinks_taxonomy
    ):
        rows = list(soft_drinks_database)
        nodes = sorted(soft_drinks_taxonomy.nodes)
        candidates = [(node,) for node in nodes[:6]] + [tuple(nodes[:2])]
        expected = MiningSession(
            rows, soft_drinks_taxonomy, "brute"
        ).count(candidates, restrict_to_candidate_items=True)
        counts = parallel_count_supports(
            rows,
            candidates,
            taxonomy=soft_drinks_taxonomy,
            restrict_to_candidate_items=True,
            n_jobs=3,
        )
        assert counts == expected

    def test_empty_candidates_short_circuit(self):
        assert parallel_count_supports([(1,)], [], n_jobs=4) == {}

    def test_empty_transactions_count_zero(self):
        counts = parallel_count_supports([], CANDIDATES, n_jobs=4)
        assert counts == dict.fromkeys(CANDIDATES, 0)

    def test_session_routes_parallel_engine(self, small_database):
        rows = list(small_database)
        expected = MiningSession(rows, engine="bitmap").count(CANDIDATES)
        assert MiningSession(
            rows, engine="parallel", n_jobs=2
        ).count(CANDIDATES) == expected
        # A shardable serial spec with n_jobs > 1 auto-wraps.
        assert MiningSession(
            rows, engine="hashtree", n_jobs=2
        ).count(CANDIDATES) == expected

    def test_crashed_workers_retry_then_fall_back(
        self, small_database, monkeypatch
    ):
        monkeypatch.setattr(engine_module, "_count_shard", _crashy_count)
        rows = list(small_database)
        expected = MiningSession(rows, engine="bitmap").count(CANDIDATES)
        stats = ParallelStats()
        counts = parallel_count_supports(
            rows,
            CANDIDATES,
            n_jobs=2,
            pool_config=PoolConfig(n_jobs=2, retries=1, backoff=0.0),
            stats=stats,
        )
        assert counts == expected  # correct despite every worker dying
        assert stats.worker_crashes == 4
        assert stats.worker_retries == 2
        assert stats.worker_fallbacks == 2


class TestParallelPartition:
    def test_matches_serial_partition_and_apriori(self, random_database):
        random_database.reset_scans()
        reference = find_large_itemsets_partition(
            random_database, 0.08, partitions=4
        )
        assert random_database.scans == 2
        random_database.reset_scans()
        stats = ParallelStats()
        parallel = parallel_partition(
            random_database, 0.08, n_jobs=4, stats=stats
        )
        assert random_database.scans == 2  # sharding preserves pass count
        assert sorted(parallel) == sorted(reference)
        for items in reference:
            assert parallel.support(items) == reference.support(items)
        apriori = find_large_itemsets(random_database, 0.08)
        assert sorted(parallel) == sorted(apriori)
        assert stats.shards >= 2

    def test_serial_n_jobs_one(self, small_database):
        small_database.reset_scans()
        reference = find_large_itemsets_partition(
            small_database, 0.2, partitions=2
        )
        small_database.reset_scans()
        result = parallel_partition(
            small_database, 0.2, n_jobs=1, partitions=2
        )
        assert sorted(result) == sorted(reference)

    def test_high_minsup_yields_empty_index(self, small_database):
        result = parallel_partition(small_database, 1.0, n_jobs=2)
        assert len(result) == 0

    def test_rejects_bad_minsup(self, small_database):
        with pytest.raises(ConfigError):
            parallel_partition(small_database, 0.0, n_jobs=2)


class TestPipelineWiring:
    def test_mine_negative_rules_n_jobs_matches_serial(
        self, soft_drinks_database, soft_drinks_taxonomy
    ):
        serial = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.1, minri=0.3,
        )
        parallel = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.1, minri=0.3, n_jobs=2,
        )
        assert [rule.format(soft_drinks_taxonomy)
                for rule in serial.rules] == [
            rule.format(soft_drinks_taxonomy) for rule in parallel.rules
        ]
        assert parallel.stats.data_passes == serial.stats.data_passes
        assert parallel.stats.shards > 0
        assert parallel.stats.worker_tasks > 0
        assert serial.stats.shards == 0

    def test_naive_miner_threads_n_jobs(
        self, soft_drinks_database, soft_drinks_taxonomy
    ):
        serial = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.1, minri=0.3, miner="naive",
        )
        parallel = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.1, minri=0.3, miner="naive", n_jobs=2,
        )
        assert [n.items for n in serial.negative_itemsets] == [
            n.items for n in parallel.negative_itemsets
        ]
        assert parallel.stats.shards > 0

    def test_summary_reports_shards(
        self, soft_drinks_database, soft_drinks_taxonomy
    ):
        result = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy,
            minsup=0.1, minri=0.3, n_jobs=2,
        )
        assert "shards" in result.summary(soft_drinks_taxonomy)

    def test_config_validates_parallel_fields(self):
        with pytest.raises(ConfigError):
            MiningConfig(n_jobs=0)
        with pytest.raises(ConfigError):
            MiningConfig(shard_rows=0)
        assert MiningConfig(n_jobs=4, shard_rows=100).n_jobs == 4

    def test_parallel_engine_name_accepted_by_config(self):
        assert MiningConfig(engine="parallel").engine == "parallel"
