"""Unit tests for apriori-gen and the level-wise miner."""

import pytest

from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError
from repro.mining.apriori import apriori_gen, find_large_itemsets


class TestAprioriGen:
    def test_classic_join(self):
        assert apriori_gen([(1, 2), (1, 3), (2, 3)]) == [(1, 2, 3)]

    def test_prune_removes_unsupported_subset(self):
        # (2, 3) missing -> (1, 2, 3) must be pruned.
        assert apriori_gen([(1, 2), (1, 3)]) == []

    def test_from_singletons(self):
        assert apriori_gen([(1,), (2,), (3,)]) == [(1, 2), (1, 3), (2, 3)]

    def test_empty_input(self):
        assert apriori_gen([]) == []

    def test_agrawal_srikant_paper_example(self):
        # L3 = {123, 124, 134, 135, 234}; C4 = {1234} (1345 pruned).
        large = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (1, 3, 5), (2, 3, 4)]
        assert apriori_gen(large) == [(1, 2, 3, 4)]

    def test_candidates_are_canonical_and_unique(self):
        candidates = apriori_gen([(1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
                                  (3, 4)])
        assert len(candidates) == len(set(candidates))
        assert all(
            list(candidate) == sorted(candidate) for candidate in candidates
        )


class TestFindLargeItemsets:
    def test_known_small_example(self):
        database = TransactionDatabase(
            [[1, 2, 3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]
        )
        index = find_large_itemsets(database, 0.6)
        assert index.support((1,)) == pytest.approx(0.8)
        assert index.support((1, 2)) == pytest.approx(0.6)
        assert index.support((2, 3)) == pytest.approx(0.6)
        assert (1, 2, 3) not in index  # support 0.4 < 0.6

    def test_all_items_small(self):
        database = TransactionDatabase([[i] for i in range(10)])
        index = find_large_itemsets(database, 0.5)
        assert len(index) == 0

    def test_max_size_caps_mining(self, small_database):
        capped = find_large_itemsets(small_database, 0.2, max_size=1)
        assert capped.max_size == 1

    def test_min_support_boundary_is_inclusive(self):
        database = TransactionDatabase([[1], [1], [2], [3]])
        index = find_large_itemsets(database, 0.5)
        assert (1,) in index  # exactly 0.5

    def test_deep_itemsets(self):
        # Every transaction identical: the lattice goes to full depth.
        database = TransactionDatabase([[1, 2, 3, 4]] * 10)
        index = find_large_itemsets(database, 0.9)
        assert (1, 2, 3, 4) in index
        assert len(index) == 15  # all non-empty subsets

    def test_downward_closure(self, random_database):
        index = find_large_itemsets(random_database, 0.1)
        for items, _support in index.items():
            if len(items) < 2:
                continue
            for drop in range(len(items)):
                subset = items[:drop] + items[drop + 1:]
                assert subset in index

    def test_supports_decrease_with_size(self, random_database):
        index = find_large_itemsets(random_database, 0.1)
        for items, support in index.items():
            for drop in range(len(items)):
                subset = items[:drop] + items[drop + 1:]
                if subset:
                    assert index.support(subset) >= support - 1e-12

    @pytest.mark.parametrize("engine", ["bitmap", "hashtree", "brute"])
    def test_engines_equivalent(self, small_database, engine):
        baseline = find_large_itemsets(
            small_database, 0.2, MiningSession(small_database, engine="brute")
        )
        small_database.reset_scans()
        other = find_large_itemsets(
            small_database, 0.2, MiningSession(small_database, engine=engine)
        )
        assert other == baseline

    def test_pass_count_is_levels(self, small_database):
        # One logical pass per level; possibly one extra pass that finds
        # nothing. The default engine reads the rows physically once.
        index = find_large_itemsets(small_database, 0.2)
        logical = small_database.logical_scans
        assert index.max_size <= logical <= index.max_size + 1
        assert small_database.scans == 1

    def test_row_scanning_engine_reads_once_per_level(self, small_database):
        session = MiningSession(small_database, engine="bitmap")
        index = find_large_itemsets(small_database, 0.2, session)
        assert index.max_size <= small_database.scans <= index.max_size + 1
        assert small_database.scans == small_database.logical_scans

    @pytest.mark.parametrize("minsup", [0.0, -0.5, 1.5])
    def test_invalid_minsup_rejected(self, small_database, minsup):
        with pytest.raises(ConfigError):
            find_large_itemsets(small_database, minsup)
