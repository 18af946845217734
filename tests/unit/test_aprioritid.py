"""Unit tests for AprioriTid and AprioriHybrid."""

import pytest

from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError
from repro.mining.apriori import find_large_itemsets
from repro.mining.aprioritid import (
    find_large_itemsets_aprioritid,
    find_large_itemsets_hybrid,
)


class TestAprioriTid:
    def test_matches_apriori_small(self, small_database):
        reference = find_large_itemsets(small_database, 0.2)
        small_database.reset_scans()
        tid = find_large_itemsets_aprioritid(small_database, 0.2)
        assert tid == reference

    @pytest.mark.parametrize("minsup", [0.05, 0.1, 0.3])
    def test_matches_apriori_random(self, random_database, minsup):
        reference = find_large_itemsets(random_database, minsup)
        tid = find_large_itemsets_aprioritid(random_database, minsup)
        assert tid == reference

    def test_single_data_pass(self, random_database):
        random_database.reset_scans()
        find_large_itemsets_aprioritid(random_database, 0.1)
        assert random_database.scans == 1

    def test_max_size_cap(self, random_database):
        index = find_large_itemsets_aprioritid(
            random_database, 0.05, max_size=2
        )
        assert index.max_size <= 2

    def test_nothing_large(self):
        database = TransactionDatabase([[i] for i in range(20)])
        index = find_large_itemsets_aprioritid(database, 0.5)
        assert len(index) == 0

    def test_deep_itemsets(self):
        # Every transaction identical: the lattice goes to full depth.
        database = TransactionDatabase([[1, 2, 3, 4]] * 10)
        index = find_large_itemsets_aprioritid(database, 0.9)
        assert (1, 2, 3, 4) in index
        assert len(index) == 15  # all non-empty subsets

    def test_bad_minsup(self, random_database):
        with pytest.raises(ConfigError):
            find_large_itemsets_aprioritid(random_database, 0.0)


class TestAprioriHybrid:
    @pytest.mark.parametrize("budget", [1, 100, 10_000, 10_000_000])
    def test_matches_apriori_at_any_switch_point(
        self, random_database, budget
    ):
        reference = find_large_itemsets(random_database, 0.1)
        hybrid = find_large_itemsets_hybrid(
            random_database, 0.1, switch_budget=budget
        )
        assert hybrid == reference

    def test_small_budget_switches_late(self, random_database):
        """With a tiny budget the hybrid behaves like plain Apriori and
        makes one pass per level (no early switch)."""
        random_database.reset_scans()
        index = find_large_itemsets_hybrid(
            random_database, 0.1, switch_budget=1
        )
        # At least one logical pass per level was made. The default
        # engine serves the counted ones from a single physical scan; the
        # only other read is the image build of the switch at the end.
        assert random_database.logical_scans >= index.max_size
        assert random_database.scans == 2

    def test_small_budget_row_scans_once_per_level(self, random_database):
        random_database.reset_scans()
        index = find_large_itemsets_hybrid(
            random_database, 0.1, switch_budget=1,
            session=MiningSession(random_database, engine="bitmap"),
        )
        assert random_database.scans >= index.max_size
        assert random_database.scans == random_database.logical_scans

    def test_huge_budget_switches_early(self, random_database):
        """With a huge budget the switch happens right after level 2."""
        random_database.reset_scans()
        find_large_itemsets_hybrid(
            random_database, 0.1, switch_budget=10_000_000
        )
        # L1 pass + L2 pass + one image-building pass = 3, regardless of
        # the lattice depth beyond that.
        assert random_database.scans <= 3

    def test_max_size_cap(self, random_database):
        index = find_large_itemsets_hybrid(
            random_database, 0.05, max_size=2
        )
        assert index.max_size <= 2

    def test_bad_budget(self, random_database):
        with pytest.raises(ConfigError):
            find_large_itemsets_hybrid(
                random_database, 0.1, switch_budget=0
            )
