"""Unit tests for generalized mining (Cumulate)."""

import random

import pytest

from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError
from repro.mining.generalized import (
    contains_item_and_ancestor,
    iter_generalized_levels,
    mine_generalized,
)
from repro.taxonomy.builders import taxonomy_from_parents


@pytest.fixture
def taxonomy():
    """clothes(0) -> outerwear(1) -> jackets(3), ski pants(4);
    clothes(0) -> shirts(2); footwear(5) -> shoes(6), boots(7)."""
    return taxonomy_from_parents(
        {1: 0, 2: 0, 3: 1, 4: 1, 6: 5, 7: 5}
    )


@pytest.fixture
def database():
    """The worked example of the Srikant-Agrawal generalized-rules paper."""
    return TransactionDatabase(
        [
            [2, 3],       # shirt, jacket
            [3],          # jacket
            [4],          # ski pants
            [6],          # shoes
            [7],          # boots
            [3, 7],       # jacket, boots
        ]
    )


class TestSupportSemantics:
    def test_category_accumulates_descendants(self, taxonomy, database):
        index = mine_generalized(database, taxonomy, minsup=1 / 6)
        # outerwear = jackets(3x) + ski pants(1x) = 4 transactions.
        assert index.support((1,)) == pytest.approx(4 / 6)
        # clothes = union of outerwear/shirt transactions; the shirt
        # co-occurs with a jacket, so still 4 distinct transactions.
        assert index.support((0,)) == pytest.approx(4 / 6)
        # footwear = shoes + boots = 3 transactions.
        assert index.support((5,)) == pytest.approx(3 / 6)

    def test_cross_level_itemset(self, taxonomy, database):
        index = mine_generalized(database, taxonomy, minsup=1 / 6)
        # {outerwear, footwear}: only transaction [jacket, boots].
        assert index.support((1, 5)) == pytest.approx(1 / 6)

    def test_cumulate_prunes_item_with_ancestor(self, taxonomy, database):
        index = mine_generalized(database, taxonomy, minsup=1 / 6)
        assert (1, 3) not in index  # jackets with its ancestor outerwear

    def test_minsup_filters(self, taxonomy, database):
        index = mine_generalized(database, taxonomy, minsup=0.5)
        assert (1,) in index   # outerwear 4/6
        assert (6,) not in index  # shoes 1/6


class TestAlgorithmEquivalence:
    @pytest.fixture
    def random_setup(self):
        rng = random.Random(5)
        taxonomy = taxonomy_from_parents(
            {child: (child - 1) // 3 for child in range(1, 40)}
        )
        leaves = sorted(taxonomy.leaves)
        rows = [
            rng.sample(leaves, rng.randint(1, 6)) for _ in range(300)
        ]
        return taxonomy, TransactionDatabase(rows)

    def test_engines_equivalent(self, random_setup):
        taxonomy, database = random_setup
        results = [
            mine_generalized(
                database,
                taxonomy,
                0.05,
                session=MiningSession(database, taxonomy, engine),
            )
            for engine in ("bitmap", "hashtree", "brute")
        ]
        assert all(result == results[0] for result in results)


class TestIterLevels:
    def test_levels_partition_the_index(self, taxonomy, database):
        levels = list(
            iter_generalized_levels(database, taxonomy, 1 / 6)
        )
        merged = {
            items: support
            for level in levels
            for items, support in level.items()
        }
        index = mine_generalized(database, taxonomy, 1 / 6)
        assert merged == dict(index.items())

    def test_level_k_contains_size_k(self, taxonomy, database):
        for number, level in enumerate(
            iter_generalized_levels(database, taxonomy, 1 / 6), start=1
        ):
            assert all(len(items) == number for items in level)

    def test_one_pass_per_level(self, taxonomy, database):
        levels = list(iter_generalized_levels(database, taxonomy, 1 / 6))
        assert database.logical_scans >= len(levels)
        assert database.scans == 1

    def test_row_scanning_engine_reads_once_per_level(
        self, taxonomy, database
    ):
        levels = list(
            iter_generalized_levels(
                database, taxonomy, 1 / 6,
                session=MiningSession(database, taxonomy, "bitmap"),
            )
        )
        assert database.scans >= len(levels)
        assert database.scans == database.logical_scans


class TestValidation:
    def test_unknown_algorithm(self, taxonomy, database):
        # Cumulate is the one generalized miner: the retired choice and
        # the sampling knobs fail like any unknown keyword.
        for keyword, value in (
            ("algorithm", "cumulate"),
            ("sample_fraction", 0.1),
            ("estimation_slack", 0.9),
            ("rng", None),
        ):
            with pytest.raises(TypeError, match=keyword):
                mine_generalized(database, taxonomy, 0.5, **{keyword: value})

    def test_bad_minsup(self, taxonomy, database):
        with pytest.raises(ConfigError):
            mine_generalized(database, taxonomy, 0.0)

    def test_max_size_respected(self, taxonomy, database):
        index = mine_generalized(database, taxonomy, 1 / 6, max_size=1)
        assert index.max_size == 1

    def test_contains_item_and_ancestor(self, taxonomy):
        assert contains_item_and_ancestor((0, 3), taxonomy)
        assert contains_item_and_ancestor((1, 3), taxonomy)
        assert not contains_item_and_ancestor((3, 4), taxonomy)
        assert not contains_item_and_ancestor((3, 6), taxonomy)
