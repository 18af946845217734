"""Unit tests for the Naive and Improved negative-itemset miners."""

import pytest

from repro.core.candidates import generate_negative_candidates
from repro.core.negmining import (
    ImprovedNegativeMiner,
    MiningStats,
    NaiveNegativeMiner,
    NegativeItemset,
)
from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError
from repro.measures.registry import create_measure
from repro.mining.generalized import mine_generalized
from repro.obs.registry import MetricsRegistry
from repro.taxonomy.builders import taxonomy_from_nested
from repro.taxonomy.prune import restrict_to_items


@pytest.fixture
def taxonomy():
    return taxonomy_from_nested(
        {
            "drinks": {
                "soda": ["cola", "lemonade"],
                "water": ["still", "sparkling"],
            },
            "snacks": {"chips": ["salted", "paprika"]},
        }
    )


@pytest.fixture
def database(taxonomy):
    """cola pairs with salted chips; lemonade never does."""
    cola = taxonomy.id_of("cola")
    lemonade = taxonomy.id_of("lemonade")
    salted = taxonomy.id_of("salted")
    still = taxonomy.id_of("still")
    rows = (
        [[cola, salted]] * 30
        + [[cola, still]] * 10
        + [[lemonade, still]] * 25
        + [[lemonade]] * 5
        + [[salted]] * 20
        + [[still]] * 10
    )
    return TransactionDatabase(rows)


class TestImprovedMiner:
    def test_finds_planted_negative(self, database, taxonomy):
        output = ImprovedNegativeMiner(
            database, taxonomy, minsup=0.1, minri=0.3
        ).mine()
        lemonade = taxonomy.id_of("lemonade")
        salted = taxonomy.id_of("salted")
        found = {negative.items for negative in output.negatives}
        assert tuple(sorted((lemonade, salted))) in found

    def test_negatives_meet_deviation_threshold(self, database, taxonomy):
        output = ImprovedNegativeMiner(
            database, taxonomy, minsup=0.1, minri=0.3
        ).mine()
        for negative in output.negatives:
            assert negative.deviation >= 0.1 * 0.3 - 1e-12

    def test_negatives_sorted_by_deviation(self, database, taxonomy):
        output = ImprovedNegativeMiner(
            database, taxonomy, minsup=0.1, minri=0.3
        ).mine()
        deviations = [negative.deviation for negative in output.negatives]
        assert deviations == sorted(deviations, reverse=True)

    def test_pass_budget_is_levels_plus_one(self, database, taxonomy):
        output = ImprovedNegativeMiner(
            database, taxonomy, minsup=0.1, minri=0.3
        ).mine()
        levels = output.large_itemsets.max_size
        # n or n+1 positive passes (a last empty level may be probed)
        # plus exactly one negative counting pass.
        assert levels + 1 <= output.stats.data_passes <= levels + 2
        assert output.stats.counting_batches == 1

    def test_batched_counting_equivalent(self, database, taxonomy):
        whole = ImprovedNegativeMiner(
            database, taxonomy, minsup=0.1, minri=0.3
        ).mine()
        database.reset_scans()
        batched = ImprovedNegativeMiner(
            database,
            taxonomy,
            minsup=0.1,
            minri=0.3,
            max_candidates_in_memory=2,
        ).mine()
        assert [n.items for n in batched.negatives] == [
            n.items for n in whole.negatives
        ]
        assert batched.stats.counting_batches > 1
        assert batched.stats.data_passes > whole.stats.data_passes

    def test_pruning_toggle_does_not_change_output(self, database, taxonomy):
        # The miner generates over the taxonomy with its small
        # 1-itemsets deleted; the full taxonomy gives the same candidates.
        index = mine_generalized(database, taxonomy, 0.1)
        large_singles = [items[0] for items in index.of_size(1)]
        pruned = restrict_to_items(taxonomy, large_singles)
        assert len(pruned) < len(taxonomy)  # paprika, sparkling are small
        full = generate_negative_candidates(index, taxonomy, 0.1, 0.3)
        assert full
        assert generate_negative_candidates(index, pruned, 0.1, 0.3) == full
        database.reset_scans()
        mined = ImprovedNegativeMiner(database, taxonomy, 0.1, 0.3).mine()
        assert mined.candidates == full

    def test_retired_knobs_are_unknown_keywords(self, database, taxonomy):
        for miner, keyword in (
            (ImprovedNegativeMiner, "algorithm"),
            (ImprovedNegativeMiner, "prune_taxonomy"),
            (ImprovedNegativeMiner, "rng"),
            (ImprovedNegativeMiner, "figure3_literal"),
            (NaiveNegativeMiner, "figure3_literal"),
        ):
            with pytest.raises(TypeError, match=keyword):
                miner(database, taxonomy, 0.1, 0.3, **{keyword: None})

    def test_stats_candidate_accounting(self, database, taxonomy):
        output = ImprovedNegativeMiner(
            database, taxonomy, 0.1, 0.3
        ).mine()
        assert output.stats.candidates_generated == len(output.candidates)
        assert output.stats.negative_itemsets == len(output.negatives)
        assert sum(output.stats.candidates_by_size.values()) == len(
            output.candidates
        )

    def test_invalid_thresholds_rejected(self, database, taxonomy):
        with pytest.raises(ConfigError):
            ImprovedNegativeMiner(database, taxonomy, 0.0, 0.5)
        with pytest.raises(ConfigError):
            ImprovedNegativeMiner(database, taxonomy, 0.1, 2.0)
        with pytest.raises(ConfigError):
            ImprovedNegativeMiner(
                database, taxonomy, 0.1, 0.5, max_candidates_in_memory=0
            )


class TestNaiveMiner:
    def test_matches_improved_output(self, database, taxonomy):
        improved = ImprovedNegativeMiner(
            database, taxonomy, 0.1, 0.3
        ).mine()
        database.reset_scans()
        naive = NaiveNegativeMiner(database, taxonomy, 0.1, 0.3).mine()
        assert {n.items for n in naive.negatives} == {
            n.items for n in improved.negatives
        }
        assert dict(naive.large_itemsets.items()) == dict(
            improved.large_itemsets.items()
        )

    def test_makes_more_passes_than_improved(self, database, taxonomy):
        improved = ImprovedNegativeMiner(
            database, taxonomy, 0.1, 0.3
        ).mine()
        database.reset_scans()
        naive = NaiveNegativeMiner(database, taxonomy, 0.1, 0.3).mine()
        levels = naive.large_itemsets.max_size
        # With only 2 levels the schedules tie; Naive can never be cheaper.
        assert naive.stats.data_passes >= improved.stats.data_passes
        # Roughly 2 per level: n level passes + (n-1) candidate passes.
        assert naive.stats.data_passes >= 2 * levels - 1

    def test_expected_supports_match_improved(self, database, taxonomy):
        improved = ImprovedNegativeMiner(
            database, taxonomy, 0.1, 0.3
        ).mine()
        naive = NaiveNegativeMiner(database, taxonomy, 0.1, 0.3).mine()
        improved_map = {
            n.items: n.expected_support for n in improved.negatives
        }
        for negative in naive.negatives:
            assert negative.expected_support == pytest.approx(
                improved_map[negative.items]
            )


class TestFigure3Literal:
    def test_literal_predicate_differs(self, taxonomy):
        # An itemset with low absolute support but low expectation too:
        # the literal predicate admits it, the deviation predicate does
        # not necessarily — build a case where the two disagree.
        cola = taxonomy.id_of("cola")
        lemonade = taxonomy.id_of("lemonade")
        salted = taxonomy.id_of("salted")
        paprika = taxonomy.id_of("paprika")
        rows = (
            [[cola, salted]] * 45
            + [[lemonade, paprika]] * 45
            + [[cola, paprika]] * 5
            + [[lemonade, salted]] * 5
        )
        database = TransactionDatabase(rows)
        deviation = ImprovedNegativeMiner(
            database, taxonomy, 0.2, 0.5
        ).mine()
        database.reset_scans()
        literal = ImprovedNegativeMiner(
            database, taxonomy, 0.2, 0.5,
            measure=create_measure("ri", figure3_literal=True),
        ).mine()
        literal_items = {n.items for n in literal.negatives}
        for negative in literal.negatives:
            assert negative.actual_support < 0.2 * 0.5
        # Both find the planted anti-pairs.
        assert (min(cola, paprika), max(cola, paprika)) in literal_items
        assert deviation.negatives  # deviation predicate finds some too


class TestNegativeItemsetType:
    def test_deviation_property(self):
        negative = NegativeItemset(
            items=(1, 2),
            expected_support=0.3,
            actual_support=0.1,
            source=(5, 6),
            case="children",
        )
        assert negative.deviation == pytest.approx(0.2)


class TestMiningStatsSummary:
    def test_reports_cache_hit_rate_and_pass_ratio(self):
        metrics = MetricsRegistry()
        metrics.incr("cache.hits", 3)
        metrics.incr("cache.misses", 1)
        metrics.max_gauge("cache.bytes", 1024)
        stats = MiningStats(data_passes=4, physical_passes=1, metrics=metrics)
        assert stats.cache_hit_rate == pytest.approx(0.75)
        text = stats.summary()
        # Four logical passes served by one physical read.
        assert "data passes    : 4" in text
        assert "physical passes: 1" in text
        assert "3/4 hits (75%)" in text
        assert "1024 bytes" in text

    def test_omits_cache_line_when_cache_unused(self):
        text = MiningStats(data_passes=3, physical_passes=3).summary()
        assert "hits" not in text
        # One physical read per logical pass: no separate physical line.
        assert "data passes    : 3" in text
        assert "physical passes" not in text

    def test_zero_passes_no_ratio_line(self):
        text = MiningStats().summary()
        assert "physical passes" not in text
        assert MiningStats().cache_hit_rate == 0.0


class TestCachedEngineMiners:
    def test_improved_cached_matches_bitmap(self, database, taxonomy):
        expected = ImprovedNegativeMiner(
            database, taxonomy, 0.15, 0.4
        ).mine()
        database.reset_scans()
        cached = ImprovedNegativeMiner(
            database, taxonomy, 0.15, 0.4,
            session=MiningSession(database, taxonomy, "cached"),
        ).mine()
        assert cached.negatives == expected.negatives
        assert dict(cached.large_itemsets.items()) == dict(
            expected.large_itemsets.items()
        )
        # Same logical pass schedule, fewer physical reads.
        assert cached.stats.data_passes == expected.stats.data_passes
        assert cached.stats.physical_passes < cached.stats.data_passes
        assert cached.stats.metrics.counter("cache.hits") > 0

    def test_naive_cached_matches_bitmap(self, database, taxonomy):
        expected = NaiveNegativeMiner(database, taxonomy, 0.15, 0.4).mine()
        database.reset_scans()
        cached = NaiveNegativeMiner(
            database, taxonomy, 0.15, 0.4,
            session=MiningSession(database, taxonomy, "cached"),
        ).mine()
        assert cached.negatives == expected.negatives
        assert cached.stats.data_passes == expected.stats.data_passes
        assert cached.stats.physical_passes < cached.stats.data_passes
