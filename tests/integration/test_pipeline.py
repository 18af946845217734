"""End-to-end pipeline integration tests on synthetic data."""

import pytest

from repro.core.api import MiningConfig, mine_negative_rules
from repro.core.negmining import ImprovedNegativeMiner, NaiveNegativeMiner
from repro.mining.generalized import mine_generalized
from repro.synthetic.generator import generate_dataset
from repro.synthetic.params import GeneratorParams

PARAMS = GeneratorParams(
    num_transactions=1200,
    num_items=300,
    num_roots=8,
    num_clusters=40,
    fanout=5.0,
    avg_transaction_size=6.0,
    avg_itemset_size=4.0,
    avg_cluster_size=3.0,
)
MINSUP = 0.12
MINRI = 0.5


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(PARAMS, seed=77)


@pytest.fixture(scope="module")
def result(dataset):
    return mine_negative_rules(
        dataset.database, dataset.taxonomy, minsup=MINSUP, minri=MINRI
    )


class TestPipelineInvariants:
    def test_produces_rules(self, result):
        assert result.rules
        assert result.negative_itemsets

    def test_rule_sides_partition_negative_itemsets(self, result):
        negative_sets = {n.items for n in result.negative_itemsets}
        for rule in result.rules:
            assert set(rule.antecedent).isdisjoint(rule.consequent)
            assert rule.items in negative_sets

    def test_rule_sides_are_large(self, result):
        for rule in result.rules:
            assert result.large_itemsets.is_large(rule.antecedent)
            assert result.large_itemsets.is_large(rule.consequent)
            assert rule.antecedent_support >= MINSUP
            assert rule.consequent_support >= MINSUP

    def test_ri_recomputable(self, result):
        for rule in result.rules:
            recomputed = (
                rule.expected_support - rule.actual_support
            ) / rule.antecedent_support
            assert rule.ri == pytest.approx(recomputed)
            assert rule.ri >= MINRI

    def test_negative_itemsets_not_large(self, result):
        for negative in result.negative_itemsets:
            assert negative.items not in result.large_itemsets

    def test_negative_itemsets_below_expectation(self, result):
        for negative in result.negative_itemsets:
            assert negative.actual_support < negative.expected_support
            assert negative.deviation >= MINSUP * MINRI - 1e-12

    def test_candidates_cover_negatives(self, result):
        for negative in result.negative_itemsets:
            assert negative.items in result.candidates


class TestMinerEquivalence:
    def test_naive_equals_improved(self, dataset):
        improved = ImprovedNegativeMiner(
            dataset.database, dataset.taxonomy, MINSUP, MINRI
        ).mine()
        naive = NaiveNegativeMiner(
            dataset.database, dataset.taxonomy, MINSUP, MINRI
        ).mine()
        assert {n.items for n in naive.negatives} == {
            n.items for n in improved.negatives
        }
        improved_actual = {
            n.items: n.actual_support for n in improved.negatives
        }
        for negative in naive.negatives:
            assert negative.actual_support == pytest.approx(
                improved_actual[negative.items]
            )

    def test_naive_costs_more_passes_at_depth(self, dataset):
        """With 3+ levels the 2n vs n+1 schedule gap must show."""
        improved = ImprovedNegativeMiner(
            dataset.database, dataset.taxonomy, MINSUP, MINRI
        ).mine()
        naive = NaiveNegativeMiner(
            dataset.database, dataset.taxonomy, MINSUP, MINRI
        ).mine()
        levels = improved.large_itemsets.max_size
        if levels >= 3:
            assert naive.stats.data_passes > improved.stats.data_passes

    def test_batching_is_output_invariant(self, dataset):
        whole = ImprovedNegativeMiner(
            dataset.database, dataset.taxonomy, MINSUP, MINRI
        ).mine()
        batched = ImprovedNegativeMiner(
            dataset.database,
            dataset.taxonomy,
            MINSUP,
            MINRI,
            max_candidates_in_memory=50,
        ).mine()
        assert [n.items for n in batched.negatives] == [
            n.items for n in whole.negatives
        ]


class TestConfigurationEquivalence:
    @pytest.fixture(scope="class")
    def small_dataset(self):
        """A reduced dataset for the slow-engine comparisons."""
        params = GeneratorParams(
            num_transactions=300,
            num_items=120,
            num_roots=5,
            num_clusters=20,
            fanout=4.0,
            avg_transaction_size=5.0,
            avg_itemset_size=3.0,
            avg_cluster_size=3.0,
        )
        return generate_dataset(params, seed=3)

    @pytest.fixture(scope="class")
    def hashtree_result(self, small_dataset):
        return mine_negative_rules(
            small_dataset.database, small_dataset.taxonomy,
            minsup=MINSUP, minri=MINRI, engine="hashtree",
        )

    @pytest.mark.parametrize("engine", ["bitmap", "brute"])
    def test_engines_agree_with_hashtree(
        self, small_dataset, hashtree_result, engine
    ):
        other = mine_negative_rules(
            small_dataset.database, small_dataset.taxonomy,
            minsup=MINSUP, minri=MINRI, engine=engine,
        )
        assert {
            (r.antecedent, r.consequent) for r in hashtree_result.rules
        } == {(r.antecedent, r.consequent) for r in other.rules}

    def test_config_round_trip(self, dataset):
        config = MiningConfig(minsup=MINSUP, minri=MINRI, miner="improved")
        result = mine_negative_rules(
            dataset.database, dataset.taxonomy, config=config
        )
        assert result.config == config


class TestPositiveSubstrateConsistency:
    def test_pipeline_large_itemsets_match_direct_mining(self, dataset):
        direct = mine_generalized(
            dataset.database, dataset.taxonomy, MINSUP
        )
        result = mine_negative_rules(
            dataset.database, dataset.taxonomy, minsup=MINSUP, minri=MINRI
        )
        assert dict(result.large_itemsets.items()) == dict(direct.items())
