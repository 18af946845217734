"""Unit tests for on-target selective rule generation.

The key property is *soundness*: every rule a selective run emits must
be exact and must also appear in a full offline mining run at the same
thresholds. Completeness around the target follows on these small
datasets because the whole item universe fits in the neighborhood
budget.
"""

import pytest

from repro.core.api import MiningConfig, mine_negative_rules
from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.errors import ConfigError, ServingError
from repro.obs.api import obs_session
from repro.obs.registry import MetricsRegistry
from repro.serve import mine_selective
from repro.taxonomy.builders import taxonomy_from_nested


@pytest.fixture
def taxonomy():
    return taxonomy_from_nested(
        {"drinks": {"soda": ["cola", "lemonade"], "water": ["still"]}}
    )


@pytest.fixture
def database(taxonomy):
    cola = taxonomy.id_of("cola")
    lemonade = taxonomy.id_of("lemonade")
    still = taxonomy.id_of("still")
    rows = [[cola, still]] * 40 + [[lemonade]] * 40 + [[cola]] * 20
    return TransactionDatabase(rows)


class TestSoundness:
    def test_rules_match_the_full_run_exactly(self, database, taxonomy):
        full = mine_negative_rules(
            database, taxonomy,
            config=MiningConfig(minsup=0.2, minri=0.3),
        )
        for name in ("cola", "lemonade", "still"):
            target = taxonomy.id_of(name)
            result = mine_selective(
                database, taxonomy, target, minsup=0.2, minri=0.3
            )
            expected = {
                rule for rule in full.rules if target in rule.items
            }
            assert set(result.negative_rules) == expected
            assert all(
                target in rule.items for rule in result.negative_rules
            )

    def test_supports_are_exact(self, database, taxonomy):
        lemonade = taxonomy.id_of("lemonade")
        result = mine_selective(
            database, taxonomy, lemonade, minsup=0.2, minri=0.3
        )
        # lemonade appears in 40/100 transactions.
        assert result.large_itemsets.support((lemonade,)) == 0.4

    def test_positive_rules_mention_the_target(self, database, taxonomy):
        cola = taxonomy.id_of("cola")
        result = mine_selective(
            database, taxonomy, cola, minsup=0.2, minri=0.3,
            minconf=0.5,
        )
        assert result.positive_rules
        for rule in result.positive_rules:
            assert (
                cola in rule.antecedent or cola in rule.consequent
            )


class TestEdges:
    def test_small_target_returns_empty_result(self, taxonomy):
        cola = taxonomy.id_of("cola")
        lemonade = taxonomy.id_of("lemonade")
        rows = [[cola]] * 99 + [[lemonade]]  # lemonade: 1% < minsup
        database = TransactionDatabase(rows)
        result = mine_selective(
            database, taxonomy, lemonade, minsup=0.2, minri=0.3
        )
        assert result.negative_rules == []
        assert result.positive_rules == []
        assert result.neighborhood == ()
        assert result.stats.data_passes == 1  # the singles pass only

    def test_unknown_target_rejected(self, database, taxonomy):
        with pytest.raises(ServingError):
            mine_selective(
                database, taxonomy, 424242, minsup=0.2, minri=0.3
            )

    def test_bad_thresholds_rejected(self, database, taxonomy):
        cola = taxonomy.id_of("cola")
        with pytest.raises(ConfigError):
            mine_selective(database, taxonomy, cola, minsup=0.0,
                           minri=0.3)

    def test_bad_neighborhood_budget_rejected(self, database, taxonomy):
        cola = taxonomy.id_of("cola")
        with pytest.raises(ServingError):
            mine_selective(database, taxonomy, cola, minsup=0.2,
                           minri=0.3, max_neighbors=0)

    def test_category_target_works(self, database, taxonomy):
        soda = taxonomy.id_of("soda")
        result = mine_selective(
            database, taxonomy, soda, minsup=0.2, minri=0.3
        )
        assert all(soda in rule.items for rule in result.negative_rules)


class TestSessionIntegration:
    def test_counters_land_under_serving(self, database, taxonomy):
        lemonade = taxonomy.id_of("lemonade")
        session = MiningSession(database, taxonomy)
        registry = MetricsRegistry()
        with obs_session(registry=registry):
            result = mine_selective(
                database, taxonomy, lemonade, minsup=0.2, minri=0.3,
                session=session,
            )
        assert registry.counter("serving.runs") == 1
        assert registry.counter("serving.data_passes") == (
            result.stats.data_passes
        )
        assert registry.counter("mine.runs") == 0

    def test_session_is_reusable_across_targets(self, database,
                                                taxonomy):
        session = MiningSession(database, taxonomy)
        first = mine_selective(
            database, taxonomy, taxonomy.id_of("lemonade"),
            minsup=0.2, minri=0.3, session=session,
        )
        second = mine_selective(
            database, taxonomy, taxonomy.id_of("still"),
            minsup=0.2, minri=0.3, session=session,
        )
        assert first.negative_rules and second.negative_rules

    def test_works_with_every_registered_serial_engine(self, database,
                                                       taxonomy):
        from repro.mining.engines import registered_engines

        lemonade = taxonomy.id_of("lemonade")
        reference = mine_selective(
            database, taxonomy, lemonade, minsup=0.2, minri=0.3
        )
        for name, cls in registered_engines().items():
            if cls.capabilities.shared_memory:
                continue
            session = MiningSession(database, taxonomy, engine=name)
            result = mine_selective(
                database, taxonomy, lemonade, minsup=0.2, minri=0.3,
                session=session,
            )
            assert result.negative_rules == reference.negative_rules, name
