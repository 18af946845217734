"""Failure-injection and adversarial-input integration tests.

The library must fail loudly and precisely — never silently produce wrong
rules — when fed inconsistent inputs: transactions outside the taxonomy,
degenerate taxonomies, corrupt files, and extreme thresholds.
"""

import pytest

from repro.core.api import mine_negative_rules
from repro.core.candidates import generate_negative_candidates
from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.data.filedb import FileBackedDatabase
from repro.errors import ConfigError, DatabaseError, TaxonomyError
from repro.mining.engines import engine_names
from repro.mining.generalized import mine_generalized
from repro.mining.itemset_index import LargeItemsetIndex
from repro.taxonomy.builders import (
    taxonomy_from_nested,
    taxonomy_from_parents,
)


@pytest.fixture
def taxonomy():
    return taxonomy_from_nested(
        {"drinks": {"soda": ["cola", "lemonade"]}}
    )


class TestForeignItems:
    def test_transaction_item_outside_taxonomy_raises(self, taxonomy):
        database = TransactionDatabase([[taxonomy.id_of("cola"), 9999]])
        with pytest.raises(TaxonomyError, match="9999"):
            mine_generalized(database, taxonomy, 0.5)

    def test_pipeline_propagates_the_error(self, taxonomy):
        database = TransactionDatabase([[9999]])
        with pytest.raises(TaxonomyError):
            mine_negative_rules(database, taxonomy, minsup=0.5, minri=0.5)

    @pytest.mark.parametrize("engine", engine_names())
    def test_every_engine_rejects_the_item(self, taxonomy, engine):
        """The vertical engines never extend rows with ancestors, yet
        they must reject the same input the row-scanning engines do."""
        cola = taxonomy.id_of("cola")
        database = TransactionDatabase([[cola, 9999], [cola]])
        with pytest.raises(TaxonomyError, match="unknown node 9999"):
            mine_negative_rules(
                database, taxonomy, minsup=0.5, minri=0.5,
                engine=engine,
            )

    @pytest.mark.parametrize("engine", ["bitmap", "hashtree", "brute"])
    def test_plain_rows_are_checked_by_the_per_pass_engines(
        self, taxonomy, engine
    ):
        """Plain rows bypass the binding's per-epoch check; the engines
        that read the rows on every pass reject the item themselves."""
        cola = taxonomy.id_of("cola")
        session = MiningSession([[cola, 9999], [cola]], taxonomy, engine)
        with pytest.raises(TaxonomyError, match="unknown node 9999"):
            session.count([(cola,)])

    @pytest.mark.parametrize("engine", engine_names())
    def test_plain_rows_are_rejected_by_every_engine(self, engine):
        """Plain rows have no append epoch to check once against; every
        engine reads them through the binding's per-row check, so the
        vertical and packed engines reject the item too."""
        session = MiningSession(
            [(1, 9999), (2,)], taxonomy_from_parents({1: 100, 2: 100}),
            engine,
        )
        try:
            with pytest.raises(TaxonomyError, match="unknown node 9999"):
                session.count([(1,), (2,)])
        finally:
            session.close()

    @pytest.mark.parametrize("engine", engine_names())
    def test_item_appended_after_a_pass_is_rejected(self, taxonomy, engine):
        """An append re-runs the check, so an index extended in place
        cannot let a foreign item through on the next pass."""
        cola = taxonomy.id_of("cola")
        database = TransactionDatabase([[cola], [cola]])
        session = MiningSession(database, taxonomy, engine)
        try:
            assert session.count([(cola,)]) == {(cola,): 2}
            database.append([[cola, 9999]])
            with pytest.raises(TaxonomyError, match="unknown node 9999"):
                session.count([(cola,)])
        finally:
            session.close()


class TestDegenerateTaxonomies:
    def test_flat_taxonomy_yields_no_candidates(self):
        """All items isolated roots: no children, no siblings — the
        approach has no domain knowledge to work with and must return
        empty results rather than fail."""
        flat = taxonomy_from_parents({}, extra_roots=range(5))
        rows = [[0, 1], [0, 1], [2, 3], [0, 4]]
        result = mine_negative_rules(
            TransactionDatabase(rows), flat, minsup=0.25, minri=0.3
        )
        assert result.rules == []
        assert result.negative_itemsets == []
        assert result.stats.large_itemsets > 0  # positives still found

    def test_single_chain_taxonomy(self):
        """A pure chain (each category exactly one child) offers no
        siblings and single-child replacements: candidates degenerate."""
        chain = taxonomy_from_parents({1: 0, 2: 1, 3: 2})
        rows = [[3]] * 10
        result = mine_negative_rules(
            TransactionDatabase(rows), chain, minsup=0.5, minri=0.5
        )
        assert result.rules == []

    def test_two_level_star(self):
        """One category with many children works and is the worst
        granularity case — candidates exist but stay pairwise."""
        star = taxonomy_from_parents({child: 100 for child in range(6)})
        rows = [[0, 1]] * 40 + [[2]] * 30 + [[3]] * 30
        result = mine_negative_rules(
            TransactionDatabase(rows), star, minsup=0.2, minri=0.3
        )
        for negative in result.negative_itemsets:
            assert len(negative.items) == 2


class TestExtremeThresholds:
    @pytest.fixture
    def dataset(self, taxonomy):
        cola = taxonomy.id_of("cola")
        lemonade = taxonomy.id_of("lemonade")
        rows = [[cola]] * 50 + [[lemonade]] * 50 + [[cola, lemonade]] * 5
        return TransactionDatabase(rows)

    def test_minsup_one_finds_no_rules(self, taxonomy, dataset):
        result = mine_negative_rules(
            dataset, taxonomy, minsup=1.0, minri=0.5
        )
        assert result.rules == []
        assert result.negative_itemsets == []
        # The ancestors of every item are in 100 % of transactions and
        # legitimately remain large even at minsup = 1.
        for items, support in result.large_itemsets.items():
            assert support == pytest.approx(1.0)

    def test_minri_one_is_strictest(self, taxonomy, dataset):
        strict = mine_negative_rules(
            dataset, taxonomy, minsup=0.04, minri=1.0
        )
        loose = mine_negative_rules(
            dataset, taxonomy, minsup=0.04, minri=0.1
        )
        assert len(strict.rules) <= len(loose.rules)

    def test_rules_monotone_in_minri(self, taxonomy, dataset):
        previous = None
        for minri in (0.9, 0.6, 0.3, 0.1):
            result = mine_negative_rules(
                dataset, taxonomy, minsup=0.04, minri=minri
            )
            current = {
                (rule.antecedent, rule.consequent)
                for rule in result.rules
            }
            if previous is not None:
                assert previous <= current
            previous = current


class TestCorruptFiles:
    def test_truncated_basket_file(self, tmp_path):
        path = tmp_path / "broken.basket"
        path.write_text("1 2 3\n4 notanumber\n")
        with pytest.raises(DatabaseError, match="broken.basket:2"):
            FileBackedDatabase(path)

    def test_directory_as_basket_file(self, tmp_path):
        with pytest.raises(DatabaseError):
            FileBackedDatabase(tmp_path)


class TestStaleIndexInputs:
    def test_candidates_with_index_items_missing_from_taxonomy(
        self, taxonomy
    ):
        """An index mentioning nodes the (pruned) taxonomy lost must be
        skipped gracefully — this happens when callers prune harder than
        the index they pass."""
        index = LargeItemsetIndex(
            {(777,): 0.5, (888,): 0.5, (777, 888): 0.4}
        )
        candidates = generate_negative_candidates(
            index, taxonomy, 0.1, 0.5
        )
        assert candidates == {}

    def test_config_errors_are_not_swallowed(self, taxonomy):
        database = TransactionDatabase([[taxonomy.id_of("cola")]])
        with pytest.raises(ConfigError):
            mine_negative_rules(
                database, taxonomy, minsup=0.5, minri=0.5,
                engine="warpdrive",
            )
