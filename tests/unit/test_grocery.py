"""Unit tests for the curated grocery world."""

import pytest

from repro.core.api import mine_negative_rules
from repro.errors import GenerationError
from repro.synthetic.grocery import (
    DEFAULT_PERSONAS,
    Persona,
    generate_grocery_dataset,
    grocery_taxonomy,
    taxonomy_children_names,
)


class TestGroceryTaxonomy:
    def test_structure(self):
        taxonomy = grocery_taxonomy()
        cola = taxonomy.id_of("cola")
        assert taxonomy.parent(cola) == taxonomy.id_of("beverages")
        assert taxonomy.id_of("KolaRed") in taxonomy.leaves
        assert taxonomy.height == 2

    def test_all_brands_are_leaves(self):
        taxonomy = grocery_taxonomy()
        for category in ("cola", "chips", "cereal"):
            for brand in taxonomy_children_names(category):
                assert taxonomy.is_leaf(taxonomy.id_of(brand))

    def test_unknown_category_raises(self):
        with pytest.raises(GenerationError):
            taxonomy_children_names("unicorn food")


class TestGenerateGroceryDataset:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_grocery_dataset(num_transactions=3000, seed=4)

    def test_transaction_count(self, dataset):
        assert len(dataset.database) == 3000

    def test_only_brand_leaves_in_baskets(self, dataset):
        leaves = dataset.taxonomy.leaves
        for row in dataset.database:
            assert all(item in leaves for item in row)

    def test_deterministic(self, dataset):
        again = generate_grocery_dataset(num_transactions=3000, seed=4)
        assert list(again.database) == list(dataset.database)

    def test_loyalty_shows_in_the_data(self, dataset):
        """KolaRed and KolaBlue must rarely share a basket."""
        taxonomy = dataset.taxonomy
        red, blue = taxonomy.id_of("KolaRed"), taxonomy.id_of("KolaBlue")
        both = sum(
            1 for row in dataset.database if red in row and blue in row
        )
        either = sum(
            1 for row in dataset.database if red in row or blue in row
        )
        assert either > 500
        assert both / either < 0.02

    def test_validation(self):
        with pytest.raises(GenerationError):
            generate_grocery_dataset(num_transactions=0)
        with pytest.raises(GenerationError):
            generate_grocery_dataset(personas=())
        with pytest.raises(GenerationError):
            generate_grocery_dataset(loyalty_strength=0.2)
        bad = Persona("x", weight=-1.0, categories={}, loyalties={})
        with pytest.raises(GenerationError):
            generate_grocery_dataset(personas=(bad,))
        lost = Persona(
            "x", weight=1.0, categories={"unicorn food": 0.5}, loyalties={}
        )
        with pytest.raises(GenerationError, match="unicorn food"):
            generate_grocery_dataset(personas=(lost,))


class TestMinerRecoversPlantedSignal:
    @pytest.fixture(scope="class")
    def result(self):
        dataset = generate_grocery_dataset(num_transactions=4000, seed=7)
        return dataset.taxonomy, mine_negative_rules(
            dataset.database, dataset.taxonomy, minsup=0.05, minri=0.4,
        )

    def test_loyalty_surfaces_as_cross_category_rule(self, result):
        """The paper's Example-1 structure: KolaBlue households are not
        gamers, so KolaBlue =/=> CrispWave even though cola and chips go
        together overall."""
        taxonomy, mined = result
        blue = taxonomy.id_of("KolaBlue")
        crisp = taxonomy.id_of("CrispWave")
        found = {
            (rule.antecedent, rule.consequent) for rule in mined.rules
        }
        assert ((blue,), (crisp,)) in found

    def test_same_category_sibling_pair_is_not_generable(self, result):
        """A structural property of the paper's framework: with a
        two-brand category there is no large itemset whose Cases 1-3
        replacement yields the sibling pair itself, so {KolaRed,
        KolaBlue} never becomes a candidate — loyalty must be (and is)
        detected through cross-category partners instead."""
        taxonomy, mined = result
        red, blue = taxonomy.id_of("KolaRed"), taxonomy.id_of("KolaBlue")
        pair = tuple(sorted((red, blue)))
        assert pair not in mined.candidates
        # ... even though the data screams negative association:
        both = sum(
            1
            for negative in mined.negative_itemsets
            if red in negative.items and blue in negative.items
        )
        assert both == 0

    def test_personas_recorded(self):
        dataset = generate_grocery_dataset(num_transactions=10, seed=1)
        assert dataset.personas == DEFAULT_PERSONAS
