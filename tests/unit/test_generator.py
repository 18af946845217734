"""Unit tests for synthetic transaction emission."""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import GenerationError
from repro.synthetic.clusters import build_cluster_model
from repro.synthetic.generator import generate_dataset, generate_transactions
from repro.synthetic.grocery import generate_grocery_dataset
from repro.synthetic.params import SHORT, TALL, GeneratorParams
from repro.synthetic.taxonomy_gen import generate_taxonomy


@pytest.fixture(scope="module")
def dataset():
    params = GeneratorParams(
        num_transactions=400,
        num_items=300,
        num_roots=5,
        num_clusters=30,
        fanout=5.0,
        avg_transaction_size=8.0,
    )
    return generate_dataset(params, seed=123)


class TestGenerateDataset:
    def test_transaction_count(self, dataset):
        assert len(dataset.database) == 400

    def test_transactions_contain_only_leaves(self, dataset):
        leaves = dataset.taxonomy.leaves
        for row in dataset.database:
            assert all(item in leaves for item in row)

    def test_average_length_near_parameter(self, dataset):
        # Itemset assignment overshoots the Poisson target slightly
        # (the last itemset is added whole), so allow generous slack.
        average = dataset.database.average_length()
        assert 4.0 <= average <= 16.0

    def test_deterministic_with_seed(self, dataset):
        again = generate_dataset(dataset.params, seed=123)
        assert list(again.database) == list(dataset.database)
        assert again.taxonomy.parent_map() == dataset.taxonomy.parent_map()

    def test_different_seed_differs(self, dataset):
        other = generate_dataset(dataset.params, seed=124)
        assert list(other.database) != list(dataset.database)

    def test_provenance_recorded(self, dataset):
        assert dataset.seed == 123
        assert dataset.params.num_transactions == 400


class TestGenerateTransactions:
    def test_rows_come_from_model_itemsets(self, dataset):
        model_items = {
            item
            for cluster in dataset.model.clusters
            for items in cluster.itemsets
            for item in items
        }
        for row in dataset.database:
            assert set(row) <= model_items

    def test_respects_num_transactions(self, dataset):
        params = GeneratorParams(
            num_transactions=37,
            num_items=300,
            num_roots=5,
            num_clusters=30,
            fanout=5.0,
        )
        database = generate_transactions(
            dataset.model, params, np.random.default_rng(1)
        )
        assert len(database) == 37

    def test_no_empty_transactions(self, dataset):
        assert all(len(row) >= 1 for row in dataset.database)


class TestStatisticalShape:
    def test_popular_clusters_dominate(self, dataset):
        """Exponential weights: some itemsets occur far more than others."""
        counts = dataset.database.item_counts()
        values = sorted(counts.values(), reverse=True)
        top_share = sum(values[:20]) / sum(values)
        assert top_share > 0.3

    def test_mining_finds_positive_structure(self, dataset):
        """Cluster itemsets should surface as frequent pairs."""
        from repro.mining.apriori import find_large_itemsets

        index = find_large_itemsets(dataset.database, 0.03, max_size=2)
        assert index.of_size(2)


def _digest(rows, rng=None):
    """sha256 of the rows, one space-separated line each, followed by
    the generator's final state when *rng* is given."""
    digest = hashlib.sha256()
    for row in rows:
        digest.update((" ".join(map(str, row)) + "\n").encode())
    if rng is not None:
        state = json.dumps(rng.bit_generator.state, sort_keys=True)
        digest.update(state.encode())
    return digest.hexdigest()


class TestRecordedDigests:
    """Baskets and final generator states recorded from the per-pick
    ``Generator.choice`` emitter; any change to the draw stream shows
    here."""

    @pytest.mark.parametrize(
        ("preset", "seed", "expected"),
        [
            (SHORT, 0, "3e74fa4a221b966b7e2a464e1ba96c44"
                       "d64ef1aa1e2915a8d8d0f54cc3976c66"),
            (SHORT, 7, "425f2b78d519d3a9633bfecdbd7a683f"
                       "dd147800f671eabbf220b47be3717f92"),
            (TALL, 0, "44f6d9cc1cd1fe429ae5aea7f6f9d8c3"
                      "4876f1f0554ada07a1e92e9712bfebe8"),
            (TALL, 7, "629a99929006da51809c4bd6a99f6aff"
                      "df434f951dbadc0fecab08fbc312da6e"),
        ],
        ids=["short-0", "short-7", "tall-0", "tall-7"],
    )
    def test_section_3_1_presets(self, preset, seed, expected):
        params = preset.scaled(0.02)
        rng = np.random.default_rng(seed)
        taxonomy = generate_taxonomy(params, rng)
        model = build_cluster_model(taxonomy, params, rng)
        database = generate_transactions(model, params, rng)
        assert len(database) == 1000
        assert _digest(database, rng) == expected

    @pytest.mark.parametrize(
        ("seed", "expected"),
        [
            (0, "83632abc41221bb0b47b987a7850af5d"
                "b82697793bc7e8349b8fbbded06fc44b"),
            (3, "8cbb87b2dfd9908eda93ba26ad86c2e1"
                "b4e3d9912cba954a8d3ef9407837749d"),
        ],
        ids=["seed-0", "seed-3"],
    )
    def test_grocery(self, seed, expected):
        dataset = generate_grocery_dataset(num_transactions=2000, seed=seed)
        assert _digest(dataset.database) == expected


class TestWeightValidation:
    """Bad weights fail once, before the first draw, naming the
    cluster -- not as NumPy's ``ValueError`` mid-generation."""

    def _generate(self, model, params):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        with pytest.raises(GenerationError) as raised:
            generate_transactions(model, params, rng)
        assert rng.bit_generator.state == before
        return str(raised.value)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda w: (-w[0],) + w[1:],
            lambda w: (w[0] + 0.5,) + w[1:],
            lambda w: (float("nan"),) + w[1:],
            lambda w: w + (0.0,),
            lambda w: (),
        ],
        ids=["negative", "sum", "nan", "length", "empty"],
    )
    def test_itemset_weights_name_the_cluster(self, dataset, bad):
        model = dataset.model
        index = next(
            i for i, cluster in enumerate(model.clusters)
            if len(cluster.itemsets) > 1
        )
        clusters = list(model.clusters)
        clusters[index] = replace(
            clusters[index],
            itemset_weights=bad(clusters[index].itemset_weights),
        )
        broken = replace(model, clusters=tuple(clusters))
        message = self._generate(broken, dataset.params)
        assert f"cluster {index} itemset weights" in message

    def test_cluster_weights(self, dataset):
        model = dataset.model
        weights = (2.0,) + model.cluster_weights[1:]
        broken = replace(model, cluster_weights=weights)
        message = self._generate(broken, dataset.params)
        assert "cluster weights" in message

