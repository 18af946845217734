"""Property tests: synthetic emission against per-pick ``choice`` oracles.

The generators pick from CDFs built once per model
(:mod:`repro.synthetic.sampling`). The reference emitters below are the
plain form they replaced: one ``Generator.choice(p=...)`` call per
weighted pick and ``Generator.choice(list)`` per uniform pick. Both
must emit the same rows and leave the generator in the same
``bit_generator.state``, so whatever is drawn from it afterwards does
not move.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthetic.clusters import build_cluster_model
from repro.synthetic.generator import generate_transactions
from repro.synthetic.grocery import (
    DEFAULT_PERSONAS,
    Persona,
    generate_grocery_dataset,
    grocery_taxonomy,
    taxonomy_children_names,
)
from repro.synthetic.params import GeneratorParams
from repro.synthetic.sampling import pick, weighted_cdf
from repro.synthetic.taxonomy_gen import generate_taxonomy


def reference_transactions(model, params, rng):
    """Section 3.1 emission with one ``rng.choice(p=...)`` per pick."""
    cluster_weights = np.array(model.cluster_weights)
    cluster_ids = np.arange(len(model.clusters))
    per_cluster = [
        (np.arange(len(cluster.itemsets)), np.array(cluster.itemset_weights))
        for cluster in model.clusters
    ]
    rows = []
    lengths = rng.poisson(params.avg_transaction_size,
                          size=params.num_transactions)
    for raw_length in lengths:
        length = max(1, int(raw_length))
        row = set()
        attempts = 0
        while len(row) < length and attempts < 10 * length + 10:
            attempts += 1
            cluster_index = int(rng.choice(cluster_ids, p=cluster_weights))
            cluster = model.clusters[cluster_index]
            ids, weights = per_cluster[cluster_index]
            itemset_index = int(rng.choice(ids, p=weights))
            chosen = list(cluster.itemsets[itemset_index])
            corruption = cluster.corruption_levels[itemset_index]
            while chosen and rng.random() < corruption:
                chosen.pop(int(rng.integers(len(chosen))))
            row.update(chosen)
        if not row:
            cluster = model.clusters[
                int(rng.choice(cluster_ids, p=cluster_weights))
            ]
            first_itemset = cluster.itemsets[0]
            row.add(first_itemset[int(rng.integers(len(first_itemset)))])
        rows.append(sorted(row))
    return rows


def reference_grocery_rows(num_transactions, personas, loyalty_strength,
                           seed):
    """Persona emission with ``rng.choice`` for every persona and brand."""
    taxonomy = grocery_taxonomy()
    rng = np.random.default_rng(seed)
    weights = np.array([persona.weight for persona in personas], float)
    weights = weights / weights.sum()
    rows = []
    for _ in range(num_transactions):
        persona = personas[int(rng.choice(len(personas), p=weights))]
        basket = set()
        for category, probability in persona.categories.items():
            if rng.random() >= probability:
                continue
            brands = [
                taxonomy.id_of(name)
                for name in taxonomy_children_names(category)
            ]
            loyal_brand = persona.loyalties.get(category)
            if loyal_brand is not None and rng.random() < loyalty_strength:
                basket.add(taxonomy.id_of(loyal_brand))
            else:
                choices = [
                    brand
                    for brand in brands
                    if loyal_brand is None
                    or brand != taxonomy.id_of(loyal_brand)
                ] or brands
                basket.add(int(rng.choice(choices)))
        if not basket:
            basket.add(taxonomy.id_of("ClearSpring"))
        rows.append(sorted(basket))
    return rows


weight_vectors = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=1e-9, max_value=1e3),
    ),
    min_size=1,
    max_size=40,
).filter(lambda raw: sum(raw) > 0)


@settings(max_examples=200, deadline=None)
@given(weight_vectors, st.integers(min_value=0, max_value=2**32 - 1))
def test_pick_is_choice(raw, seed):
    weights = np.array(raw) / np.sum(raw)
    cdf = weighted_cdf(weights, len(weights), "weights")
    ours = np.random.default_rng(seed)
    oracle = np.random.default_rng(seed)
    for _ in range(20):
        assert pick(cdf, ours) == int(oracle.choice(len(weights), p=weights))
    assert ours.bit_generator.state == oracle.bit_generator.state


generator_params = st.builds(
    GeneratorParams,
    num_transactions=st.integers(min_value=1, max_value=120),
    avg_transaction_size=st.floats(min_value=1.0, max_value=12.0),
    avg_cluster_size=st.floats(min_value=1.0, max_value=6.0),
    avg_itemset_size=st.floats(min_value=1.0, max_value=6.0),
    avg_itemsets_per_cluster=st.floats(min_value=1.0, max_value=5.0),
    num_clusters=st.integers(min_value=1, max_value=40),
    num_items=st.integers(min_value=20, max_value=200),
    num_roots=st.integers(min_value=1, max_value=8),
    fanout=st.floats(min_value=2.0, max_value=9.0),
    corruption_mean=st.floats(min_value=0.0, max_value=1.0),
)


@settings(max_examples=60, deadline=None)
@given(generator_params, st.integers(min_value=0, max_value=2**32 - 1))
def test_emission_matches_the_choice_oracle(params, seed):
    structure = np.random.default_rng(seed)
    taxonomy = generate_taxonomy(params, structure)
    model = build_cluster_model(taxonomy, params, structure)
    ours = np.random.default_rng(seed + 1)
    oracle = np.random.default_rng(seed + 1)
    database = generate_transactions(model, params, ours)
    assert [list(row) for row in database] == reference_transactions(
        model, params, oracle
    )
    assert ours.bit_generator.state == oracle.bit_generator.state


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=300),
    st.floats(min_value=0.5, max_value=1.0),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=3,
             max_size=3),
)
def test_grocery_matches_the_choice_oracle(count, loyalty, seed, weights):
    personas = tuple(
        Persona(
            name=persona.name,
            weight=weight,
            categories=persona.categories,
            loyalties=persona.loyalties,
        )
        for persona, weight in zip(DEFAULT_PERSONAS, weights)
    )
    dataset = generate_grocery_dataset(
        num_transactions=count,
        personas=personas,
        loyalty_strength=loyalty,
        seed=seed,
    )
    rows = [list(row) for row in dataset.database]
    assert rows == reference_grocery_rows(count, personas, loyalty, seed)
