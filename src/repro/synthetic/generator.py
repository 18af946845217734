"""Transaction emission (paper Section 3.1, final stage).

"The length of a transaction is determined by Poisson distribution with
mean equal to |T|. Until the transaction size is less than the generated
length, a cluster is picked according to its weight. Once the cluster is
determined an itemset from that cluster is picked and assigned to the
transaction. ... Items from the itemset are dropped as long as an uniformly
generated random number between 0 and 1 is less than a corruption level c."

Transactions contain only leaf items of the taxonomy, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data.database import TransactionDatabase
from ..taxonomy.tree import Taxonomy
from .clusters import ClusterModel, build_cluster_model
from .params import GeneratorParams
from .sampling import pick, weighted_cdf
from .taxonomy_gen import generate_taxonomy


@dataclass(frozen=True, slots=True)
class SyntheticDataset:
    """A generated taxonomy + transaction database pair."""

    taxonomy: Taxonomy
    database: TransactionDatabase
    model: ClusterModel
    params: GeneratorParams
    seed: int


def generate_transactions(
    model: ClusterModel,
    params: GeneratorParams,
    rng: np.random.Generator,
) -> TransactionDatabase:
    """Emit ``params.num_transactions`` transactions from *model*.

    Every cluster and itemset weight vector is checked and turned into
    a CDF once, before the first draw (see :mod:`.sampling`).

    Raises
    ------
    GenerationError
        When the cluster weights, or a cluster's itemset weights, are
        not a probability vector over its clusters or itemsets.
    """
    clusters = model.clusters
    cluster_cdf = weighted_cdf(
        model.cluster_weights, len(clusters), "cluster weights"
    )
    itemset_cdfs = [
        weighted_cdf(
            cluster.itemset_weights,
            len(cluster.itemsets),
            f"cluster {index} itemset weights",
        )
        for index, cluster in enumerate(clusters)
    ]

    transactions: list[list[int]] = []
    lengths = rng.poisson(params.avg_transaction_size,
                          size=params.num_transactions)
    for raw_length in lengths.tolist():
        length = max(1, raw_length)
        row: set[int] = set()
        # Guard against pathological models (e.g. every itemset fully
        # corrupted away) with a bounded number of attempts.
        attempts = 0
        while len(row) < length and attempts < 10 * length + 10:
            attempts += 1
            cluster_index = pick(cluster_cdf, rng)
            cluster = clusters[cluster_index]
            itemset_index = pick(itemset_cdfs[cluster_index], rng)
            chosen = list(cluster.itemsets[itemset_index])
            corruption = cluster.corruption_levels[itemset_index]
            # Corruption: drop items while the coin keeps landing below c.
            while chosen and rng.random() < corruption:
                drop = int(rng.integers(len(chosen)))
                chosen.pop(drop)
            row.update(chosen)
        if not row:
            # Fully-corrupted transaction: keep one item from a weighted
            # cluster so the row is non-empty (a zero-item basket carries
            # no signal and TransactionDatabase rejects it).
            first_itemset = clusters[pick(cluster_cdf, rng)].itemsets[0]
            row.add(first_itemset[int(rng.integers(len(first_itemset)))])
        transactions.append(sorted(row))
    return TransactionDatabase(transactions)


def generate_dataset(
    params: GeneratorParams, seed: int = 0
) -> SyntheticDataset:
    """Generate a full dataset (taxonomy, cluster model, transactions).

    Parameters
    ----------
    params:
        Typically :data:`~repro.synthetic.params.SHORT`,
        :data:`~repro.synthetic.params.TALL`, or a
        :meth:`~repro.synthetic.params.GeneratorParams.scaled` version of
        either.
    seed:
        Seed for the whole generation chain; equal seeds reproduce the
        dataset exactly.
    """
    rng = np.random.default_rng(seed)
    taxonomy = generate_taxonomy(params, rng)
    model = build_cluster_model(taxonomy, params, rng)
    database = generate_transactions(model, params, rng)
    return SyntheticDataset(
        taxonomy=taxonomy,
        database=database,
        model=model,
        params=params,
        seed=seed,
    )
