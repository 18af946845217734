"""Synthetic retail-transaction generator (paper Section 3.1).

Reimplements the paper's data generator: a nested-logit consumer-choice
model in which customers first decide on a *category* and then on a
particular *brand* within it. The generator has three stages, one module
each:

* :mod:`~repro.synthetic.taxonomy_gen` — a random taxonomy whose internal
  nodes have Poisson(F) children;
* :mod:`~repro.synthetic.clusters` — potentially-maximal clusters of
  leaf-parent categories, each with a set of potentially-large itemsets
  drawn from the cluster's children and exponential selection weights;
* :mod:`~repro.synthetic.generator` — Poisson-length transactions assembled
  by repeatedly picking a cluster, then one of its itemsets, corrupted by
  the paper's normal(0.5, 0.1) drop process; its weighted picks come
  from CDFs built once per model (:mod:`~repro.synthetic.sampling`).

:data:`~repro.synthetic.params.SHORT` and
:data:`~repro.synthetic.params.TALL` reproduce the two data sets of
Section 3.2 (fan-out 9 and 3).
"""

from .clusters import ClusterModel, build_cluster_model
from .generator import SyntheticDataset, generate_dataset, generate_transactions
from .grocery import (
    GroceryDataset,
    Persona,
    generate_grocery_dataset,
    grocery_taxonomy,
)
from .params import SHORT, TALL, GeneratorParams
from .taxonomy_gen import generate_taxonomy

__all__ = [
    "GeneratorParams",
    "SHORT",
    "TALL",
    "generate_taxonomy",
    "ClusterModel",
    "build_cluster_model",
    "SyntheticDataset",
    "generate_dataset",
    "generate_transactions",
    "GroceryDataset",
    "Persona",
    "generate_grocery_dataset",
    "grocery_taxonomy",
]
