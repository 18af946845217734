"""Positive (frequent / generalized) association mining substrate.

Negative-rule mining (the paper's contribution, in :mod:`repro.core`) is
built *on top of* positive mining: step 1 of the algorithm is "find all the
generalized large itemsets" using one of the Srikant–Agrawal algorithms
Basic, Cumulate or EstMerge, and the negative rule generator extends the
classic *ap-genrules* procedure. This subpackage implements all of that from
scratch:

* :mod:`~repro.mining.apriori` — plain Apriori and the ``apriori-gen``
  candidate join/prune.
* :mod:`~repro.mining.hash_tree` — the classic subset-counting hash tree.
* :mod:`~repro.mining.engines` — the registry of pluggable
  support-counting engines.
* :mod:`~repro.mining.vertical` — the ``"cached"`` engine's persistent
  vertical index (one big-int bitmap per item).
* :mod:`~repro.mining.generalized` — Basic / Cumulate / EstMerge miners over
  a taxonomy.
* :mod:`~repro.mining.partition` — the authors' own two-pass Partition
  algorithm (VLDB 1995), as an alternative substrate.
* :mod:`~repro.mining.aprioritid` — AprioriTid (single data pass) and
  AprioriHybrid, the other miners of Agrawal–Srikant 1994.
* :mod:`~repro.mining.rules` — positive rule generation (ap-genrules).
* :mod:`~repro.mining.itemset_index` — the hash table of large itemsets of
  Section 2.4.
"""

from .apriori import apriori_gen, find_large_itemsets
from .aprioritid import (
    find_large_itemsets_aprioritid,
    find_large_itemsets_hybrid,
)
from .generalized import extend_database, mine_generalized
from .hash_tree import HashTree
from .itemset_index import LargeItemsetIndex
from .partition import find_large_itemsets_partition
from .rules import AssociationRule, generate_rules

__all__ = [
    "apriori_gen",
    "find_large_itemsets",
    "find_large_itemsets_partition",
    "find_large_itemsets_aprioritid",
    "find_large_itemsets_hybrid",
    "mine_generalized",
    "extend_database",
    "HashTree",
    "LargeItemsetIndex",
    "AssociationRule",
    "generate_rules",
]
