"""repro — negative association rule mining over customer transactions.

A faithful, production-quality reproduction of Savasere, Omiecinski &
Navathe, *Mining for Strong Negative Associations in a Large Database of
Customer Transactions* (ICDE 1998), including every substrate the paper
depends on: generalized association mining over item taxonomies
(Cumulate), positive rule generation, the paper's synthetic
retail-data generator, and the negative mining pipeline itself
(candidate generation from taxonomy neighborhoods, expected supports,
the Naive and Improved algorithms, and negative rule generation).

Quickstart
----------
>>> from repro import TransactionDatabase, mine_negative_rules
>>> from repro.taxonomy import taxonomy_from_nested
>>> taxonomy = taxonomy_from_nested({
...     "drinks": {"soda": ["Coke", "Pepsi"], "water": ["Evian"]},
... })
>>> coke, pepsi = taxonomy.id_of("Coke"), taxonomy.id_of("Pepsi")
>>> evian = taxonomy.id_of("Evian")
>>> rows = [[coke, evian]] * 40 + [[pepsi]] * 40 + [[coke]] * 20
>>> result = mine_negative_rules(rows, taxonomy, minsup=0.2, minri=0.3)
>>> isinstance(result.rules, list)
True
"""

from .core.api import MiningConfig, NegativeMiningResult, mine_negative_rules
from .core.candidates import NegativeCandidate, generate_negative_candidates
from .core.negmining import (
    ImprovedNegativeMiner,
    NaiveNegativeMiner,
    NegativeItemset,
)
from .core.rulegen import NegativeRule, generate_negative_rules
from .data.database import TransactionDatabase
from .errors import (
    ConfigError,
    DatabaseError,
    GenerationError,
    ReproError,
    TaxonomyError,
)
from .measures.ri import rule_interest
from .mining.apriori import find_large_itemsets
from .mining.generalized import mine_generalized
from .mining.itemset_index import LargeItemsetIndex
from .mining.rules import AssociationRule, generate_rules
from .taxonomy.tree import Taxonomy

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # high-level API
    "mine_negative_rules",
    "MiningConfig",
    "NegativeMiningResult",
    # core types
    "NegativeCandidate",
    "NegativeItemset",
    "NegativeRule",
    "generate_negative_candidates",
    "generate_negative_rules",
    "rule_interest",
    "NaiveNegativeMiner",
    "ImprovedNegativeMiner",
    # substrates
    "TransactionDatabase",
    "Taxonomy",
    "LargeItemsetIndex",
    "find_large_itemsets",
    "mine_generalized",
    "AssociationRule",
    "generate_rules",
    # errors
    "ReproError",
    "ConfigError",
    "DatabaseError",
    "TaxonomyError",
    "GenerationError",
]
