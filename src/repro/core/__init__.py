"""The paper's primary contribution: strong negative association mining.

Pipeline (paper Section 2.1):

1. **Positive step** — find all generalized large itemsets
   (:mod:`repro.mining.generalized`).
2. **Candidate step** — from each large itemset, generate candidate
   negative itemsets out of the immediate children (Cases 1–2) and siblings
   (Case 3) of its items, assigning each an *expected support* computed
   from the positive supports and the taxonomy's uniformity assumption
   (:mod:`~repro.core.candidates`, :mod:`~repro.core.expectation`).
3. **Counting step** — count the candidates' actual supports and keep the
   *negative itemsets*: those whose actual support falls at least
   ``MinSup × MinRI`` below expectation (:mod:`~repro.core.negmining`,
   with the Naive and Improved pass schedules of Section 2.2).
4. **Rule step** — emit rules ``X =/=> Y`` whose rule interest
   ``RI = (E[sup] - sup) / sup(X)`` meets ``MinRI`` and whose sides are
   both large (:mod:`~repro.core.rulegen`).

:func:`repro.core.api.mine_negative_rules` runs the whole pipeline.
"""

from ..measures.ri import rule_interest
from .api import MiningConfig, NegativeMiningResult, mine_negative_rules
from .candidates import NegativeCandidate, generate_negative_candidates
from .estimate import estimate_candidates_per_itemset
from .explain import (
    Derivation,
    derive,
    explain_result_rule,
    explain_rule,
    format_derivation,
)
from .expectation import expected_support
from .negmining import (
    ImprovedNegativeMiner,
    MiningStats,
    NaiveNegativeMiner,
    NegativeItemset,
)
from .rulegen import NegativeRule, generate_negative_rules
from .substitutes import (
    SubstituteGroups,
    generate_substitute_candidates,
    merge_candidate_sets,
)

__all__ = [
    "SubstituteGroups",
    "generate_substitute_candidates",
    "merge_candidate_sets",
    "mine_negative_rules",
    "MiningConfig",
    "NegativeMiningResult",
    "NegativeCandidate",
    "generate_negative_candidates",
    "expected_support",
    "rule_interest",
    "NegativeItemset",
    "NegativeRule",
    "generate_negative_rules",
    "NaiveNegativeMiner",
    "ImprovedNegativeMiner",
    "MiningStats",
    "estimate_candidates_per_itemset",
    "Derivation",
    "derive",
    "explain_rule",
    "explain_result_rule",
    "format_derivation",
]
