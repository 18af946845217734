"""Coherent negative rules after Duggirala & Narayana (arXiv:1308.2310).

Coherent rules judge an association by the *whole* 2×2 contingency
table of the rule's sides, in support space::

    s11 = sup(X ∪ Y)            both present
    s10 = sup(X) - s11          X without Y
    s01 = sup(Y) - s11          Y without X
    s00 = 1 - sup(X) - sup(Y) + s11   neither

A *negative-coherent* rule ``X =/=> Y`` requires the discordant cells
to dominate both concordant cells — ``s10 > s11``, ``s10 > s00``,
``s01 > s11`` and ``s01 > s00`` — so the registered ``"coherent"``
measure scores a split as the worst margin::

    score = min(s10 - s11, s10 - s00, s01 - s11, s01 - s00)

and admits the rule when the score is strictly positive. The condition
set is threshold-free (no MinRI involvement beyond the shared candidate
machinery); the framework symmetrically defines positive-coherent rules
by the reversed inequalities, hence ``supports_positive=True``.

At the itemset stage — where the split is not yet known — the measure
keeps every candidate that co-occurs less than independence predicts
(``sup(n) < ∏ sup(i_j)``), the necessary condition for any
negative-coherent split to exist.
"""

from __future__ import annotations

import numpy as np

from .kong import independence
from .registry import InterestMeasure, MeasureCapabilities, register_measure


@register_measure("coherent")
class CoherentMeasure(InterestMeasure):
    """Contingency-quadrant dominance (Duggirala & Narayana).

    Threshold-free: a rule is admitted when every discordant quadrant of
    its 2×2 support table strictly dominates every concordant one; the
    score is the worst dominance margin, bounded in ``[-1, 1]``.
    """

    capabilities = MeasureCapabilities(
        needs_taxonomy_expectation=False,
        supports_positive=True,
        bounded_range=True,
        monotone_prune=False,
    )

    def admit_itemsets(
        self,
        expected: np.ndarray,
        actual: np.ndarray,
        singles: np.ndarray | None,
        minsup: float,
        minri: float,
    ) -> np.ndarray:
        return actual < independence(singles)

    def rule_scores(
        self,
        expected: np.ndarray,
        actual: np.ndarray,
        antecedent_support: np.ndarray,
        consequent_support: np.ndarray,
    ) -> np.ndarray:
        s11 = actual
        s10 = antecedent_support - s11
        s01 = consequent_support - s11
        s00 = 1.0 - antecedent_support - consequent_support + s11
        # min() of the four margins: a later margin replaces the current
        # one only when strictly smaller, as Python's min keeps the first.
        score = s10 - s11
        for margin in (s10 - s00, s01 - s11, s01 - s00):
            score = np.where(margin < score, margin, score)
        return score

    def admit_rules(
        self, scores: np.ndarray, minsup: float | None, minri: float
    ) -> np.ndarray:
        return scores > 0.0
