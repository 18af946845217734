"""Interesting-itemset thresholding after Kong et al. (arXiv:1806.07084).

Kong, Jiang & Zhang mine *negatively correlated* itemsets by measuring
how far the observed joint support falls below the independence
baseline — the product of the member items' supports — instead of below
a taxonomy-derived expectation. The registered ``"kong-interest"``
measure maps that formulation onto this repo's pipeline:

* a counted candidate ``n = {i_1, …, i_k}`` is admitted as a negative
  itemset when ``∏ sup(i_j) - sup(n) >= MinSup × MinRI`` — the same
  deviation budget the paper's RI uses, but measured against
  independence, so no taxonomy is consulted
  (``needs_taxonomy_expectation=False``);
* a split ``X =/=> Y`` scores ``sup(X)·sup(Y) - sup(X ∪ Y)`` (the
  negative of Piatetsky-Shapiro leverage), admitted when the score
  meets the same ``MinSup × MinRI`` budget.

The score is a difference of fractions, hence bounded in ``[-1, 1]``;
it is *not* antitone in the antecedent support, so rule generation must
not prune superset consequents on a failed score
(``monotone_prune=False``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .registry import InterestMeasure, MeasureCapabilities, register_measure


@register_measure("kong-interest")
class KongInterestMeasure(InterestMeasure):
    """Deviation below the independence baseline (Kong et al.).

    Taxonomy-free: both the itemset predicate and the rule score compare
    measured supports against independence products, making the measure
    applicable to flat databases where RI's taxonomy expectation does
    not exist.
    """

    capabilities = MeasureCapabilities(
        needs_taxonomy_expectation=False,
        supports_positive=False,
        bounded_range=True,
        monotone_prune=False,
    )

    @staticmethod
    def _budget(minsup: float | None, minri: float) -> float:
        if minsup is None:
            raise ConfigError(
                "the kong-interest measure thresholds on "
                "MinSup × MinRI; pass minsup to rule generation"
            )
        if minsup <= 0.0 or minri <= 0.0:
            raise ConfigError("minsup and minri must be positive")
        return minsup * minri

    def admit_itemsets(
        self,
        expected: np.ndarray,
        actual: np.ndarray,
        singles: np.ndarray | None,
        minsup: float,
        minri: float,
    ) -> np.ndarray:
        return independence(singles) - actual >= self._budget(minsup, minri)

    def rule_scores(
        self,
        expected: np.ndarray,
        actual: np.ndarray,
        antecedent_support: np.ndarray,
        consequent_support: np.ndarray,
    ) -> np.ndarray:
        return antecedent_support * consequent_support - actual

    def admit_rules(
        self, scores: np.ndarray, minsup: float | None, minri: float
    ) -> np.ndarray:
        return scores >= self._budget(minsup, minri)


def independence(singles: np.ndarray) -> np.ndarray:
    """The product of each row's single-item supports, multiplied from
    1.0 in item order; the 1.0 padding changes no product."""
    product = np.ones(len(singles))
    for column in singles.T:
        product = product * column
    return product
