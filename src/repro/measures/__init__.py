"""Interestingness measures: the registry plus the classical metrics.

The paper's RI is "only one measure of interestingness" (its own
footnote). This subpackage provides:

* the *measure registry* (:mod:`repro.measures.registry`) — pluggable
  :class:`InterestMeasure` semantics for the negative-mining pipeline:
  the paper's ``"ri"`` (default), the independence-deviation
  ``"kong-interest"`` (arXiv:1806.07084) and the contingency-quadrant
  ``"coherent"`` (arXiv:1308.2310);
* the standard complementary metrics — lift, leverage
  (Piatetsky-Shapiro, paper ref [9]), conviction, and the chi-square
  statistic — so users can cross-score both positive and negative
  rules.

The cross-measure comparison layer lives in
:mod:`repro.measures.compare`; it is *not* imported here because it
depends on :mod:`repro.core` (import it explicitly where needed).
"""

from .information import expected_itemset_support, surprise_bits
from .metrics import (
    chi_square,
    confidence,
    conviction,
    leverage,
    lift,
    negative_confidence,
)
from .registry import (
    DEFAULT_MEASURE,
    InterestMeasure,
    MeasureCapabilities,
    create_measure,
    measure_names,
    measure_table,
    register_measure,
    registered_measures,
)
from .scoring import RuleScores, score_negative_rule, score_positive_rule

__all__ = [
    "confidence",
    "lift",
    "leverage",
    "conviction",
    "chi_square",
    "negative_confidence",
    "RuleScores",
    "score_negative_rule",
    "score_positive_rule",
    "surprise_bits",
    "expected_itemset_support",
    "DEFAULT_MEASURE",
    "InterestMeasure",
    "MeasureCapabilities",
    "create_measure",
    "measure_names",
    "measure_table",
    "register_measure",
    "registered_measures",
]
