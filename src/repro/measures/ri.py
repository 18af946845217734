"""The paper's rule interest measure RI (Section 2).

For a negative rule ``X =/=> Y`` over the negative itemset ``n = X ∪ Y``::

    RI = (E[support(n)] - support(n)) / support(X)

RI is *negatively* related to the actual support: it is highest when the
actual support is zero and zero (or below) when the actual support meets
or exceeds the expectation. A rule is *strong* when ``RI >= MinRI`` and
both ``support(X)`` and ``support(Y)`` meet MinSup.

This module is the implementation behind the registered ``"ri"``
measure *and* the plain functions (:func:`rule_interest`,
:func:`deviation_threshold`) the rest of the codebase imports.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .registry import InterestMeasure, MeasureCapabilities, register_measure


def rule_interest(
    expected_support: float,
    actual_support: float,
    antecedent_support: float,
) -> float:
    """Compute RI for a negative rule.

    Parameters
    ----------
    expected_support:
        ``E[support(X ∪ Y)]`` derived from the taxonomy (see
        :mod:`repro.core.expectation`).
    actual_support:
        Measured ``support(X ∪ Y)``.
    antecedent_support:
        ``support(X)``; must be positive — the paper requires the
        antecedent to be a large itemset, so a zero here indicates a
        caller bug rather than a data property.

    Returns
    -------
    float
        The (possibly negative) interest value. Values below zero mean the
        itemset occurs *more* often than expected.
    """
    if antecedent_support <= 0.0:
        raise ConfigError(
            "antecedent support must be positive "
            f"(got {antecedent_support!r}); the antecedent of a negative "
            "rule must be a large itemset"
        )
    if expected_support < 0.0 or actual_support < 0.0:
        raise ConfigError("supports cannot be negative")
    return (expected_support - actual_support) / antecedent_support


def deviation_threshold(minsup: float, minri: float) -> float:
    """The minimum expectation-vs-actual gap a negative itemset must show.

    Section 2 decomposes the problem into "finding itemsets whose actual
    support deviates at least ``MinSup × MinRI`` from their expected
    support": since any rule antecedent has support at least MinSup, a gap
    below this bound cannot yield RI >= MinRI for any split of the itemset.
    """
    if minsup <= 0.0 or minri <= 0.0:
        raise ConfigError("minsup and minri must be positive")
    return minsup * minri


@register_measure("ri")
class RIMeasure(InterestMeasure):
    """Paper RI: taxonomy-expectation deviation, normalized by sup(X).

    The default measure — the exact semantics of the paper's Section 2:
    a candidate is a negative itemset when its actual support falls at
    least ``MinSup × MinRI`` below its taxonomy-derived expectation, and
    a split is a strong rule when ``RI >= MinRI``.

    ``figure3_literal=True`` swaps the itemset predicate for Figure 3's
    literal final line (``actual < MinSup × MinRI``), which contradicts
    the body text's deviation predicate; kept for comparison (DESIGN.md
    §3). It never changes the rule-level arithmetic.
    """

    capabilities = MeasureCapabilities(
        needs_taxonomy_expectation=True,
        supports_positive=False,
        bounded_range=False,
        monotone_prune=True,
    )

    def __init__(self, figure3_literal: bool = False) -> None:
        self.figure3_literal = figure3_literal

    def admit_itemsets(
        self,
        expected: np.ndarray,
        actual: np.ndarray,
        singles: np.ndarray | None,
        minsup: float,
        minri: float,
    ) -> np.ndarray:
        threshold = deviation_threshold(minsup, minri)
        if self.figure3_literal:
            return actual < threshold
        return expected - actual >= threshold

    def rule_scores(
        self,
        expected: np.ndarray,
        actual: np.ndarray,
        antecedent_support: np.ndarray,
        consequent_support: np.ndarray,
    ) -> np.ndarray:
        # rule_interest, elementwise: the same checks, the same float.
        if (antecedent_support <= 0.0).any():
            raise ConfigError(
                "antecedent support must be positive "
                f"(got {float(antecedent_support.min())!r}); the antecedent "
                "of a negative rule must be a large itemset"
            )
        if (expected < 0.0).any() or (actual < 0.0).any():
            raise ConfigError("supports cannot be negative")
        return (expected - actual) / antecedent_support

    def admit_rules(
        self, scores: np.ndarray, minsup: float | None, minri: float
    ) -> np.ndarray:
        return scores >= minri
