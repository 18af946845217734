"""Unit tests for the interestingness-measure registry and builtins."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.measures.registry import (
    DEFAULT_MEASURE,
    InterestMeasure,
    MeasureCapabilities,
    create_measure,
    measure_names,
    measure_table,
    register_measure,
    registered_measures,
    validate_spec,
)


def admits_itemset(measure, expected, actual, singles, minsup, minri):
    """One candidate through the measure's batch predicate."""
    return bool(measure.admit_itemsets(
        np.array([expected]), np.array([actual]),
        np.array([singles], dtype=np.float64).reshape(1, len(singles)),
        minsup, minri,
    )[0])


def admits_rule(measure, score, minsup, minri):
    """One score through the measure's batch rule threshold."""
    return bool(measure.admit_rules(np.array([score]), minsup, minri)[0])


class TestRegistry:
    def test_builtins_registered_in_order(self):
        assert measure_names() == ("ri", "kong-interest", "coherent")
        assert DEFAULT_MEASURE == "ri"

    def test_registered_measures_is_a_copy(self):
        measures = registered_measures()
        measures.pop("ri")
        assert "ri" in measure_names()

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_measure("ri")
            class Clash(InterestMeasure):
                pass

    def test_unknown_spec_rejected(self):
        with pytest.raises(ConfigError, match="unknown interest measure"):
            create_measure("chi-squared-ish")
        with pytest.raises(ConfigError, match="must be a string"):
            validate_spec(7)

    def test_validate_spec_normalizes(self):
        assert validate_spec("coherent") == "coherent"
        assert validate_spec(create_measure("ri")) == "ri"

    def test_instance_passes_through(self):
        measure = create_measure("kong-interest")
        assert create_measure(measure) is measure

    def test_figure3_policy_is_ri_only(self):
        literal = create_measure("ri", figure3_literal=True)
        assert literal.figure3_literal
        for name in ("kong-interest", "coherent"):
            with pytest.raises(ConfigError, match="does not support"):
                create_measure(name, figure3_literal=True)

    def test_capability_flags(self):
        caps = {
            name: cls.capabilities
            for name, cls in registered_measures().items()
        }
        assert caps["ri"].needs_taxonomy_expectation
        assert caps["ri"].monotone_prune
        assert not caps["kong-interest"].needs_taxonomy_expectation
        assert not caps["kong-interest"].monotone_prune
        assert caps["coherent"].supports_positive
        assert caps["coherent"].bounded_range

    def test_capability_defaults(self):
        caps = MeasureCapabilities()
        assert caps.needs_taxonomy_expectation and caps.monotone_prune
        assert not caps.supports_positive and not caps.bounded_range

    def test_measure_table_both_renderings(self):
        text = measure_table()
        markdown = measure_table(markdown=True)
        for name in measure_names():
            assert name in text
            assert f"| {name} |" in markdown
        assert "needs_taxonomy_expectation" in text
        assert markdown.splitlines()[1].startswith("|---")


class TestRIMeasure:
    def test_itemset_predicate_matches_deviation_threshold(self):
        ri = create_measure("ri")
        # deviation 0.035 against MinSup*MinRI = 0.02
        assert admits_itemset(ri, 0.04, 0.005, (), 0.04, 0.5)
        assert not admits_itemset(ri, 0.04, 0.025, (), 0.04, 0.5)

    def test_figure3_literal_swaps_the_predicate(self):
        literal = create_measure("ri", figure3_literal=True)
        # Figure 3 keeps any candidate whose *actual* support is below
        # the threshold, regardless of the deviation.
        assert admits_itemset(literal, 0.021, 0.005, (), 0.04, 0.5)
        assert not admits_itemset(literal, 0.9, 0.02, (), 0.04, 0.5)

    def test_rule_score_is_rule_interest(self):
        ri = create_measure("ri")
        score = ri.rule_score(0.04, 0.005, 0.05, 0.3)
        assert score == pytest.approx(0.7)
        assert admits_rule(ri, score, None, 0.5)
        assert not admits_rule(ri, score, None, 0.8)

    def test_spec_and_repr(self):
        ri = create_measure("ri")
        assert ri.spec == "ri"
        assert "ri" in repr(ri)


class TestKongInterestMeasure:
    def test_itemset_predicate_hand_computed(self):
        kong = create_measure("kong-interest")
        # independence = 0.3 * 0.4 = 0.12; 0.12 - 0.02 = 0.10 >= 0.05
        assert admits_itemset(kong, 0.5, 0.02, (0.3, 0.4), 0.1, 0.5)
        # 0.12 - 0.08 = 0.04 < 0.05 — not deviant enough
        assert not admits_itemset(kong, 0.5, 0.08, (0.3, 0.4), 0.1, 0.5)

    def test_expected_support_is_ignored(self):
        kong = create_measure("kong-interest")
        assert admits_itemset(
            kong, 0.0, 0.02, (0.3, 0.4), 0.1, 0.5
        ) == admits_itemset(kong, 0.9, 0.02, (0.3, 0.4), 0.1, 0.5)

    def test_rule_score_hand_computed(self):
        kong = create_measure("kong-interest")
        score = kong.rule_score(0.5, 0.02, 0.3, 0.4)
        assert score == pytest.approx(0.10)
        assert admits_rule(kong, score, 0.1, 0.5)
        assert not admits_rule(kong, 0.04, 0.1, 0.5)

    def test_rule_threshold_needs_minsup(self):
        kong = create_measure("kong-interest")
        with pytest.raises(ConfigError, match="pass minsup"):
            admits_rule(kong, 0.1, None, 0.5)


class TestCoherentMeasure:
    def test_itemset_predicate_is_below_independence(self):
        coherent = create_measure("coherent")
        assert admits_itemset(coherent, 0.5, 0.1, (0.6, 0.5), 0.1, 0.5)
        assert not admits_itemset(
            coherent, 0.5, 0.4, (0.6, 0.5), 0.1, 0.5
        )

    def test_rule_score_is_worst_quadrant_margin(self):
        coherent = create_measure("coherent")
        # sup(X)=0.6, sup(Y)=0.5, s11=0.15 -> s10=0.45, s01=0.35,
        # s00=0.10; margins 0.30, 0.35, 0.20, 0.25 -> min 0.20.
        score = coherent.rule_score(0.5, 0.15, 0.6, 0.5)
        assert score == pytest.approx(0.20)
        assert admits_rule(coherent, score, None, 0.5)

    def test_sparse_data_is_rejected(self):
        coherent = create_measure("coherent")
        # Typical market-basket margins: s00 dominates, so the rule is
        # not coherent however disjoint the sides are.
        assert coherent.rule_score(0.5, 0.0, 0.3, 0.1) < 0.0
        assert not admits_rule(coherent, -0.1, None, 0.5)


class TestBaseProtocol:
    def test_abstract_methods_raise(self):
        measure = InterestMeasure()
        with pytest.raises(NotImplementedError):
            admits_itemset(measure, 0.1, 0.0, (), 0.1, 0.5)
        with pytest.raises(NotImplementedError):
            measure.rule_score(0.1, 0.0, 0.2, 0.2)
        with pytest.raises(NotImplementedError):
            admits_rule(measure, 0.1, 0.1, 0.5)
