"""Unit tests for the RI measure and deviation threshold."""

import pytest

from repro.measures.ri import deviation_threshold, rule_interest
from repro.errors import ConfigError


class TestRuleInterest:
    def test_paper_example_value(self):
        # Perrier =/=> Bryers: (4000 - 500) / 5000 = 0.7 (Section 2.1.3).
        assert rule_interest(0.04, 0.005, 0.05) == pytest.approx(0.7)

    def test_reverse_direction_weaker(self):
        # Bryers =/=> Perrier: (4000 - 500) / 20000 = 0.175.
        assert rule_interest(0.04, 0.005, 0.20) == pytest.approx(0.175)

    def test_highest_when_actual_zero(self):
        assert rule_interest(0.1, 0.0, 0.1) == pytest.approx(1.0)

    def test_zero_when_actual_equals_expected(self):
        assert rule_interest(0.1, 0.1, 0.5) == 0.0

    def test_negative_when_actual_exceeds_expected(self):
        assert rule_interest(0.1, 0.2, 0.5) < 0.0

    def test_monotone_in_actual(self):
        values = [
            rule_interest(0.1, actual, 0.4)
            for actual in (0.0, 0.02, 0.05, 0.1)
        ]
        assert values == sorted(values, reverse=True)

    def test_zero_antecedent_rejected(self):
        with pytest.raises(ConfigError, match="antecedent"):
            rule_interest(0.1, 0.0, 0.0)

    def test_negative_supports_rejected(self):
        with pytest.raises(ConfigError):
            rule_interest(-0.1, 0.0, 0.5)
        with pytest.raises(ConfigError):
            rule_interest(0.1, -0.1, 0.5)


class TestDeviationThreshold:
    def test_product(self):
        assert deviation_threshold(0.04, 0.5) == pytest.approx(0.02)

    def test_paper_example_absolute(self):
        # MinSup 4,000 of 100,000 and MinRI 0.5 -> gap of 2,000.
        assert deviation_threshold(0.04, 0.5) * 100_000 == pytest.approx(
            2_000
        )

    @pytest.mark.parametrize("minsup,minri", [(0, 0.5), (0.5, 0), (-1, 1)])
    def test_nonpositive_rejected(self, minsup, minri):
        with pytest.raises(ConfigError):
            deviation_threshold(minsup, minri)
