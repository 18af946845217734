"""Unit tests for the benchmark-regression gate arithmetic."""

import math

import pytest

from benchmarks.check_regression import (
    DEFAULT_THRESHOLD,
    MEASUREMENT_FLOOR_S,
    compare,
    compare_counts,
    geometric_mean,
    normalize,
)

BASELINE = {
    "bitmap": 0.040,
    "numpy": 0.012,
    "index": 0.080,
    "cached": 0.024,
}


class TestNormalize:
    def test_geometric_mean_of_equal_values(self):
        assert geometric_mean([2.0, 2.0, 2.0]) == pytest.approx(2.0)

    def test_normalized_profile_has_unit_geomean(self):
        engines = sorted(BASELINE)
        norm = normalize(BASELINE, engines)
        product = math.prod(norm[e] for e in engines)
        assert product == pytest.approx(1.0)

    def test_scale_factor_divides_out(self):
        engines = sorted(BASELINE)
        slowed = {e: v * 3.0 for e, v in BASELINE.items()}
        assert normalize(BASELINE, engines) == pytest.approx(
            normalize(slowed, engines)
        )


class TestCompare:
    def test_identical_profiles_pass(self):
        rows, failed = compare(BASELINE, dict(BASELINE), DEFAULT_THRESHOLD)
        assert failed == []
        assert all(row["verdict"] == "ok" for row in rows)
        assert all(row["normalized_ratio"] == 1.0 for row in rows)

    def test_uniform_slowdown_passes(self):
        """A uniformly slower machine is not a regression."""
        current = {e: v * 3.0 for e, v in BASELINE.items()}
        rows, failed = compare(BASELINE, current, DEFAULT_THRESHOLD)
        assert failed == []
        assert all(row["normalized_ratio"] == 1.0 for row in rows)

    def test_single_engine_2x_fails(self):
        """Acceptance: an injected 2x slowdown must trip the gate."""
        current = dict(BASELINE)
        current["index"] *= 2.0
        rows, failed = compare(BASELINE, current, DEFAULT_THRESHOLD)
        assert failed == ["index"]
        by_engine = {row["engine"]: row for row in rows}
        assert by_engine["index"]["verdict"] == "REGRESSED"
        assert by_engine["index"]["normalized_ratio"] > DEFAULT_THRESHOLD
        # The others drift slightly *down* (the geomean rose) — still ok.
        for engine in set(BASELINE) - {"index"}:
            assert by_engine[engine]["verdict"] == "ok"

    def test_sub_floor_jitter_is_ignored(self):
        """Timer noise below the floor must not look like a regression."""
        baseline = dict(BASELINE, numpy=0.001)
        current = dict(BASELINE, numpy=0.004)  # 4x, but both < floor
        rows, failed = compare(baseline, current, DEFAULT_THRESHOLD)
        assert failed == []
        by_engine = {row["engine"]: row for row in rows}
        assert by_engine["numpy"]["baseline_per_pass_s"] == (
            MEASUREMENT_FLOOR_S
        )
        assert by_engine["numpy"]["current_per_pass_s"] == (
            MEASUREMENT_FLOOR_S
        )

    def test_sub_floor_engine_regressing_to_real_time_fails(self):
        baseline = dict(BASELINE, numpy=0.002)
        current = dict(BASELINE, numpy=0.050)  # well above the floor
        _, failed = compare(baseline, current, DEFAULT_THRESHOLD)
        assert failed == ["numpy"]

    def test_only_shared_engines_compared(self):
        """A renamed/added engine is ignored, not a spurious failure."""
        current = dict(BASELINE)
        current.pop("cached")
        current["cached-packed"] = 0.011
        rows, failed = compare(BASELINE, current, DEFAULT_THRESHOLD)
        assert failed == []
        engines = {row["engine"] for row in rows}
        assert engines == {"bitmap", "numpy", "index"}

    def test_no_shared_engines_is_an_error(self):
        with pytest.raises(SystemExit):
            compare({"a": 1.0}, {"b": 1.0}, DEFAULT_THRESHOLD)


class TestCompareCounts:
    COUNTS = {
        "tall@0.1": {"candidates": 43938, "rules": 7919},
        "short@0.1": {"candidates": 5162, "rules": 993},
    }

    def test_equal_counts_pass(self):
        assert compare_counts(self.COUNTS, dict(self.COUNTS)) == []

    def test_any_changed_count_fails_its_point(self):
        current = dict(self.COUNTS)
        current["tall@0.1"] = {"candidates": 43939, "rules": 7919}
        assert compare_counts(self.COUNTS, current) == ["tall@0.1"]

    def test_a_missing_or_new_point_fails(self):
        current = {"short@0.1": self.COUNTS["short@0.1"], "x@1": {}}
        assert compare_counts(self.COUNTS, current) == ["tall@0.1", "x@1"]
