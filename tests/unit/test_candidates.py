"""Unit tests for negative candidate generation (Cases 1-3, exclusions).

Built around the taxonomy of paper Figure 1 with {C, G} as the large
itemset, exactly as in Section 2.1.1's worked cases.
"""

import pytest

from repro.core.candidates import (
    CASE_CHILDREN,
    CASE_SIBLINGS,
    generate_negative_candidates,
)
from repro.mining.itemset_index import LargeItemsetIndex
from repro import obs
from repro.obs import MetricsRegistry


@pytest.fixture
def names(figure1_taxonomy):
    return {
        name: figure1_taxonomy.id_of(name)
        for name in "ABCDEFGHIJK"
        if name != "I" or True
    }


@pytest.fixture
def index(names):
    """{C, G} large; all 1-itemsets except I are large."""
    supports = {
        "C": 0.4, "G": 0.4, "D": 0.2, "E": 0.1,
        "J": 0.25, "K": 0.1, "B": 0.3, "H": 0.3,
        "A": 0.8, "F": 0.7,
    }
    index = LargeItemsetIndex()
    for name, support in supports.items():
        index.add((names[name],), support)
    index.add((names["C"], names["G"]), 0.2)
    return index


def ids(names, *labels):
    return tuple(sorted(names[label] for label in labels))


@pytest.fixture
def candidates(index, figure1_taxonomy):
    return generate_negative_candidates(
        index, figure1_taxonomy, minsup=0.05, minri=0.5
    )


class TestCaseEnumeration:
    def test_case1_children_of_both_items(self, candidates, names):
        assert ids(names, "D", "J") in candidates
        assert ids(names, "D", "K") in candidates
        assert ids(names, "E", "J") in candidates

    def test_case1_expected_support(self, candidates, names):
        candidate = candidates[ids(names, "D", "J")]
        # sup(CG) * sup(D)/sup(C) * sup(J)/sup(G)
        assert candidate.expected_support == pytest.approx(
            0.2 * (0.2 / 0.4) * (0.25 / 0.4)
        )
        assert candidate.case == CASE_CHILDREN
        assert candidate.source == ids(names, "C", "G")

    def test_case2_single_child(self, candidates, names):
        assert ids(names, "C", "J") in candidates
        assert ids(names, "C", "K") in candidates
        assert ids(names, "D", "G") in candidates
        assert ids(names, "E", "G") in candidates

    def test_case2_expected_support(self, candidates, names):
        candidate = candidates[ids(names, "C", "J")]
        assert candidate.expected_support == pytest.approx(
            0.2 * (0.25 / 0.4)
        )

    def test_case3_siblings(self, candidates, names):
        assert ids(names, "B", "G") in candidates
        assert ids(names, "C", "H") in candidates

    def test_case3_expected_support(self, candidates, names):
        candidate = candidates[ids(names, "C", "H")]
        assert candidate.expected_support == pytest.approx(
            0.2 * (0.3 / 0.4)
        )
        assert candidate.case == CASE_SIBLINGS


class TestExclusions:
    def test_all_sibling_candidate_excluded(self, candidates, names):
        # Exclusion 1: {B, H} replaces *every* item by a sibling.
        assert ids(names, "B", "H") not in candidates

    def test_small_items_never_appear(self, candidates, names):
        # I is not a large 1-itemset.
        small = names["I"]
        assert all(small not in items for items in candidates)

    def test_low_expectation_excluded(self, candidates, names):
        # {E, K}: 0.2 * 0.25 * 0.25 = 0.0125 < MinSup*MinRI = 0.025.
        assert ids(names, "E", "K") not in candidates

    def test_threshold_boundary_inclusive(self, candidates, names):
        # {D, K}: exactly 0.025 — admitted (matches the paper's own
        # boundary example where E = MinSup*MinRI appears in Table 2).
        assert ids(names, "D", "K") in candidates

    def test_existing_large_itemset_not_a_candidate(
        self, index, figure1_taxonomy, names
    ):
        index.add(ids(names, "C", "J"), 0.3)  # now large
        regenerated = generate_negative_candidates(
            index, figure1_taxonomy, minsup=0.05, minri=0.5
        )
        assert ids(names, "C", "J") not in regenerated

    def test_no_candidate_contains_ancestor_pair(
        self, candidates, figure1_taxonomy
    ):
        for items in candidates:
            for item in items:
                ancestors = set(figure1_taxonomy.ancestors(item))
                assert not ancestors.intersection(items)

    def test_sources_of_size_one_ignored(self, index, figure1_taxonomy):
        only_singles = LargeItemsetIndex(
            {items: support for items, support in index.items()
             if len(items) == 1}
        )
        assert (
            generate_negative_candidates(
                only_singles, figure1_taxonomy, 0.05, 0.5
            )
            == {}
        )


class TestDeduplication:
    def test_max_expected_support_wins(self, index, figure1_taxonomy, names):
        # {A, F} large generates {C, H} via Case 1 with a *smaller*
        # expectation than {C, G} does via Case 3 — the larger must win
        # (Section 2.1.1: "the largest value ... is chosen").
        index.add(ids(names, "A", "F"), 0.5)
        candidates = generate_negative_candidates(
            index, figure1_taxonomy, minsup=0.05, minri=0.5
        )
        candidate = candidates[ids(names, "C", "H")]
        case1_value = 0.5 * (0.4 / 0.8) * (0.3 / 0.7)
        case3_value = 0.2 * (0.3 / 0.4)
        assert case1_value < case3_value
        assert candidate.expected_support == pytest.approx(case3_value)
        assert candidate.source == ids(names, "C", "G")


class TestSiblingReplacementCap:
    def test_cap_one_keeps_single_sibling_candidates(
        self, index, figure1_taxonomy, names
    ):
        capped = generate_negative_candidates(
            index, figure1_taxonomy, 0.05, 0.5,
            max_sibling_replacements=1,
        )
        assert ids(names, "C", "H") in capped
        assert ids(names, "B", "G") in capped

    def test_cap_never_affects_children_cases(
        self, index, figure1_taxonomy, names
    ):
        capped = generate_negative_candidates(
            index, figure1_taxonomy, 0.05, 0.5,
            max_sibling_replacements=1,
        )
        assert ids(names, "D", "J") in capped  # Case 1, both children

    def test_cap_is_subset_of_unlimited(self, index, figure1_taxonomy):
        unlimited = generate_negative_candidates(
            index, figure1_taxonomy, 0.05, 0.5
        )
        capped = generate_negative_candidates(
            index, figure1_taxonomy, 0.05, 0.5,
            max_sibling_replacements=1,
        )
        assert set(capped) <= set(unlimited)

    def test_cap_limits_multi_sibling_candidates(self, figure1_taxonomy):
        # Large 3-itemset {C, G, H}: with no cap, replacing both C and G
        # by siblings (B, and H/I) is allowed while keeping H; with cap 1
        # those two-sibling candidates vanish.
        taxonomy = figure1_taxonomy
        names = {name: taxonomy.id_of(name) for name in "ABCDEFGHIJK"}
        index = LargeItemsetIndex()
        for name, support in (
            ("B", 0.5), ("C", 0.5), ("G", 0.5), ("H", 0.5), ("I", 0.5),
        ):
            index.add((names[name],), support)
        triple = tuple(sorted((names["C"], names["G"], names["H"])))
        index.add(triple, 0.4)
        unlimited = generate_negative_candidates(
            index, taxonomy, 0.05, 0.5
        )
        capped = generate_negative_candidates(
            index, taxonomy, 0.05, 0.5, max_sibling_replacements=1
        )
        two_swaps = tuple(
            sorted((names["B"], names["I"], names["H"]))
        )
        assert two_swaps in unlimited
        assert two_swaps not in capped


class TestSourceFiltering:
    def test_explicit_sources(self, index, figure1_taxonomy, names):
        candidates = generate_negative_candidates(
            index,
            figure1_taxonomy,
            0.05,
            0.5,
            sources=[ids(names, "C", "G")],
        )
        assert candidates  # the usual candidates from {C, G}

    def test_max_size_skips_large_sources(
        self, index, figure1_taxonomy, names
    ):
        candidates = generate_negative_candidates(
            index, figure1_taxonomy, 0.05, 0.5, max_size=1
        )
        assert candidates == {}

    def test_degenerate_source_skipped(self, index, figure1_taxonomy, names):
        # A source containing an item and its ancestor predicts nothing.
        index.add(ids(names, "C", "D"), 0.2)
        candidates = generate_negative_candidates(
            index,
            figure1_taxonomy,
            0.05,
            0.5,
            sources=[ids(names, "C", "D")],
        )
        assert candidates == {}


class TestKernelCounters:
    def test_counters_land_in_the_obs_registry(self, index, figure1_taxonomy):
        registry = MetricsRegistry()
        obs.configure(registry=registry)
        try:
            result = generate_negative_candidates(
                index, figure1_taxonomy, 0.05, 0.5
            )
        finally:
            obs.shutdown()
        # {C, G}: C's children D, E and G's children J, K are large, so
        # Cases 1-2 visit (C), (G) and (C, G); C's sibling B and G's
        # sibling H are large, and Case 3 replaces one position: (C), (G).
        assert registry.counter("candidates.position_subsets") == 5
        # Leaves: (C) -> D, E and (G) -> J, K; (C, G) -> DJ, DK, EJ
        # (E x K falls below MinSup x MinRI); Case 3 -> BG, CH. All nine
        # are distinct and none is large, so every one is kept.
        assert registry.counter("candidates.leaf_masks") == 9
        assert registry.counter("candidates.kept") == len(result) == 9

    def test_leaves_count_the_ones_that_are_not_kept(
        self, index, figure1_taxonomy, names
    ):
        # {D, G} is large: the leaf {D, G} of {C, G} is dropped, and the
        # four leaves of the source {D, G} (DJ, DK, EG, DH) reach three
        # itemsets {C, G} reaches too.
        index.add(ids(names, "D", "G"), 0.1)
        registry = MetricsRegistry()
        obs.configure(registry=registry)
        try:
            result = generate_negative_candidates(
                index, figure1_taxonomy, 0.05, 0.5
            )
        finally:
            obs.shutdown()
        assert registry.counter("candidates.leaf_masks") == 9 + 4
        assert registry.counter("candidates.kept") == len(result) == 9

    def test_counters_accumulate_per_call(self, index, figure1_taxonomy):
        registry = MetricsRegistry()
        obs.configure(registry=registry)
        try:
            first = generate_negative_candidates(
                index, figure1_taxonomy, 0.05, 0.5
            )
            capped = generate_negative_candidates(
                index, figure1_taxonomy, 0.05, 0.5,
                max_sibling_replacements=0,
            )
        finally:
            obs.shutdown()
        assert registry.counter("candidates.position_subsets") == 5 + 3
        # The cap drops the two Case-3 leaves.
        assert registry.counter("candidates.leaf_masks") == 9 + 7
        assert registry.counter("candidates.kept") == len(first) + len(
            capped
        )
