"""Golden regression values for the worked-example database.

Pins the exact numeric outputs of the full pipeline on the deterministic
Table-1 rendition (see test_paper_example): any change to counting,
expectation, dedup, thresholds or rule generation that shifts these
numbers — even slightly — fails here first. A candidate-generation
fingerprint on a small synthetic Tall draw does the same for the
Section 2.1.1 enumeration at a realistic size.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.core.api import mine_negative_rules
from repro.core.candidates import generate_negative_candidates
from repro.data.database import TransactionDatabase
from repro.mining.generalized import mine_generalized
from repro.synthetic.generator import generate_dataset
from repro.synthetic.params import TALL
from repro.taxonomy.builders import taxonomy_from_nested
from repro.taxonomy.prune import restrict_to_items

GROUPS = [
    (("Bryers", "Evian"), 1200),
    (("Bryers", "Perrier"), 50),
    (("Bryers",), 750),
    (("Healthy Choice", "Evian"), 420),
    (("Healthy Choice", "Perrier"), 250),
    (("Healthy Choice",), 330),
    (("Evian",), 380),
    (("Perrier",), 500),
    (("Carbonated",), 6120),
]


@pytest.fixture(scope="module")
def mined():
    taxonomy = taxonomy_from_nested(
        {
            "Beverages": {
                "Carbonated": [],
                "NonCarbonated": {
                    "Bottled juices": [],
                    "Bottled water": ["Evian", "Perrier"],
                },
            },
            "Desserts": {
                "Ice creams": [],
                "Frozen yogurt": ["Bryers", "Healthy Choice"],
            },
        }
    )
    rows = [
        [taxonomy.id_of(name) for name in names]
        for names, count in GROUPS
        for _ in range(count)
    ]
    result = mine_negative_rules(
        TransactionDatabase(rows), taxonomy, minsup=0.04, minri=0.5
    )
    return taxonomy, result


class TestGoldenSupports:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("Bryers", 0.2),
            ("Healthy Choice", 0.1),
            ("Evian", 0.2),
            ("Perrier", 0.08),
            ("Frozen yogurt", 0.3),
            ("Bottled water", 0.28),
            ("Desserts", 0.3),
        ],
    )
    def test_single_supports(self, mined, name, expected):
        taxonomy, result = mined
        assert result.large_itemsets.support(
            (taxonomy.id_of(name),)
        ) == pytest.approx(expected)

    def test_category_pair_support(self, mined):
        taxonomy, result = mined
        pair = tuple(
            sorted(
                (
                    taxonomy.id_of("Frozen yogurt"),
                    taxonomy.id_of("Bottled water"),
                )
            )
        )
        assert result.large_itemsets.support(pair) == pytest.approx(0.192)


class TestGoldenRule:
    def test_perrier_bryers_rule_values(self, mined):
        taxonomy, result = mined
        perrier = taxonomy.id_of("Perrier")
        bryers = taxonomy.id_of("Bryers")
        rule = next(
            r
            for r in result.rules
            if r.antecedent == (perrier,) and r.consequent == (bryers,)
        )
        # Case-3 path from {Bryers, Evian}: 0.12 * 0.08/0.20 = 0.048.
        assert rule.expected_support == pytest.approx(0.048)
        assert rule.actual_support == pytest.approx(0.005)
        assert rule.antecedent_support == pytest.approx(0.08)
        assert rule.consequent_support == pytest.approx(0.2)
        assert rule.ri == pytest.approx((0.048 - 0.005) / 0.08)

    def test_reverse_direction_absent(self, mined):
        taxonomy, result = mined
        perrier = taxonomy.id_of("Perrier")
        bryers = taxonomy.id_of("Bryers")
        assert not any(
            r.antecedent == (bryers,) and r.consequent == (perrier,)
            for r in result.rules
        )

    def test_negative_itemset_provenance(self, mined):
        taxonomy, result = mined
        perrier = taxonomy.id_of("Perrier")
        bryers = taxonomy.id_of("Bryers")
        evian = taxonomy.id_of("Evian")
        pair = tuple(sorted((perrier, bryers)))
        negative = next(
            n for n in result.negative_itemsets if n.items == pair
        )
        assert negative.case == "siblings"
        assert negative.source == tuple(sorted((bryers, evian)))

    def test_total_counts_stable(self, mined):
        _taxonomy, result = mined
        assert result.stats.large_itemsets == 26
        assert result.stats.candidates_generated == 7
        assert result.stats.negative_itemsets == 7
        assert len(result.rules) == 7


class TestGoldenCandidates:
    """Fingerprint of negative candidate generation on a small Tall draw.

    The hash covers every field of every candidate in dict order, with
    ``repr`` of the expected support, so a change to the enumeration's
    admission rules, its float arithmetic or its insertion order fails
    here. Recorded from the leaf-rejecting enumeration that the
    subtree-cutting one replaced.
    """

    MINSUP = 0.15
    MINRI = 0.5

    @pytest.fixture(scope="class")
    def tall(self):
        dataset = generate_dataset(
            replace(TALL.scaled(0.02), num_transactions=300), seed=3
        )
        index = mine_generalized(
            dataset.database, dataset.taxonomy, self.MINSUP
        )
        pruned = restrict_to_items(
            dataset.taxonomy, [items[0] for items in index.of_size(1)]
        )
        return index, pruned

    @staticmethod
    def fingerprint(candidates) -> str:
        digest = hashlib.sha256()
        for items, candidate in candidates.items():
            digest.update(
                f"{items}|{candidate.expected_support!r}|"
                f"{candidate.source}|{candidate.case}\n".encode()
            )
        return digest.hexdigest()

    @pytest.mark.parametrize(
        "cap,count,expected",
        [
            pytest.param(
                None,
                3262,
                "197f8bf8417a592d90ece5e595b62561"
                "e9539d026108782d07dd600ae79e86e5",
                id="uncapped",
            ),
            pytest.param(
                1,
                3110,
                "fe3fce22b608709cb8654abe75b1594d"
                "33d36a3a0ed8ad2ec497a0150e775f73",
                id="one-sibling",
            ),
        ],
    )
    def test_candidate_fingerprint(self, tall, cap, count, expected):
        index, pruned = tall
        candidates = generate_negative_candidates(
            index, pruned, self.MINSUP, self.MINRI,
            max_sibling_replacements=cap,
        )
        assert len(candidates) == count
        assert self.fingerprint(candidates) == expected
