"""Unit tests for the compiled serving rule index."""

import errno
from pathlib import Path

import pytest

from repro.core.rulegen import NegativeRule
from repro.errors import ConfigError
from repro.mining.itemset_index import LargeItemsetIndex
from repro.mining.rules import AssociationRule
from repro.serve import RuleIndex
from repro.taxonomy.builders import taxonomy_from_nested


def negative(antecedent, consequent, ri=1.0):
    return NegativeRule(
        antecedent=tuple(antecedent),
        consequent=tuple(consequent),
        ri=ri,
        expected_support=0.3,
        actual_support=0.02,
        antecedent_support=0.4,
        consequent_support=0.4,
    )


def positive(antecedent, consequent, confidence=0.8, support=0.2):
    return AssociationRule(
        antecedent=tuple(antecedent),
        consequent=tuple(consequent),
        support=support,
        confidence=confidence,
    )


class TestCompilation:
    def test_slot_order_negatives_by_ri_then_positives(self):
        index = RuleIndex(
            negative_rules=[
                negative([1], [2], ri=0.5),
                negative([3], [4], ri=2.0),
            ],
            positive_rules=[
                positive([5], [6], confidence=0.6),
                positive([7], [8], confidence=0.9),
            ],
        )
        kinds = [entry.kind for entry in index.rules]
        assert kinds == ["negative", "negative", "positive", "positive"]
        assert index.rule(0).rule.ri == 2.0  # strongest negative first
        assert index.rule(2).rule.confidence == 0.9
        assert [entry.slot for entry in index.rules] == [0, 1, 2, 3]

    def test_postings_cover_antecedents_only(self):
        index = RuleIndex(
            negative_rules=[negative([1, 2], [3])],
        )
        assert index.postings(1) == (0,)
        assert index.postings(2) == (0,)
        assert index.postings(3) == ()  # consequents are not indexed
        assert index.postings(99) == ()

    def test_counts_and_len(self):
        index = RuleIndex(
            negative_rules=[negative([1], [2])],
            positive_rules=[positive([3], [4]), positive([5], [6])],
        )
        assert index.negative_count == 1
        assert index.positive_count == 2
        assert len(index) == 3

    def test_empty_antecedent_rejected(self):
        with pytest.raises(ConfigError):
            RuleIndex(negative_rules=[negative([], [1])])

    def test_empty_index_is_valid(self):
        index = RuleIndex()
        assert len(index) == 0
        assert index.postings(1) == ()


class TestPersistence:
    @pytest.fixture
    def taxonomy(self):
        return taxonomy_from_nested(
            {"drinks": {"soda": ["cola"], "water": ["still"]}}
        )

    def test_round_trip_preserves_everything(self, taxonomy):
        itemsets = LargeItemsetIndex({(1,): 0.5, (1, 2): 0.3})
        index = RuleIndex(
            negative_rules=[negative([1], [2])],
            positive_rules=[positive([2], [3])],
            taxonomy=taxonomy,
            large_itemsets=itemsets,
        )
        clone = RuleIndex.from_json(index.to_json())
        assert len(clone) == len(index)
        assert [e.rule for e in clone.rules] == [e.rule for e in index.rules]
        assert clone.taxonomy is not None
        assert clone.taxonomy.nodes == taxonomy.nodes
        assert clone.taxonomy.parent_map() == taxonomy.parent_map()
        assert clone.taxonomy.names_map() == taxonomy.names_map()
        assert clone.large_itemsets is not None
        assert clone.large_itemsets.support((1, 2)) == 0.3

    def test_round_trip_without_taxonomy(self):
        index = RuleIndex(negative_rules=[negative([1], [2])])
        clone = RuleIndex.from_json(index.to_json())
        assert clone.taxonomy is None
        assert clone.large_itemsets is None
        assert len(clone) == 1

    def test_save_load(self, tmp_path, taxonomy):
        path = tmp_path / "index.json"
        index = RuleIndex(
            negative_rules=[negative([1], [2])], taxonomy=taxonomy
        )
        index.save(path)
        clone = RuleIndex.load(path)
        assert len(clone) == 1
        assert clone.rule(0).rule == index.rule(0).rule

    def test_failed_save_keeps_the_previous_index(
        self, tmp_path, monkeypatch
    ):
        """A write that dies partway (full disk) must neither truncate
        the saved index nor leave its temp file behind."""
        path = tmp_path / "index.json"
        RuleIndex(negative_rules=[negative([1], [2])]).save(path)
        real_write_text = Path.write_text

        def half_then_enospc(self, data, *args, **kwargs):
            real_write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", half_then_enospc)
        bigger = RuleIndex(
            negative_rules=[negative([1], [2]), negative([3], [4])]
        )
        with pytest.raises(OSError):
            bigger.save(path)
        monkeypatch.undo()
        assert len(RuleIndex.load(path)) == 1
        assert [entry.name for entry in tmp_path.iterdir()] == [
            "index.json"
        ]

    def test_wrong_kind_rejected(self):
        index = RuleIndex(negative_rules=[negative([1], [2])])
        payload = index.to_payload()
        payload["kind"] = "itemset-index"
        with pytest.raises(ConfigError):
            RuleIndex.from_payload(payload)

    def test_wrong_schema_rejected(self):
        index = RuleIndex()
        payload = index.to_payload()
        payload["schema"] = 999
        with pytest.raises(ConfigError):
            RuleIndex.from_payload(payload)


class TestRuleDictRoundTrips:
    def test_negative_rule(self):
        rule = negative([1, 2], [3], ri=1.5)
        payload = rule.as_dict()
        assert payload["kind"] == "negative-rule"
        assert payload["schema"] == 1
        assert NegativeRule.from_dict(payload) == rule

    def test_positive_rule(self):
        rule = positive([1], [2, 3], confidence=0.75)
        payload = rule.as_dict()
        assert payload["kind"] == "positive-rule"
        assert payload["schema"] == 1
        assert AssociationRule.from_dict(payload) == rule

    def test_kinds_not_interchangeable(self):
        with pytest.raises(ConfigError):
            NegativeRule.from_dict(positive([1], [2]).as_dict())
