"""Versioned rule-index deltas: ship what changed, not the whole index.

A re-mine over an appended database keeps most rule *identities* —
appends add a few rules and retire a few — but it moves almost every
rule's statistics, since each support is a fraction of the grown |D|.
:class:`RuleIndexDelta` captures the difference between two compiled
:class:`~repro.serve.rule_index.RuleIndex` versions:

``added``
    Rules in the new set that have no identity (kind + antecedent +
    consequent, :func:`~repro.serve.rule_index.rule_key`) in the old.
``removed``
    Identities in the old set that vanished.
``changed``
    Rules present in both whose *strength statistics* moved (RI,
    supports, confidence) — the slot reordering case: same rule, new
    rank.

The delta is *versioned*: ``from_version`` names the exact index it was
diffed against and ``to_version`` the index it produces. Application
(:meth:`~repro.serve.rule_index.RuleIndex.apply_delta`) refuses any
other base with :class:`~repro.errors.VersionSkewError`, so a watcher
and a server that drift apart fail loudly instead of serving a
mis-assembled rule set. Applying a delta is bit-identical to compiling
the new rule set from scratch (property-tested), which is what makes
pushing deltas to a live server sound.

The taxonomy and the large-itemset table ride along only when their
serialized payloads changed. The taxonomy is static in the paper's
setting; the large-itemset table is not, because its supports move with
|D| too. So a delta is not proportional to the rule churn: on 10,000
Short baskets (MinSup 0.10, MinRI 0.5) a 1 % append marks about 3,000
of 3,100 rules ``changed`` and re-ships the large-itemset table, and the
delta (~720 KB) is as large as the full index (DESIGN.md §13.3).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from collections.abc import Iterable

from ..core.rulegen import NegativeRule
from ..errors import ConfigError
from ..mining.itemset_index import LargeItemsetIndex
from ..mining.rules import AssociationRule
from ..serialize import check_payload, header
from ..serve.rule_index import (
    RuleIndex,
    RuleKey,
    _taxonomy_from_payload,
    _taxonomy_payload,
    rule_key,
)
from ..taxonomy.tree import Taxonomy

Rule = NegativeRule | AssociationRule


@dataclass(frozen=True, slots=True)
class RuleIndexDelta:
    """The difference between rule-index version ``from_version`` and
    ``to_version``.

    Attributes
    ----------
    from_version, to_version:
        The lineage edge this delta is: it applies to exactly
        ``from_version`` and produces ``to_version``.
    added, changed:
        Full rule objects (the receiver needs their statistics).
    removed:
        Cross-version identities only — enough to find and drop them.
    taxonomy_changed, taxonomy:
        The new taxonomy, carried only when it differs from the old
        index's (``taxonomy`` is meaningless unless the flag is set).
    itemsets_changed, large_itemsets:
        Same for the embedded large-itemset table.
    """

    from_version: int
    to_version: int
    added: tuple[Rule, ...] = ()
    removed: tuple[RuleKey, ...] = ()
    changed: tuple[Rule, ...] = ()
    taxonomy_changed: bool = False
    taxonomy: Taxonomy | None = None
    itemsets_changed: bool = False
    large_itemsets: LargeItemsetIndex | None = field(
        default=None, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def diff(
        cls,
        old: RuleIndex,
        negative_rules: Iterable[NegativeRule],
        positive_rules: Iterable[AssociationRule],
        taxonomy: Taxonomy | None = None,
        large_itemsets: LargeItemsetIndex | None = None,
        to_version: int | None = None,
    ) -> "RuleIndexDelta":
        """Diff the *old* index against a freshly mined rule set.

        *to_version* defaults to ``old.version + 1``. The new taxonomy /
        large-itemset table are compared against the old index's by
        serialized payload and carried only on change, so
        ``old.apply_delta(diff(...))`` reproduces, bit for bit, the
        index a fresh compile of the new rule set would build.
        """
        if to_version is None:
            to_version = old.version + 1
        old_rules = {
            rule_key(entry.rule): entry.rule for entry in old.rules
        }
        added: list[Rule] = []
        changed: list[Rule] = []
        seen: set[RuleKey] = set()
        for rule in (*negative_rules, *positive_rules):
            key = rule_key(rule)
            if key in seen:
                raise ConfigError(
                    f"duplicate rule identity in the new rule set: {key!r}"
                )
            seen.add(key)
            previous = old_rules.get(key)
            if previous is None:
                added.append(rule)
            elif previous != rule:
                changed.append(rule)
        removed = tuple(
            sorted(key for key in old_rules if key not in seen)
        )
        taxonomy_changed = _payload_or_none(
            _taxonomy_payload, old.taxonomy
        ) != _payload_or_none(_taxonomy_payload, taxonomy)
        itemsets_changed = _payload_or_none(
            LargeItemsetIndex.to_payload, old.large_itemsets
        ) != _payload_or_none(LargeItemsetIndex.to_payload, large_itemsets)
        return cls(
            from_version=old.version,
            to_version=to_version,
            added=tuple(added),
            removed=removed,
            changed=tuple(changed),
            taxonomy_changed=taxonomy_changed,
            taxonomy=taxonomy if taxonomy_changed else None,
            itemsets_changed=itemsets_changed,
            large_itemsets=large_itemsets if itemsets_changed else None,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rule_edits(self) -> int:
        """Total rule-level edits the delta carries."""
        return len(self.added) + len(self.removed) + len(self.changed)

    def is_empty(self) -> bool:
        """True when applying the delta only bumps the version."""
        return (
            not self.rule_edits
            and not self.taxonomy_changed
            and not self.itemsets_changed
        )

    def touched_antecedent_items(self) -> frozenset[int]:
        """Items appearing in any edited rule's antecedent.

        This is the serving layer's selective-invalidation key: a cached
        basket can only have changed answers if its (taxonomy-expanded)
        item set intersects these items — every added, removed or
        re-ranked rule needs its whole antecedent covered to fire, and
        every antecedent contains at least one touched item.
        """
        items: set[int] = set()
        for rule in (*self.added, *self.changed):
            items.update(rule.antecedent)
        for _kind, antecedent, _consequent in self.removed:
            items.update(antecedent)
        return frozenset(items)

    # ------------------------------------------------------------------
    # Persistence (the wire format of the ``reload_delta`` op)
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        payload: dict = {
            **header("rule-index-delta"),
            "from_version": self.from_version,
            "to_version": self.to_version,
            "added": [rule.as_dict() for rule in self.added],
            "removed": [
                [kind, list(antecedent), list(consequent)]
                for kind, antecedent, consequent in self.removed
            ],
            "changed": [rule.as_dict() for rule in self.changed],
        }
        if self.taxonomy_changed:
            payload["taxonomy"] = (
                _taxonomy_payload(self.taxonomy)
                if self.taxonomy is not None
                else None
            )
        if self.itemsets_changed:
            payload["large_itemsets"] = (
                self.large_itemsets.to_payload()
                if self.large_itemsets is not None
                else None
            )
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RuleIndexDelta":
        check_payload(payload, "rule-index-delta")
        taxonomy_changed = "taxonomy" in payload
        taxonomy = None
        if taxonomy_changed and payload["taxonomy"] is not None:
            taxonomy = _taxonomy_from_payload(payload["taxonomy"])
        itemsets_changed = "large_itemsets" in payload
        itemsets = None
        if itemsets_changed and payload["large_itemsets"] is not None:
            itemsets = LargeItemsetIndex.from_payload(
                payload["large_itemsets"]
            )
        return cls(
            from_version=payload["from_version"],
            to_version=payload["to_version"],
            added=tuple(
                _rule_from_dict(entry) for entry in payload["added"]
            ),
            removed=tuple(
                (kind, tuple(antecedent), tuple(consequent))
                for kind, antecedent, consequent in payload["removed"]
            ),
            changed=tuple(
                _rule_from_dict(entry) for entry in payload["changed"]
            ),
            taxonomy_changed=taxonomy_changed,
            taxonomy=taxonomy,
            itemsets_changed=itemsets_changed,
            large_itemsets=itemsets,
        )

    def to_json(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def from_json(cls, text: str) -> "RuleIndexDelta":
        return cls.from_payload(json.loads(text))

    def summary(self) -> str:
        parts = [
            f"v{self.from_version} -> v{self.to_version}",
            f"+{len(self.added)}",
            f"-{len(self.removed)}",
            f"~{len(self.changed)}",
        ]
        if self.taxonomy_changed:
            parts.append("taxonomy")
        if self.itemsets_changed:
            parts.append("itemsets")
        return " ".join(parts)


def _payload_or_none(serializer, value):
    return None if value is None else serializer(value)


def _rule_from_dict(entry: dict) -> Rule:
    if entry.get("kind") == "negative-rule":
        return NegativeRule.from_dict(entry)
    return AssociationRule.from_dict(entry)
