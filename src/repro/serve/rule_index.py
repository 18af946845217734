"""The compiled rule index: mined rules behind antecedent postings.

A :class:`RuleIndex` freezes a mined rule set — strong negative rules
(:class:`~repro.core.rulegen.NegativeRule`) and positive rules
(:class:`~repro.mining.rules.AssociationRule`) — into the form the
online scorer needs:

* every rule gets a stable integer *slot* in a deterministic global
  order (negatives by descending RI first, then positives by descending
  confidence), so match results are reproducible and cache keys cheap;
* an inverted index maps each antecedent item to the sorted slots of
  the rules whose antecedent contains it (the serving-side sibling of
  the large-itemset hash table of paper §2.4 — built for subset probes
  instead of exact lookups);
* the taxonomy rides along, because basket items must fire rules on
  their ancestors, and so (optionally) does the large-itemset index,
  for support lookups and on-target selective generation at serve time.

The whole index serializes to one JSON document
(:meth:`RuleIndex.save` / :meth:`RuleIndex.load`, schema-versioned via
:mod:`repro.serialize`), so a rule set is mined once and served forever.
"""

from __future__ import annotations

import json
import os
from collections.abc import ItemsView, Iterable
from dataclasses import dataclass
from pathlib import Path

from ..core.rulegen import NegativeRule
from ..errors import ConfigError, VersionSkewError
from ..itemset import Itemset
from ..mining.itemset_index import LargeItemsetIndex
from ..mining.rules import AssociationRule
from ..serialize import check_payload, header
from ..taxonomy.tree import Taxonomy

#: Rule kinds as stored in :class:`IndexedRule` and payloads.
KIND_NEGATIVE = "negative"
KIND_POSITIVE = "positive"

_EMPTY: tuple[int, ...] = ()

#: Identity of a compiled rule across index versions: what a delta's
#: ``removed`` list names, and what links an old slot to its new slot
#: after :meth:`RuleIndex.apply_delta`. Two rules with the same key are
#: the *same* rule (possibly with updated strength statistics).
RuleKey = tuple[str, Itemset, Itemset]


def rule_key(rule: NegativeRule | AssociationRule) -> RuleKey:
    """The cross-version identity ``(kind, antecedent, consequent)``."""
    kind = KIND_NEGATIVE if isinstance(rule, NegativeRule) else KIND_POSITIVE
    return (kind, rule.antecedent, rule.consequent)


@dataclass(frozen=True, slots=True)
class IndexedRule:
    """One compiled rule: its slot, kind, and the original rule object."""

    slot: int
    kind: str
    rule: NegativeRule | AssociationRule

    @property
    def antecedent(self) -> Itemset:
        return self.rule.antecedent

    @property
    def consequent(self) -> Itemset:
        return self.rule.consequent


def _negative_order(rule: NegativeRule):
    return (-rule.ri, rule.antecedent, rule.consequent)


def _positive_order(rule: AssociationRule):
    return (-rule.confidence, -rule.support, rule.antecedent,
            rule.consequent)


class RuleIndex:
    """Compiled positive + negative rules keyed by antecedent items.

    Parameters
    ----------
    negative_rules, positive_rules:
        The mined rule set. Order does not matter — rules are re-sorted
        into the canonical slot order at compile time.
    taxonomy:
        The taxonomy baskets are scored under (items fire rules on
        their ancestors). ``None`` compiles a flat index.
    large_itemsets:
        Optional large-itemset index to carry along (support lookups,
        serve-time diagnostics). Persisted with the rules.
    version:
        Monotonically increasing index version. A fresh compile starts a
        lineage (``repro compile`` writes version 1); every applied
        :meth:`apply_delta` bumps it by at least one. Deltas carry the
        version they were diffed against, so applying one to the wrong
        base fails with :class:`~repro.errors.VersionSkewError` instead
        of silently mis-applying.
    """

    __slots__ = ("_rules", "_postings", "_taxonomy", "_itemsets",
                 "_negative_count", "_version")

    def __init__(
        self,
        negative_rules: Iterable[NegativeRule] = (),
        positive_rules: Iterable[AssociationRule] = (),
        taxonomy: Taxonomy | None = None,
        large_itemsets: LargeItemsetIndex | None = None,
        version: int = 0,
    ) -> None:
        if not isinstance(version, int) or isinstance(version, bool) \
                or version < 0:
            raise ConfigError(
                f"index version must be a non-negative integer, "
                f"got {version!r}"
            )
        negatives = sorted(negative_rules, key=_negative_order)
        positives = sorted(positive_rules, key=_positive_order)
        compiled: list[IndexedRule] = []
        for rule in negatives:
            compiled.append(IndexedRule(len(compiled), KIND_NEGATIVE, rule))
        for rule in positives:
            compiled.append(IndexedRule(len(compiled), KIND_POSITIVE, rule))
        postings: dict[int, list[int]] = {}
        for entry in compiled:
            if not entry.antecedent:
                raise ConfigError(
                    "cannot index a rule with an empty antecedent"
                )
            for item in entry.antecedent:
                postings.setdefault(item, []).append(entry.slot)
        self._rules: tuple[IndexedRule, ...] = tuple(compiled)
        # Slots were appended in increasing order, so each posting list
        # is already sorted.
        self._postings: dict[int, tuple[int, ...]] = {
            item: tuple(slots) for item, slots in postings.items()
        }
        self._taxonomy = taxonomy
        self._itemsets = large_itemsets
        self._negative_count = len(negatives)
        self._version = version

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def rules(self) -> tuple[IndexedRule, ...]:
        """All compiled rules in slot order (negatives first)."""
        return self._rules

    def rule(self, slot: int) -> IndexedRule:
        """The compiled rule at *slot*."""
        return self._rules[slot]

    def postings(self, item: int) -> tuple[int, ...]:
        """Slots of the rules whose antecedent contains *item*."""
        return self._postings.get(item, _EMPTY)

    def all_postings(self) -> ItemsView[int, tuple[int, ...]]:
        """Every ``(antecedent item, sorted slots)`` pair of the index."""
        return self._postings.items()

    @property
    def taxonomy(self) -> Taxonomy | None:
        return self._taxonomy

    @property
    def large_itemsets(self) -> LargeItemsetIndex | None:
        return self._itemsets

    @property
    def version(self) -> int:
        """The index's position in its delta lineage (0 = unversioned)."""
        return self._version

    @property
    def negative_count(self) -> int:
        return self._negative_count

    @property
    def positive_count(self) -> int:
        return len(self._rules) - self._negative_count

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return (
            f"RuleIndex(version={self._version}, "
            f"negative={self.negative_count}, "
            f"positive={self.positive_count}, "
            f"items={len(self._postings)}, "
            f"taxonomy={'yes' if self._taxonomy is not None else 'no'})"
        )

    # ------------------------------------------------------------------
    # Delta application
    # ------------------------------------------------------------------
    def slots_by_key(self) -> dict[RuleKey, int]:
        """Map each rule's cross-version identity to its current slot."""
        return {
            rule_key(entry.rule): entry.slot for entry in self._rules
        }

    def apply_delta(self, delta) -> "RuleIndex":
        """A new index with *delta* applied; bit-identical to recompiling.

        *delta* is a :class:`repro.stream.delta.RuleIndexDelta` (duck-
        typed: anything with the same attributes works). The result is
        byte-for-byte the index a fresh compile of the post-delta rule
        set would produce — the property the streaming watcher's delta
        pushes rely on, and what ``tests/property/test_prop_delta.py``
        pins.

        Raises
        ------
        VersionSkewError
            When the delta was diffed against a different index version,
            when it does not advance the version, or when its rule edits
            do not apply cleanly (a removed/changed rule that is not in
            the index, an added rule that already is) — all symptoms of
            applying a delta to the wrong base.
        """
        if delta.from_version != self._version:
            raise VersionSkewError(
                f"delta applies to index version {delta.from_version}, "
                f"but the installed index is version {self._version}"
            )
        if delta.to_version <= self._version:
            raise VersionSkewError(
                f"delta target version {delta.to_version} does not "
                f"advance the installed version {self._version}"
            )
        present = {rule_key(entry.rule) for entry in self._rules}
        drop = set(delta.removed)
        drop.update(rule_key(rule) for rule in delta.changed)
        missing = drop - present
        if missing:
            raise VersionSkewError(
                f"delta removes/updates {len(missing)} rule(s) not in "
                f"the installed index (first: {sorted(missing)[0]!r})"
            )
        colliding = [
            key for key in map(rule_key, delta.added) if key in present
        ]
        if colliding:
            raise VersionSkewError(
                f"delta adds {len(colliding)} rule(s) already in the "
                f"installed index (first: {colliding[0]!r})"
            )
        negatives: list[NegativeRule] = []
        positives: list[AssociationRule] = []
        for entry in self._rules:
            if rule_key(entry.rule) in drop:
                continue
            if entry.kind == KIND_NEGATIVE:
                negatives.append(entry.rule)
            else:
                positives.append(entry.rule)
        for rule in (*delta.added, *delta.changed):
            if isinstance(rule, NegativeRule):
                negatives.append(rule)
            else:
                positives.append(rule)
        return RuleIndex(
            negative_rules=negatives,
            positive_rules=positives,
            taxonomy=(
                delta.taxonomy if delta.taxonomy_changed else self._taxonomy
            ),
            large_itemsets=(
                delta.large_itemsets
                if delta.itemsets_changed
                else self._itemsets
            ),
            version=delta.to_version,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """A JSON-able dict of the whole index (rules + taxonomy)."""
        payload: dict = {
            **header("rule-index"),
            "index_version": self._version,
            "rules": [entry.rule.as_dict() for entry in self._rules],
        }
        if self._taxonomy is not None:
            payload["taxonomy"] = _taxonomy_payload(self._taxonomy)
        if self._itemsets is not None:
            payload["large_itemsets"] = self._itemsets.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "RuleIndex":
        """Rebuild an index from :meth:`to_payload` output.

        The postings are recompiled rather than persisted — they are
        derived data, and recompiling keeps the file format independent
        of the in-memory layout.
        """
        check_payload(payload, "rule-index")
        negatives: list[NegativeRule] = []
        positives: list[AssociationRule] = []
        for entry in payload["rules"]:
            if entry.get("kind") == "negative-rule":
                negatives.append(NegativeRule.from_dict(entry))
            else:
                positives.append(AssociationRule.from_dict(entry))
        taxonomy = None
        if "taxonomy" in payload:
            taxonomy = _taxonomy_from_payload(payload["taxonomy"])
        itemsets = None
        if "large_itemsets" in payload:
            itemsets = LargeItemsetIndex.from_payload(
                payload["large_itemsets"]
            )
        return cls(
            negative_rules=negatives,
            positive_rules=positives,
            taxonomy=taxonomy,
            large_itemsets=itemsets,
            # Indexes written before the streaming subsystem carry no
            # version counter; they load as version 0 (a fresh lineage).
            version=payload.get("index_version", 0),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_payload())

    @classmethod
    def from_json(cls, text: str) -> "RuleIndex":
        return cls.from_payload(json.loads(text))

    def save(self, path: str | Path) -> None:
        """Write the index as one JSON document at *path*, atomically.

        The document goes to a sibling temp file that then replaces
        *path*, so a failed write (a crash, a full disk) leaves the
        previous index in place instead of a truncated one; the temp
        file is removed when the write fails.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(self.to_json() + "\n")
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise

    @classmethod
    def load(cls, path: str | Path) -> "RuleIndex":
        """Read an index written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


def _taxonomy_payload(taxonomy: Taxonomy) -> dict:
    """Serialize a taxonomy: parent edges, names, and the full node set.

    The node list makes the round-trip exact even for isolated items
    (valid leaves with neither parent nor children), which the parent
    map alone cannot represent.
    """
    return {
        **header("taxonomy"),
        "parents": [
            [child, parent]
            for child, parent in sorted(taxonomy.parent_map().items())
        ],
        "names": [
            [node, name]
            for node, name in sorted(taxonomy.names_map().items())
        ],
        "nodes": list(taxonomy.nodes),
    }


def _taxonomy_from_payload(payload: dict) -> Taxonomy:
    check_payload(payload, "taxonomy")
    return Taxonomy(
        parents={child: parent for child, parent in payload["parents"]},
        names={node: name for node, name in payload["names"]},
        extra_roots=payload["nodes"],
    )
