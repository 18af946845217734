"""Basket scoring: which compiled rules fire on a set of items.

Given a basket (any iterable of item ids), the matcher returns every
rule in the :class:`~repro.serve.rule_index.RuleIndex` whose antecedent
is a subset of the basket. Matching is *taxonomy-aware*: each basket
item is first expanded with its taxonomy ancestors (a customer who
bought Evian holds "Bottled water" and "Beverages" too — the same
extension generalized support counting applies to transactions), so
rules phrased at any taxonomy level fire.

The fast path works on *slot bitmasks*: every distinct antecedent item
owns one ``int`` whose bit ``s`` is set when rule slot ``s`` holds the
item in its antecedent. A rule fires exactly when none of its
antecedent items is missing from the expanded basket, so one match is
``all_slots & ~OR(mask[i] for antecedent items i not in the basket)``
— one big-int OR per absent antecedent item, costing
O(distinct antecedent items × slots / 64) machine words whatever the
basket fires. The set bits are read in slot order, so a caller that
keeps only the strongest *limit* matches builds only those
(:meth:`BasketMatcher.match_top`). The masks are derived from the
index's postings on the first match after a bind or rebind, never at
compile or delta time, so paths that swap indexes without scoring pay
nothing for them. :func:`naive_match` is the verification oracle: a
plain subset scan over *every* rule, kept deliberately independent of
the postings and the masks so property tests can assert the two
produce bit-identical results.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from ..core.rulegen import NegativeRule
from ..mining.rules import AssociationRule
from ..obs import api as obs
from .rule_index import RuleIndex


@dataclass(frozen=True, slots=True)
class Match:
    """One fired rule.

    Attributes
    ----------
    slot, kind:
        The rule's position and kind (``"negative"``/``"positive"``)
        in the index.
    rule:
        The original rule object.
    consequent_present:
        Whether the (expanded) basket already contains the whole
        consequent — for a negative rule that is the anomaly the rule
        predicts against; for a positive rule it means the
        recommendation is already satisfied.
    """

    slot: int
    kind: str
    rule: NegativeRule | AssociationRule
    consequent_present: bool


def expand_basket(
    basket: Iterable[int], index: RuleIndex
) -> frozenset[int]:
    """The basket plus every taxonomy ancestor of every known item.

    Item ids unknown to the taxonomy are kept as-is (they simply cannot
    fire generalized rules); without a taxonomy the basket is returned
    unchanged. Duplicates collapse — matching is set semantics.
    """
    taxonomy = index.taxonomy
    if taxonomy is None:
        return frozenset(basket)
    expanded: set[int] = set()
    for item in basket:
        expanded.add(item)
        if item in taxonomy:
            expanded.update(taxonomy.ancestors(item))
    return frozenset(expanded)


def _slot_mask(slots: tuple[int, ...]) -> int:
    """The ``int`` with exactly the bits of the sorted *slots* set."""
    bits = bytearray((slots[-1] >> 3) + 1)
    for slot in slots:
        bits[slot >> 3] |= 1 << (slot & 7)
    return int.from_bytes(bits, "little")


def _set_bits(fired: int, limit: int | None) -> list[int]:
    """The first *limit* set bit positions of *fired*, lowest first
    (all of them for ``None``)."""
    # bin() renders bit 0 last; reversed, string position == slot.
    bits = bin(fired)[:1:-1]
    slots: list[int] = []
    find = bits.find
    position = find("1")
    while position >= 0 and len(slots) != limit:
        slots.append(position)
        position = find("1", position + 1)
    return slots


class BasketMatcher:
    """Score baskets against one compiled rule index."""

    __slots__ = ("_index", "_masks")

    def __init__(self, index: RuleIndex) -> None:
        self._index = index
        #: ``(index, {item: slot mask}, all-slots mask)`` for the index
        #: the masks were built from, or ``None`` until the first match.
        self._masks: tuple | None = None

    @property
    def index(self) -> RuleIndex:
        return self._index

    def rebind(self, index: RuleIndex) -> None:
        """Swap in a new index (a pushed delta); its masks are built on
        the next match."""
        self._index = index
        self._masks = None

    def _slot_masks(self, index: RuleIndex) -> tuple[dict[int, int], int]:
        """The per-item slot masks of *index*, built once per index.

        The cached masks carry the index they were built from and are
        rebuilt whenever that is not *index*, so masks of a replaced
        index can never answer a match.
        """
        built = self._masks
        if built is None or built[0] is not index:
            with obs.span("serve.matcher.build"):
                masks = {
                    item: _slot_mask(slots)
                    for item, slots in index.all_postings()
                }
                built = (index, masks, (1 << len(index)) - 1)
            self._masks = built
            obs.incr("serve.matcher.builds")
        return built[1], built[2]

    def match_top(
        self, basket: Iterable[int], limit: int | None = None
    ) -> tuple[int, list[Match]]:
        """The number of rules firing on *basket*, and the first *limit*
        of them in slot order (all of them for ``None``).

        Slot order ranks negatives by descending RI first, then
        positives by descending confidence, so the kept matches are the
        strongest; only those are built.
        """
        index = self._index
        masks, all_slots = self._slot_masks(index)
        expanded = expand_basket(basket, index)
        missing = 0
        for item in masks.keys() - expanded:
            missing |= masks[item]
        fired = all_slots & ~missing
        rules = index.rules
        matches = []
        for slot in _set_bits(fired, limit):
            entry = rules[slot]
            matches.append(
                Match(
                    slot=slot,
                    kind=entry.kind,
                    rule=entry.rule,
                    consequent_present=(
                        expanded.issuperset(entry.consequent)
                    ),
                )
            )
        return fired.bit_count(), matches

    def match(self, basket: Iterable[int]) -> list[Match]:
        """All rules whose antecedent the (expanded) basket covers.

        Returns matches in slot order — negatives by descending RI
        first, then positives by descending confidence — so the
        strongest signals lead.
        """
        return self.match_top(basket)[1]


def naive_match(index: RuleIndex, basket: Iterable[int]) -> list[Match]:
    """The verification oracle: subset-scan every rule in the index.

    Shares only :func:`expand_basket` with the fast path; the firing
    test itself is an independent ``issubset`` per rule, so agreement
    with :meth:`BasketMatcher.match` genuinely checks the slot masks
    and the bit arithmetic.
    """
    expanded = expand_basket(basket, index)
    matches: list[Match] = []
    for entry in index.rules:
        if expanded.issuperset(entry.antecedent):
            matches.append(
                Match(
                    slot=entry.slot,
                    kind=entry.kind,
                    rule=entry.rule,
                    consequent_present=expanded.issuperset(
                        entry.consequent
                    ),
                )
            )
    return matches
