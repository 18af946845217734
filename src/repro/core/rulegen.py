"""Negative rule generation (paper Section 2.3, Figure 4).

For each negative itemset ``n`` the generator emits rules
``(n - h) =/=> h`` over consequents ``h`` grown level-wise with
``apriori-gen`` — the paper's extension of the classic *ap-genrules*
procedure. A consequent ``h`` survives a level only when all of:

* ``h`` is a large itemset (the consequent of a rule must meet MinSup);
* the antecedent ``n - h`` is a large itemset (same requirement on the
  antecedent; Figure 4 prunes the consequent when it fails);
* ``RI = (E[sup(n)] - sup(n)) / sup(n - h) >= MinRI`` — growing the
  consequent only shrinks the antecedent, whose support can then only be
  larger, so a failed RI can never recover on a superset consequent.

``prune_small_antecedents=False`` disables the second pruning (but still
refuses to *emit* such rules) so the exhaustive behavior can be compared
in tests: Figure 4's pruning is a heuristic — subsets of a small
antecedent may themselves be large.

The third condition is the default measure's; generation is
parameterized by any registered
:class:`~repro.measures.registry.InterestMeasure`, whose ``rule_score``
/ ``admits_rule`` replace the RI arithmetic (and whose
``monotone_prune`` capability decides whether a failed score prunes
superset consequents the way RI's monotonicity allows).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator

from .._util import check_fraction
from ..itemset import Itemset, difference
from ..measures.registry import InterestMeasure, create_measure
from ..mining.apriori import apriori_gen
from ..mining.itemset_index import LargeItemsetIndex
from ..serialize import check_payload, header
from ..taxonomy.tree import Taxonomy
from .negmining import NegativeItemset


@dataclass(frozen=True, slots=True)
class NegativeRule:
    """A strong negative association rule ``antecedent =/=> consequent``.

    Attributes
    ----------
    antecedent, consequent:
        Disjoint non-empty canonical itemsets partitioning the negative
        itemset.
    ri:
        The admitting measure's rule score — the paper's rule interest
        for the default ``"ri"`` measure, the respective score for an
        alternative measure (see :attr:`measure`).
    expected_support, actual_support:
        Expectation vs measurement for ``antecedent ∪ consequent``.
    antecedent_support, consequent_support:
        Fractional supports of the sides (both >= MinSup by construction).
    measure:
        Name of the registered interestingness measure that admitted
        (and scored) this rule; provenance carried through serialization
        into the serving layer's rule index.
    """

    antecedent: Itemset
    consequent: Itemset
    ri: float
    expected_support: float
    actual_support: float
    antecedent_support: float
    consequent_support: float
    measure: str = "ri"

    @property
    def items(self) -> Itemset:
        """The underlying negative itemset."""
        return tuple(sorted(self.antecedent + self.consequent))

    def as_dict(self) -> dict:
        """A versioned JSON-able payload (see :mod:`repro.serialize`).

        Round-trips through :meth:`from_dict`; the serving layer's rule
        index persists rules in exactly this form.
        """
        return {
            **header("negative-rule"),
            "antecedent": list(self.antecedent),
            "consequent": list(self.consequent),
            "ri": self.ri,
            "expected_support": self.expected_support,
            "actual_support": self.actual_support,
            "antecedent_support": self.antecedent_support,
            "consequent_support": self.consequent_support,
            "measure": self.measure,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "NegativeRule":
        """Rebuild a rule from :meth:`as_dict` output.

        ``measure`` is read leniently (``"ri"`` when absent) so rule
        indexes compiled before measure provenance existed keep
        loading.
        """
        check_payload(payload, "negative-rule")
        return cls(
            antecedent=tuple(payload["antecedent"]),
            consequent=tuple(payload["consequent"]),
            ri=payload["ri"],
            expected_support=payload["expected_support"],
            actual_support=payload["actual_support"],
            antecedent_support=payload["antecedent_support"],
            consequent_support=payload["consequent_support"],
            measure=payload.get("measure", "ri"),
        )

    def format(self, taxonomy: Taxonomy | None = None) -> str:
        """Render the rule, using taxonomy names when available."""
        if taxonomy is not None:
            name_of = taxonomy.name_of
        else:
            name_of = str
        left = ", ".join(name_of(item) for item in self.antecedent)
        right = ", ".join(name_of(item) for item in self.consequent)
        label = "RI" if self.measure == "ri" else self.measure
        return (
            f"{{{left}}} =/=> {{{right}}} "
            f"({label}={self.ri:.3f}, expected={self.expected_support:.4f}, "
            f"actual={self.actual_support:.4f})"
        )


def generate_negative_rules(
    negatives: Iterable[NegativeItemset],
    index: LargeItemsetIndex,
    minri: float,
    prune_small_antecedents: bool = True,
    measure: "str | InterestMeasure | None" = None,
    minsup: float | None = None,
) -> list[NegativeRule]:
    """Generate every strong negative rule from the negative itemsets.

    Parameters
    ----------
    negatives:
        Output of a negative miner.
    index:
        The generalized large itemsets (for side supports and largeness
        tests).
    minri:
        Minimum rule interest.
    prune_small_antecedents:
        Follow Figure 4 and stop extending a consequent whose antecedent
        is small (default), or keep extending for exhaustive enumeration.
    measure:
        The interestingness measure scoring and admitting splits — a
        registered spec or instance; ``None`` means the paper's RI.
    minsup:
        Minimum support, for measures whose rule threshold needs it
        (``kong-interest``); the RI path ignores it.

    Returns
    -------
    list of NegativeRule, sorted by descending score.
    """
    check_fraction(minri, "minri")
    if measure is None:
        measure = create_measure("ri")
    elif isinstance(measure, str):
        measure = create_measure(measure)
    rules: list[NegativeRule] = []
    for negative in negatives:
        rules.extend(
            _rules_for_itemset(negative, index, minri,
                               prune_small_antecedents, measure, minsup)
        )
    rules.sort(key=lambda rule: (-rule.ri, rule.antecedent, rule.consequent))
    return rules


def _rules_for_itemset(
    negative: NegativeItemset,
    index: LargeItemsetIndex,
    minri: float,
    prune_small_antecedents: bool,
    measure: InterestMeasure,
    minsup: float | None,
) -> Iterator[NegativeRule]:
    items = negative.items
    size = len(items)
    frontier: list[Itemset] = []
    for drop in range(size):
        consequent = (items[drop],)
        # items is canonical, so slicing out one item is the difference.
        keep, rule = _evaluate(
            negative, consequent, items[:drop] + items[drop + 1:], index,
            minri, prune_small_antecedents, measure, minsup,
        )
        if rule is not None:
            yield rule
        if keep:
            frontier.append(consequent)

    while frontier and len(frontier[0]) + 1 < size:
        next_frontier: list[Itemset] = []
        for consequent in apriori_gen(frontier):
            keep, rule = _evaluate(
                negative, consequent, difference(items, consequent), index,
                minri, prune_small_antecedents, measure, minsup,
            )
            if rule is not None:
                yield rule
            if keep:
                next_frontier.append(consequent)
        frontier = next_frontier


def _evaluate(
    negative: NegativeItemset,
    consequent: Itemset,
    antecedent: Itemset,
    index: LargeItemsetIndex,
    minri: float,
    prune_small_antecedents: bool,
    measure: InterestMeasure,
    minsup: float | None,
) -> tuple[bool, NegativeRule | None]:
    """Judge one split of *negative*; return (keep-in-frontier, emitted
    rule)."""
    consequent_support = index.support_or_none(consequent)
    if consequent_support is None:
        return False, None
    antecedent_support = index.support_or_none(antecedent)
    if antecedent_support is None:
        # Figure 4 deletes the consequent here; exhaustive mode keeps
        # extending (a superset consequent means a *smaller* antecedent,
        # which may be large even though this one is not).
        return (not prune_small_antecedents), None
    score = measure.rule_score(
        negative.expected_support,
        negative.actual_support,
        antecedent_support,
        consequent_support,
    )
    if not measure.admits_rule(score, minsup, minri):
        # RI can never recover on a superset consequent (the antecedent
        # only shrinks, its support only grows); measures without that
        # monotonicity must keep extending.
        return (not measure.capabilities.monotone_prune), None
    rule = NegativeRule(
        antecedent=antecedent,
        consequent=consequent,
        ri=score,
        expected_support=negative.expected_support,
        actual_support=negative.actual_support,
        antecedent_support=antecedent_support,
        consequent_support=consequent_support,
        measure=measure.name,
    )
    return True, rule
