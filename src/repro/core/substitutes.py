"""Substitute-item knowledge (paper Section 4.1, future work).

The paper's candidate generation trusts the taxonomy to group substitute
items ("one of the implicit assumptions ... is that the items belonging to
the same category are 'substitute' items") and names richer substitute
knowledge as the main future-work direction: "For instance, a knowledge of
substitute items. How to incorporate other types of information to improve
the quality of rules needs to be explored further."

This module implements that extension. A :class:`SubstituteGroups` object
declares sets of mutually substitutable items that need *not* share a
taxonomy parent (store-brand vs name-brand colas in different aisles,
butter vs margarine, ...). During candidate generation each group member
acts exactly like a taxonomy *sibling* of the other members: for a large
itemset containing item ``r``, replacing ``r`` with substitute ``r'``
yields a candidate with expected support

    E[sup] = sup(large itemset) * sup(r') / sup(r)

— the paper's Case-3 formula with the sibling relation generalized. The
candidates integrate with the ordinary pipeline via
:func:`generate_substitute_candidates`, and the results can be merged with
taxonomy-derived candidates (max-expectation dedup, as in Section 2.1.1).
"""

from __future__ import annotations

from collections.abc import Iterable

from .._util import check_fraction
from ..errors import ConfigError
from ..itemset import Itemset, replace_positions
from ..measures.ri import deviation_threshold
from ..mining.itemset_index import LargeItemsetIndex
from .candidates import NegativeCandidate
from .expectation import expected_support

CASE_SUBSTITUTES = "substitutes"


class SubstituteGroups:
    """Groups of mutually substitutable items.

    Parameters
    ----------
    groups:
        Iterables of item ids; each group declares all its members as
        pairwise substitutes. An item may belong to several groups; its
        substitute set is the union of its groups minus itself.

    Examples
    --------
    >>> groups = SubstituteGroups([[1, 2, 3], [3, 9]])
    >>> groups.substitutes_of(3)
    (1, 2, 9)
    >>> groups.substitutes_of(42)
    ()
    """

    __slots__ = ("_partners",)

    def __init__(self, groups: Iterable[Iterable[int]]) -> None:
        partners: dict[int, set[int]] = {}
        for group in groups:
            members = sorted(set(group))
            if len(members) < 2:
                raise ConfigError(
                    "substitute groups need at least 2 items, got "
                    f"{members!r}"
                )
            for member in members:
                partners.setdefault(member, set()).update(
                    other for other in members if other != member
                )
        self._partners: dict[int, tuple[int, ...]] = {
            member: tuple(sorted(others))
            for member, others in partners.items()
        }

    def substitutes_of(self, item: int) -> tuple[int, ...]:
        """All declared substitutes of *item* (empty if none)."""
        return self._partners.get(item, ())

    @property
    def items(self) -> frozenset[int]:
        """Items mentioned in any group."""
        return frozenset(self._partners)

    def __len__(self) -> int:
        return len(self._partners)

    def __repr__(self) -> str:
        return f"SubstituteGroups(items={len(self._partners)})"


def generate_substitute_candidates(
    index: LargeItemsetIndex,
    substitutes: SubstituteGroups,
    minsup: float,
    minri: float,
    max_replacements: int = 1,
) -> dict[Itemset, NegativeCandidate]:
    """Generate negative candidates by substitute replacement.

    For every large itemset and every way of replacing up to
    *max_replacements* of its items with declared substitutes (keeping at
    least one original item, mirroring the all-siblings exclusion), a
    candidate is emitted when:

    * every item of the candidate is a large 1-itemset,
    * the candidate is not itself a large itemset,
    * its expected support reaches ``minsup * minri``.

    Returns the same ``{itemset: NegativeCandidate}`` shape as
    :func:`repro.core.candidates.generate_negative_candidates`; merge the
    two with :func:`merge_candidate_sets`.
    """
    check_fraction(minsup, "minsup")
    threshold = deviation_threshold(minsup, minri)
    if max_replacements < 1:
        raise ConfigError(
            f"max_replacements must be >= 1, got {max_replacements}"
        )
    out: dict[Itemset, NegativeCandidate] = {}
    for size in index.sizes:
        if size < 2:
            continue
        for source in sorted(index.of_size(size)):
            _expand_source(
                source, index, substitutes, threshold, max_replacements,
                out,
            )
    return out


def _expand_source(
    source: Itemset,
    index: LargeItemsetIndex,
    substitutes: SubstituteGroups,
    threshold: float,
    max_replacements: int,
    out: dict[Itemset, NegativeCandidate],
) -> None:
    from itertools import combinations, product

    size = len(source)
    limit = min(max_replacements, size - 1)
    base = index.support(source)
    for count in range(1, limit + 1):
        for positions in combinations(range(size), count):
            pools = []
            for position in positions:
                partners = [
                    partner
                    for partner in substitutes.substitutes_of(
                        source[position]
                    )
                    if index.is_large((partner,))
                ]
                pools.append(partners)
            if any(not pool for pool in pools):
                continue
            for assignment in product(*pools):
                candidate = replace_positions(
                    source, positions, assignment
                )
                if candidate is None or candidate in index:
                    continue
                ratios = [
                    (
                        index.support((new,)),
                        index.support((source[position],)),
                    )
                    for position, new in zip(positions, assignment)
                ]
                expectation = expected_support(base, ratios)
                if expectation < threshold:
                    continue
                existing = out.get(candidate)
                if (
                    existing is None
                    or expectation > existing.expected_support
                ):
                    out[candidate] = NegativeCandidate(
                        items=candidate,
                        expected_support=expectation,
                        source=source,
                        case=CASE_SUBSTITUTES,
                    )


def merge_candidate_sets(
    *candidate_sets: dict[Itemset, NegativeCandidate],
) -> dict[Itemset, NegativeCandidate]:
    """Merge candidate dictionaries, keeping the maximum expectation.

    Implements the Section 2.1.1 rule ("the largest value of the expected
    support is chosen") across generation mechanisms — taxonomy cases and
    substitute knowledge.
    """
    merged: dict[Itemset, NegativeCandidate] = {}
    for candidates in candidate_sets:
        for items, candidate in candidates.items():
            existing = merged.get(items)
            if (
                existing is None
                or candidate.expected_support > existing.expected_support
            ):
                merged[items] = candidate
    return merged
