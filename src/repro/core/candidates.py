"""Candidate negative itemset generation (paper Section 2.1.1).

For every large itemset, candidates are formed by swapping items for their
taxonomy relatives wherever an expected support can be computed:

* **children replacements** — any non-empty subset of positions replaced by
  immediate children (all positions = Case 1, a proper subset = Case 2);
* **sibling replacements** — a *proper* non-empty subset of positions
  replaced by siblings (Case 3; the paper's exclusion list rules out
  candidates consisting solely of siblings).

Exclusions (Section 2.1.1): ancestors never participate, and children and
sibling replacements are never mixed within one candidate. Further
admission rules:

* every 1-item subset of a candidate must itself be a large itemset
  ("otherwise no rule will be produced for this itemset");
* the candidate must not already be a (generalized) large itemset — those
  are positive associations, as with {Bryers, Evian} in the paper's
  example;
* no item of a candidate may be an ancestor of another (such itemsets are
  degenerate: their support equals the support without the ancestor);
* the expected support must reach ``MinSup × MinRI`` — a smaller
  expectation can never produce a rule with ``RI >= MinRI``;
* when the same candidate arises from several large itemsets, "the largest
  value of the expected support is chosen" — enforced via the hash-table
  dedup of Section 2.4.

The enumeration enforces the 1-item-subset rule by drawing replacements
only from large 1-itemsets, and the ancestor and threshold rules while it
descends, before a candidate is built; only the large-itemset test and
the dedup run on complete candidates (see :func:`_expand`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable
from itertools import combinations

from .._util import check_fraction
from ..itemset import Itemset
from ..measures.ri import deviation_threshold
from ..mining.generalized import contains_item_and_ancestor
from ..mining.itemset_index import LargeItemsetIndex
from ..taxonomy.tree import Taxonomy

CASE_CHILDREN = "children"
CASE_SIBLINGS = "siblings"


@dataclass(frozen=True, slots=True)
class NegativeCandidate:
    """A candidate negative itemset awaiting a counting pass.

    Attributes
    ----------
    items:
        The canonical candidate itemset.
    expected_support:
        Fractional support predicted by the taxonomy (maximum over all
        generation paths).
    source:
        The large itemset the winning expectation was derived from.
    case:
        ``"children"`` (Cases 1–2) or ``"siblings"`` (Case 3).
    """

    items: Itemset
    expected_support: float
    source: Itemset
    case: str


RatioPool = tuple[tuple[int, float], ...]


class _RelativeCache:
    """Large-filtered children/sibling ratio pools and related closures,
    computed per item.

    A pool entry is ``(relative_item, sup(relative) / sup(item))`` — the
    expectation factor contributed by replacing *item* with the relative.
    Pools are sorted by descending ratio so the branch-and-bound
    enumeration can cut off as soon as the bound falls below threshold.
    """

    __slots__ = (
        "_taxonomy", "_index", "_children", "_siblings", "_related",
    )

    def __init__(self, taxonomy: Taxonomy, index: LargeItemsetIndex) -> None:
        self._taxonomy = taxonomy
        self._index = index
        self._children: dict[int, RatioPool] = {}
        self._siblings: dict[int, RatioPool] = {}
        self._related: dict[int, frozenset[int]] = {}

    def _pool(self, item: int, relatives: tuple[int, ...]) -> RatioPool:
        own_support = self._index.support_or_none((item,))
        if own_support is None or own_support <= 0.0:
            return ()
        entries = [
            (relative, self._index.support((relative,)) / own_support)
            for relative in relatives
            if self._index.is_large((relative,))
        ]
        entries.sort(key=lambda entry: -entry[1])
        return tuple(entries)

    def children_ratios(self, item: int) -> RatioPool:
        if item not in self._children:
            self._children[item] = self._pool(
                item, self._taxonomy.children(item)
            )
        return self._children[item]

    def sibling_ratios(self, item: int) -> RatioPool:
        if item not in self._siblings:
            self._siblings[item] = self._pool(
                item, self._taxonomy.siblings(item)
            )
        return self._siblings[item]

    def related(self, item: int) -> frozenset[int]:
        """*item* with its ancestors and descendants: the items that may
        not share a candidate with it. Built on first use, since most
        nodes of a full taxonomy are never replacements."""
        closure = self._related.get(item)
        if closure is None:
            closure = frozenset(
                (item,)
                + self._taxonomy.ancestors(item)
                + self._taxonomy.descendants(item)
            )
            self._related[item] = closure
        return closure


def generate_negative_candidates(
    index: LargeItemsetIndex,
    taxonomy: Taxonomy,
    minsup: float,
    minri: float,
    sources: Iterable[Itemset] | None = None,
    max_size: int | None = None,
    max_sibling_replacements: int | None = None,
) -> dict[Itemset, NegativeCandidate]:
    """Generate all candidate negative itemsets from large itemsets.

    Parameters
    ----------
    index:
        The generalized large itemsets (with 1-itemset supports, which
        provide the expectation ratios).
    taxonomy:
        Full or pruned taxonomy. Pruning small items first (the Improved
        algorithm's optimization) shrinks the children/sibling lists that
        are iterated but cannot change the output: replacements are always
        filtered to large 1-itemsets here.
    minsup, minri:
        Thresholds; candidates need expected support of at least
        ``minsup * minri``.
    sources:
        Large itemsets to generate from. Defaults to every indexed itemset
        of size >= 2 (negative itemsets of size 1 cannot form rules).
    max_size:
        Skip sources larger than this (candidates keep the source's size).
    max_sibling_replacements:
        Cap on how many positions a Case-3 candidate may replace with
        siblings. ``None`` allows any proper subset (the paper's general
        formula); ``1`` matches the paper's worked examples exactly and
        tames the exponential blow-up on dense data — sibling support
        ratios are often near 1, so unlike children replacements the
        expectation threshold barely prunes them; ``0`` turns Case 3
        off.

    Returns
    -------
    dict
        Candidate itemset -> :class:`NegativeCandidate`, deduplicated with
        maximum expected support.
    """
    check_fraction(minsup, "minsup")
    threshold = deviation_threshold(minsup, minri)
    cache = _RelativeCache(taxonomy, index)
    out: dict[Itemset, NegativeCandidate] = {}

    if sources is None:
        source_list: list[Itemset] = [
            items
            for size in index.sizes
            if size >= 2
            for items in sorted(index.of_size(size))
        ]
    else:
        source_list = [items for items in sources if len(items) >= 2]

    for source in source_list:
        if max_size is not None and len(source) > max_size:
            continue
        if any(item not in taxonomy for item in source):
            # A pruned taxonomy may have dropped items of a stale index
            # entry; such sources cannot yield admissible candidates.
            continue
        if contains_item_and_ancestor(source, taxonomy):
            # Degenerate large itemsets (possible with the Basic miner)
            # predict nothing beyond their non-degenerate reduction.
            continue
        base = index.support(source)
        _expand(
            source, base, cache, index, threshold,
            max_sibling_replacements, out,
        )
    return out


def _expand(
    source: Itemset,
    base: float,
    cache: _RelativeCache,
    index: LargeItemsetIndex,
    threshold: float,
    max_sibling_replacements: int | None,
    out: dict[Itemset, NegativeCandidate],
) -> None:
    """Enumerate all admissible replacements of *source* with pruning.

    The raw enumeration is exponential (the Section 2.1.2 estimate), and
    the paper lists "more efficient candidate generation techniques" as
    future work. This implementation contributes two cuts, each of which
    skips only candidates that the admission rules reject anyway, so the
    candidates and expectations equal an exhaustive cross-product's:

    * **Expectation bound.** Each position's replacement pool is sorted
      by descending support ratio, so the product of the best remaining
      ratios is an exact upper bound on the achievable expectation.
      Position subsets and branches that cannot reach
      ``MinSup × MinRI`` are cut.
    * **Conflicts.** The items a position subset keeps ("fixed") seed a
      blocked set with their related closures (the item, its ancestors
      and its descendants). A replacement in the blocked set would make
      the candidate repeat an item or hold an item together with its
      ancestor, so :func:`_descend` skips it when it is chosen, cutting
      every candidate below it at once.

    Only positions with a non-empty pool can be replaced, so subsets are
    drawn from those alone, in the same order as from all positions.
    The suffix products of best ratios that bound each depth are
    computed once per subset.
    """
    size = len(source)
    related = cache.related
    # Fixed items and their blocked set depend only on the replaced
    # positions, which both cases share.
    kept: dict[tuple[int, ...], tuple[Itemset, frozenset[int]]] = {}
    for case, ratio_pools, proper_only in (
        (CASE_CHILDREN, cache.children_ratios, False),
        (CASE_SIBLINGS, cache.sibling_ratios, True),
    ):
        max_positions = size - 1 if proper_only else size
        if case == CASE_SIBLINGS and max_sibling_replacements is not None:
            max_positions = min(max_positions, max_sibling_replacements)
        position_pools = [ratio_pools(item) for item in source]
        live = [p for p in range(size) if position_pools[p]]
        for count in range(1, min(max_positions, len(live)) + 1):
            for positions in combinations(live, count):
                pools = [position_pools[p] for p in positions]
                bests = [pool[0][1] for pool in pools]
                # Exact upper bound: best (first) ratio at every position.
                bound = base
                for best in bests:
                    bound *= best
                if bound < threshold:
                    continue
                # suffix[d]: product of the best ratios of pools[d:],
                # multiplied left to right. Float products depend on
                # their order, which decides borderline bound cuts.
                suffix = [1.0] * (count + 1)
                for depth in range(1, count):
                    product = 1.0
                    for best in bests[depth:]:
                        product *= best
                    suffix[depth] = product
                if positions not in kept:
                    fixed = tuple(
                        item for p, item in enumerate(source)
                        if p not in positions
                    )
                    kept[positions] = (
                        fixed,
                        frozenset().union(*map(related, fixed)),
                    )
                fixed, blocked = kept[positions]
                _descend(
                    source, fixed, pools, suffix, 0, (), base, blocked,
                    case, related, index, threshold, out,
                )


def _descend(
    source: Itemset,
    fixed: tuple[int, ...],
    pools: list[RatioPool],
    suffix: list[float],
    depth: int,
    chosen: tuple[int, ...],
    accumulated: float,
    blocked: frozenset[int],
    case: str,
    related: Callable[[int], frozenset[int]],
    index: LargeItemsetIndex,
    threshold: float,
    out: dict[Itemset, NegativeCandidate],
) -> None:
    """Depth-first cross-product with bound and conflict cuts.

    At each depth a pool item is rejected when it is chosen: a bound
    below threshold ends the pool (``break``, pools are ratio-descending),
    and an item in *blocked* — related to a fixed or already chosen
    item — is skipped with everything below it (``continue``). A chosen
    item's related closure joins the blocked set passed down. A complete
    assignment therefore has distinct, mutually unrelated items, and the
    leaf only checks that the candidate is not already a large itemset
    and keeps the maximum expectation.
    """
    rest = suffix[depth + 1]
    leaf = depth + 1 == len(pools)
    prefix = fixed + chosen
    for item, ratio in pools[depth]:
        value = accumulated * ratio
        if value * rest < threshold:
            # Pools are ratio-descending: no later item can recover.
            break
        if item in blocked:
            continue
        if not leaf:
            _descend(
                source, fixed, pools, suffix, depth + 1, chosen + (item,),
                value, blocked | related(item), case, related, index,
                threshold, out,
            )
            continue
        candidate = tuple(sorted(prefix + (item,)))
        if candidate in index:
            continue
        existing = out.get(candidate)
        if existing is None or value > existing.expected_support:
            out[candidate] = NegativeCandidate(
                items=candidate,
                expected_support=value,
                source=source,
                case=case,
            )
