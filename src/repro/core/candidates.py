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
descends, before a candidate is built (see :func:`_expand`).

The enumeration runs on integer bitmasks. Every large 1-itemset of the
taxonomy (plus any source item that is not one) gets a dense id in
ascending item order, so an itemset is an ``int`` whose set bits, read low
to high, give its canonical tuple. Related closures and blocked sets are
masks too, and a leaf is the mask ``prefix | bit``. The best expectation
per mask lives in one dict that is seeded with every large itemset's mask
as a sentinel no expectation can beat, so a leaf makes a single probe for
both the "already large" test and the max-expectation dedup. The
sentinels are dropped at the end, and the sorted tuple and the
:class:`NegativeCandidate` are built once per kept candidate, in the
order candidates were first reached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Iterator
from itertools import combinations, islice

from .._util import check_fraction
from ..itemset import Itemset
from ..measures.ri import deviation_threshold
from ..mining.itemset_index import LargeItemsetIndex
from ..obs import api as obs
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


#: A replacement pool entry: ``(bit, ratio, related_mask)``.
MaskPool = tuple[tuple[int, float, int], ...]

#: The sentinel entry of a large itemset's mask. Candidate entries are
#: ``(value, source, case)``; no finite expectation exceeds this value, so
#: a leaf that reaches a large itemset is rejected by the same comparison
#: that keeps the maximum.
_LARGE = (math.inf,)


class _RelativeCache:
    """Dense ids, large-filtered children/sibling ratio pools and related
    closures, computed per item.

    *universe* is every item that may appear in a candidate: the large
    1-itemsets in the taxonomy plus the items of the sources. Item
    ``sorted(universe)[i]`` has the bit ``1 << i``.

    A pool entry is ``(bit, ratio, related)`` for one relative, where
    ratio is ``sup(relative) / sup(item)`` — the expectation factor
    contributed by replacing *item* with the relative — and related is
    the relative's closure mask (see :meth:`related`). Pools are sorted by
    descending ratio so the branch-and-bound enumeration can cut off as
    soon as the bound falls below threshold.
    """

    __slots__ = (
        "_taxonomy", "_index", "bit_of", "item_at", "_children",
        "_siblings", "_related",
    )

    def __init__(
        self,
        taxonomy: Taxonomy,
        index: LargeItemsetIndex,
        universe: Iterable[int],
    ) -> None:
        self._taxonomy = taxonomy
        self._index = index
        self.item_at: list[int] = sorted(universe)
        self.bit_of: dict[int, int] = {
            item: 1 << position for position, item in enumerate(self.item_at)
        }
        self._children: dict[int, MaskPool] = {}
        self._siblings: dict[int, MaskPool] = {}
        self._related: dict[int, int] = {}

    def _pool(self, item: int, relatives: tuple[int, ...]) -> MaskPool:
        own_support = self._index.support_or_none((item,))
        if own_support is None or own_support <= 0.0:
            return ()
        entries = [
            (
                self.bit_of[relative],
                self._index.support((relative,)) / own_support,
                self.related(relative),
            )
            for relative in relatives
            if self._index.is_large((relative,))
        ]
        entries.sort(key=lambda entry: -entry[1])
        return tuple(entries)

    def children_pool(self, item: int) -> MaskPool:
        if item not in self._children:
            self._children[item] = self._pool(
                item, self._taxonomy.children(item)
            )
        return self._children[item]

    def sibling_pool(self, item: int) -> MaskPool:
        if item not in self._siblings:
            self._siblings[item] = self._pool(
                item, self._taxonomy.siblings(item)
            )
        return self._siblings[item]

    def related(self, item: int) -> int:
        """Mask of *item* with its ancestors and descendants: the items
        that may not share a candidate with it. Built on first use, since
        most nodes of a full taxonomy are never replacements."""
        closure = self._related.get(item)
        if closure is None:
            bit_of = self.bit_of
            closure = 0
            for node in (
                (item,)
                + self._taxonomy.ancestors(item)
                + self._taxonomy.descendants(item)
            ):
                closure |= bit_of.get(node, 0)
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

    if sources is None:
        source_list: list[Itemset] = [
            items
            for size in index.sizes
            if size >= 2
            for items in sorted(index.of_size(size))
        ]
    else:
        source_list = [items for items in sources if len(items) >= 2]
    # A pruned taxonomy may have dropped items of a stale index entry;
    # such sources cannot yield admissible candidates.
    source_list = [
        source
        for source in source_list
        if (max_size is None or len(source) <= max_size)
        and all(item in taxonomy for item in source)
    ]

    universe = {
        items[0] for items in index.of_size(1) if items[0] in taxonomy
    }
    universe.update(*source_list)
    cache = _RelativeCache(taxonomy, index, universe)
    bit_of = cache.bit_of

    # Candidates keep their source's size, so only large itemsets of
    # those sizes can collide with one; an entry holding an item outside
    # the universe never can. An itemset's bits are distinct, so their
    # sum is their OR.
    best: dict[int, tuple] = {}
    for size in {len(source) for source in source_list}:
        for items in index.of_size(size):
            try:
                best[sum(map(bit_of.__getitem__, items))] = _LARGE
            except KeyError:
                continue
    sentinels = len(best)

    subsets = 0
    for source in source_list:
        subsets += _expand(
            source, index, cache, threshold,
            max_sibling_replacements, best,
        )

    # The sentinels were seeded first; the rest are the candidates in
    # the order they were first reached. A mask's set bits, read low to
    # high, are its canonical tuple (collected here from the top down).
    item_at = cache.item_at
    out: dict[Itemset, NegativeCandidate] = {}
    for mask, (value, source, case) in islice(best.items(), sentinels, None):
        members = []
        while mask:
            top = mask.bit_length() - 1
            members.append(item_at[top])
            mask ^= 1 << top
        members.reverse()
        items = tuple(members)
        out[items] = NegativeCandidate(
            items=items, expected_support=value, source=source, case=case
        )
    obs.incr("candidates.position_subsets", subsets)
    obs.incr("candidates.leaf_masks", len(best) - sentinels)
    obs.incr("candidates.kept", len(out))
    return out


def _expand(
    source: Itemset,
    index: LargeItemsetIndex,
    cache: _RelativeCache,
    threshold: float,
    max_sibling_replacements: int | None,
    best: dict[int, tuple],
) -> int:
    """Enumerate all admissible replacements of *source* with pruning,
    recording the best ``(value, source, case)`` per candidate mask in
    *best*; returns the number of position subsets visited.

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
      blocked mask with their related closures (the item, its ancestors
      and its descendants). A replacement whose bit is blocked would make
      the candidate repeat an item or hold an item together with its
      ancestor, so it is skipped when it is chosen, cutting every
      candidate below it at once. A chosen item's closure is OR-ed into
      the blocked mask passed down.

    A complete assignment therefore has distinct, mutually unrelated
    items, and the leaf makes one probe of *best*: a missing mask is a
    new candidate, and an entry is replaced only by a strictly larger
    expectation, which no large itemset's sentinel admits. Single-position
    subsets run as one inline loop. Larger ones run their last two depths
    as nested loops here, once per surviving branch of the depths above
    (:func:`_heads`, only for three or more positions), so no leaf costs
    a Python call.

    Only positions with a non-empty pool can be replaced, so subsets are
    drawn from those alone, in the same order as from all positions.
    Bounds, suffix products and expectations are multiplied in the same
    order as the exhaustive reference: float products depend on their
    order, which decides borderline cuts.
    """
    size = len(source)
    bits = [cache.bit_of[item] for item in source]
    closures = [cache.related(item) for item in source]
    full = sum(bits)
    for bit, closure in zip(bits, closures):
        if closure & (full ^ bit):
            # Degenerate large itemsets (possible with the Basic miner)
            # predict nothing beyond their non-degenerate reduction.
            return 0
    base = index.support(source)
    # others[p]: the blocked mask when only position p is replaced.
    after = [0] * (size + 1)
    for p in range(size - 1, -1, -1):
        after[p] = after[p + 1] | closures[p]
    others = []
    before = 0
    for p in range(size):
        others.append(before | after[p + 1])
        before |= closures[p]
    get = best.get
    subsets = 0
    # The fixed and blocked masks of a position subset are shared by
    # both cases.
    kept: dict[tuple[int, ...], tuple[int, int]] = {}
    for case, mask_pools, proper_only in (
        (CASE_CHILDREN, cache.children_pool, False),
        (CASE_SIBLINGS, cache.sibling_pool, True),
    ):
        max_positions = size - 1 if proper_only else size
        if case == CASE_SIBLINGS and max_sibling_replacements is not None:
            max_positions = min(max_positions, max_sibling_replacements)
        if max_positions < 1:
            continue
        position_pools = [mask_pools(item) for item in source]
        live = [p for p in range(size) if position_pools[p]]
        for p in live:
            subsets += 1
            pool = position_pools[p]
            # The bound of one position is its best leaf's expectation.
            if base * pool[0][1] < threshold:
                continue
            prefix = full ^ bits[p]
            blocked = others[p]
            for bit, ratio, _ in pool:
                value = base * ratio
                if value < threshold:
                    break
                if blocked & bit:
                    continue
                mask = prefix | bit
                entry = get(mask)
                if entry is None or value > entry[0]:
                    best[mask] = (value, source, case)
        live_pools = [position_pools[p] for p in live]
        live_bests = [pool[0][1] for pool in live_pools]
        for count in range(2, min(max_positions, len(live)) + 1):
            for positions, pools, bests in zip(
                combinations(live, count),
                combinations(live_pools, count),
                combinations(live_bests, count),
            ):
                subsets += 1
                # Exact upper bound: best (first) ratio at every position.
                bound = base
                for ratio in bests:
                    bound *= ratio
                if bound < threshold:
                    continue
                fixed = kept.get(positions)
                if fixed is None:
                    prefix = full
                    blocked = 0
                    for p in range(size):
                        if p in positions:
                            prefix ^= bits[p]
                        else:
                            blocked |= closures[p]
                    fixed = kept[positions] = (prefix, blocked)
                if count == 2:
                    heads = ((fixed[0], base, fixed[1]),)
                else:
                    # suffix[d]: product of the best ratios of pools[d:],
                    # multiplied left to right.
                    suffix = [1.0] * (count + 1)
                    for depth in range(1, count):
                        product = 1.0
                        for ratio in bests[depth:]:
                            product *= ratio
                        suffix[depth] = product
                    heads = _heads(
                        pools, suffix, 0, fixed[0], base, fixed[1],
                        threshold,
                    )
                # The last two depths, once per head: the rest of the
                # bound above the last is its best ratio (1.0 * best).
                upper, last = pools[-2], pools[-1]
                rest = bests[-1]
                for prefix, accumulated, blocked in heads:
                    for bit, ratio, closure in upper:
                        value = accumulated * ratio
                        if value * rest < threshold:
                            break
                        if blocked & bit:
                            continue
                        head = prefix | bit
                        guard = blocked | closure
                        for leaf_bit, leaf_ratio, _ in last:
                            leaf_value = value * leaf_ratio
                            if leaf_value < threshold:
                                break
                            if guard & leaf_bit:
                                continue
                            mask = head | leaf_bit
                            entry = get(mask)
                            if entry is None or leaf_value > entry[0]:
                                best[mask] = (leaf_value, source, case)
    return subsets


def _heads(
    pools: tuple[MaskPool, ...],
    suffix: list[float],
    depth: int,
    prefix: int,
    accumulated: float,
    blocked: int,
    threshold: float,
) -> Iterator[tuple[int, float, int]]:
    """Yield ``(prefix, accumulated, blocked)`` for every branch of
    ``pools[depth:-2]`` that survives the bound and conflict cuts, in
    depth-first order."""
    rest = suffix[depth + 1]
    deeper = depth + 3 < len(pools)
    for bit, ratio, closure in pools[depth]:
        value = accumulated * ratio
        if value * rest < threshold:
            break
        if blocked & bit:
            continue
        if deeper:
            yield from _heads(
                pools, suffix, depth + 1, prefix | bit, value,
                blocked | closure, threshold,
            )
        else:
            yield prefix | bit, value, blocked | closure
