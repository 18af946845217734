"""Property-based tests: candidate generation against two oracles.

:func:`repro.core.candidates.generate_negative_candidates` cuts its
enumeration twice — on the ``MinSup × MinRI`` expectation bound and on
item/ancestor or duplicate-item conflicts — and each cut must skip only
candidates that the admission rules reject anyway. Two oracles pin that:

* an exhaustive cross-product with no cuts at all, which must produce the
  same candidate set with the same expectations;
* a frozen copy of the leaf-rejecting enumeration the conflict cuts
  replaced (it built every assignment and rejected conflicts on the
  complete tuple), which must produce equal records — expected support,
  source and case — in the same dict order.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    NegativeCandidate,
    generate_negative_candidates,
)
from repro.itemset import replace_positions
from repro.measures.ri import deviation_threshold
from repro.mining.generalized import contains_item_and_ancestor
from repro.mining.itemset_index import LargeItemsetIndex
from repro.taxonomy.builders import taxonomy_from_parents
from repro.taxonomy.prune import restrict_to_items

# Three roots with three children each; one grandchild layer under the
# first child to exercise deeper ancestor checks.
TAXONOMY = taxonomy_from_parents(
    {
        1: 100, 2: 100, 3: 100,
        4: 101, 5: 101, 6: 101,
        7: 102, 8: 102, 9: 102,
        10: 1, 11: 1,
    }
)

SIBLING_CAPS = st.sampled_from([None, 0, 1, 2])
MAX_SIZES = st.sampled_from([None, 2, 3])


def _source_list(index, sources):
    if sources is None:
        return [
            items
            for size in index.sizes
            if size >= 2
            for items in sorted(index.of_size(size))
        ]
    return [items for items in sources if len(items) >= 2]


def exhaustive(
    index, taxonomy, minsup, minri, sources=None, max_size=None,
    max_sibling_replacements=None,
):
    """Reference implementation: full cross-product, no pruning."""
    threshold = minsup * minri
    out = {}
    for source in _source_list(index, sources):
        if max_size is not None and len(source) > max_size:
            continue
        if any(item not in taxonomy for item in source):
            continue
        if contains_item_and_ancestor(source, taxonomy):
            continue
        base = index.support(source)
        size = len(source)
        for case, relatives_of, proper_only in (
            ("children", taxonomy.children, False),
            ("siblings", taxonomy.siblings, True),
        ):
            max_positions = size - 1 if proper_only else size
            if proper_only and max_sibling_replacements is not None:
                max_positions = min(max_positions, max_sibling_replacements)
            for count in range(1, max_positions + 1):
                for positions in combinations(range(size), count):
                    pools = [
                        [
                            relative
                            for relative in relatives_of(source[p])
                            if index.is_large((relative,))
                        ]
                        for p in positions
                    ]
                    if any(not pool for pool in pools):
                        continue
                    for assignment in product(*pools):
                        candidate = replace_positions(
                            source, positions, assignment
                        )
                        if candidate is None or candidate in index:
                            continue
                        if contains_item_and_ancestor(
                            candidate, taxonomy
                        ):
                            continue
                        expectation = base
                        for p, new in zip(positions, assignment):
                            expectation *= index.support(
                                (new,)
                            ) / index.support((source[p],))
                        if expectation < threshold:
                            continue
                        best = out.get(candidate)
                        if best is None or expectation > best:
                            out[candidate] = expectation
    return out


# ----------------------------------------------------------------------
# Frozen oracle: the leaf-rejecting enumeration, verbatim apart from
# names. It builds every assignment the expectation bound lets through
# and rejects duplicate items and item/ancestor pairs on the complete
# tuple in ``_admit``.
# ----------------------------------------------------------------------
class _FrozenRelativeCache:
    def __init__(self, taxonomy, index):
        self._taxonomy = taxonomy
        self._index = index
        self._children = {}
        self._siblings = {}

    def _pool(self, item, relatives):
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

    def children_ratios(self, item):
        if item not in self._children:
            self._children[item] = self._pool(
                item, self._taxonomy.children(item)
            )
        return self._children[item]

    def sibling_ratios(self, item):
        if item not in self._siblings:
            self._siblings[item] = self._pool(
                item, self._taxonomy.siblings(item)
            )
        return self._siblings[item]


def leaf_rejecting(
    index, taxonomy, minsup, minri, sources=None, max_size=None,
    max_sibling_replacements=None,
):
    threshold = deviation_threshold(minsup, minri)
    cache = _FrozenRelativeCache(taxonomy, index)
    out = {}
    for source in _source_list(index, sources):
        if max_size is not None and len(source) > max_size:
            continue
        if any(item not in taxonomy for item in source):
            continue
        if contains_item_and_ancestor(source, taxonomy):
            continue
        base = index.support(source)
        _frozen_expand(
            source, base, cache, index, taxonomy, threshold,
            max_sibling_replacements, out,
        )
    return out


def _frozen_expand(
    source, base, cache, index, taxonomy, threshold,
    max_sibling_replacements, out,
):
    size = len(source)
    for case, ratio_pools, proper_only in (
        ("children", cache.children_ratios, False),
        ("siblings", cache.sibling_ratios, True),
    ):
        max_positions = size - 1 if proper_only else size
        if case == "siblings" and max_sibling_replacements is not None:
            max_positions = min(max_positions, max_sibling_replacements)
        position_pools = [ratio_pools(source[p]) for p in range(size)]
        for count in range(1, max_positions + 1):
            for positions in combinations(range(size), count):
                pools = [position_pools[p] for p in positions]
                if any(not pool for pool in pools):
                    continue
                bound = base
                for pool in pools:
                    bound *= pool[0][1]
                if bound < threshold:
                    continue
                _frozen_descend(
                    source, positions, pools, 0, (), base, case,
                    index, taxonomy, threshold, out,
                )


def _frozen_descend(
    source, positions, pools, depth, chosen, accumulated, case, index,
    taxonomy, threshold, out,
):
    if depth == len(pools):
        _frozen_admit(
            source, positions, chosen, accumulated, case, index,
            taxonomy, out,
        )
        return
    remaining_best = 1.0
    for pool in pools[depth + 1:]:
        remaining_best *= pool[0][1]
    for item, ratio in pools[depth]:
        value = accumulated * ratio
        if value * remaining_best < threshold:
            break
        _frozen_descend(
            source, positions, pools, depth + 1, chosen + (item,),
            value, case, index, taxonomy, threshold, out,
        )


def _frozen_admit(
    source, positions, assignment, expectation, case, index, taxonomy,
    out,
):
    candidate = replace_positions(source, positions, assignment)
    if candidate is None or candidate in index:
        return
    if contains_item_and_ancestor(candidate, taxonomy):
        return
    existing = out.get(candidate)
    if existing is None or expectation > existing.expected_support:
        out[candidate] = NegativeCandidate(
            items=candidate,
            expected_support=expectation,
            source=source,
            case=case,
        )


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def indexes(draw):
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    index = LargeItemsetIndex()
    for root in (100, 101, 102):
        root_support = rng.uniform(0.4, 0.9)
        index.add((root,), root_support)
        for child in TAXONOMY.children(root):
            if rng.random() < 0.8:
                index.add((child,), rng.uniform(0.05, root_support))
    for grandchild in (10, 11):
        if index.is_large((1,)) and rng.random() < 0.7:
            index.add(
                (grandchild,), rng.uniform(0.02, index.support((1,)))
            )
    nodes = [items[0] for items in index.of_size(1)]
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        size = rng.choice((2, 2, 3, 3, 4))
        if len(nodes) < size:
            continue
        items = tuple(sorted(rng.sample(nodes, size)))
        # A few degenerate (item + ancestor) sources stay in, as a
        # hand-built index may hold them; generation must skip them.
        if contains_item_and_ancestor(items, TAXONOMY) and rng.random() < 0.8:
            continue
        bound = min(index.support((item,)) for item in items)
        index.add(items, rng.uniform(0.01, bound))
    return index


@st.composite
def generation_args(draw):
    """An index plus every keyword the generator takes."""
    index = draw(indexes())
    minsup = draw(st.sampled_from([0.02, 0.05, 0.1]))
    minri = draw(st.sampled_from([0.3, 0.5, 0.8]))
    kwargs = {
        "max_size": draw(MAX_SIZES),
        "max_sibling_replacements": draw(SIBLING_CAPS),
    }
    if draw(st.booleans()):
        # An explicit source list in an arbitrary order, possibly with
        # 1-itemsets (dropped) and repeats: the dict order follows it.
        pool = list(index)
        kwargs["sources"] = draw(
            st.lists(st.sampled_from(pool), max_size=12)
        )
    return index, minsup, minri, kwargs


@settings(max_examples=80, deadline=None)
@given(generation_args())
def test_pruned_generation_equals_exhaustive(args):
    index, minsup, minri, kwargs = args
    optimized = generate_negative_candidates(
        index, TAXONOMY, minsup, minri, **kwargs
    )
    reference = exhaustive(index, TAXONOMY, minsup, minri, **kwargs)
    assert set(optimized) == set(reference)
    for items, candidate in optimized.items():
        # Both multiply the same ratios in position order, so the
        # maximum over generation paths is the same float.
        assert candidate.expected_support == reference[items]


@settings(max_examples=80, deadline=None)
@given(generation_args())
def test_conflict_cuts_equal_leaf_rejection(args):
    index, minsup, minri, kwargs = args
    optimized = generate_negative_candidates(
        index, TAXONOMY, minsup, minri, **kwargs
    )
    reference = leaf_rejecting(index, TAXONOMY, minsup, minri, **kwargs)
    assert list(optimized) == list(reference)
    for items, candidate in optimized.items():
        frozen = reference[items]
        assert candidate.items == frozen.items
        assert candidate.expected_support == frozen.expected_support
        assert candidate.source == frozen.source
        assert candidate.case == frozen.case


def test_equal_expectations_keep_the_first_source():
    """Ties in the max-expectation dedup go to the first source.

    {3, 4} is a Case-3 candidate of both {1, 4} and {2, 4} with the same
    expectation, 0.1 * 0.2 / 0.2; random supports almost never tie, so
    the tie-break is pinned here.
    """
    index = LargeItemsetIndex(
        {
            (100,): 0.8, (101,): 0.8,
            (1,): 0.2, (2,): 0.2, (3,): 0.2, (4,): 0.4,
            (1, 4): 0.1, (2, 4): 0.1,
        }
    )
    optimized = generate_negative_candidates(index, TAXONOMY, 0.1, 0.5)
    reference = leaf_rejecting(index, TAXONOMY, 0.1, 0.5)
    assert optimized[(3, 4)] == NegativeCandidate(
        items=(3, 4), expected_support=0.1, source=(1, 4), case="siblings"
    )
    assert list(optimized.items()) == list(reference.items())


# ----------------------------------------------------------------------
# Edge cases of the integer-mask kernel, each against the frozen oracle
# ----------------------------------------------------------------------
def _assert_matches_leaf_rejecting(index, taxonomy, minsup, minri, kwargs):
    optimized = generate_negative_candidates(
        index, taxonomy, minsup, minri, **kwargs
    )
    reference = leaf_rejecting(index, taxonomy, minsup, minri, **kwargs)
    assert list(optimized) == list(reference)
    for items, candidate in optimized.items():
        assert candidate == reference[items]
    return optimized


def _wide_taxonomy():
    """Six roots, four children each, three grandchildren per child: 102
    nodes on sparse ids from 10,007 up, shuffled so that id order is not
    the order the tree was built in."""
    ids = [10_007 + 13 * k for k in range(102)]
    random.Random(7).shuffle(ids)
    parents = {}
    roots, ids = ids[:6], ids[6:]
    for r, root in enumerate(roots):
        for c in range(4):
            child = ids.pop()
            parents[child] = root
            for _ in range(3):
                parents[ids.pop()] = child
    return taxonomy_from_parents(parents), roots


WIDE, WIDE_ROOTS = _wide_taxonomy()


@st.composite
def wide_indexes(draw):
    """More than 64 large items, so candidate masks span machine words."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    index = LargeItemsetIndex()
    for number, root in enumerate(WIDE_ROOTS):
        root_support = rng.uniform(0.5, 0.95)
        index.add((root,), root_support)
        for child in WIDE.children(root):
            child_support = rng.uniform(0.1, root_support)
            index.add((child,), child_support)
            for grandchild in WIDE.children(child):
                # The first three roots keep every grandchild: 66 large
                # items at least.
                if number < 3 or rng.random() < 0.6:
                    index.add(
                        (grandchild,), rng.uniform(0.03, child_support)
                    )
    nodes = [items[0] for items in index.of_size(1)]
    for _ in range(draw(st.integers(min_value=4, max_value=20))):
        items = tuple(sorted(rng.sample(nodes, rng.choice((2, 3, 3, 4)))))
        if contains_item_and_ancestor(items, WIDE) and rng.random() < 0.8:
            continue
        bound = min(index.support((item,)) for item in items)
        index.add(items, rng.uniform(0.01, bound))
    return index


@settings(max_examples=40, deadline=None)
@given(
    wide_indexes(),
    st.sampled_from([0.02, 0.05]),
    st.sampled_from([0.3, 0.5]),
    SIBLING_CAPS,
    MAX_SIZES,
)
def test_sparse_ids_beyond_one_machine_word(index, minsup, minri, cap, size):
    assert len(index.of_size(1)) > 64
    assert min(WIDE.nodes) >= 10_000
    _assert_matches_leaf_rejecting(
        index, WIDE, minsup, minri,
        {"max_sibling_replacements": cap, "max_size": size},
    )


@settings(max_examples=60, deadline=None)
@given(generation_args(), st.data())
def test_stale_entries_of_a_pruned_taxonomy(args, data):
    """Index entries holding a node the pruned taxonomy dropped are
    neither sentinels nor sources."""
    index, minsup, minri, kwargs = args
    nodes = [items[0] for items in index.of_size(1)]
    dropped = data.draw(st.sampled_from(nodes))
    gone = {dropped, *TAXONOMY.descendants(dropped)}
    for other in nodes:
        if other not in gone and other not in TAXONOMY.ancestors(dropped):
            pair = tuple(sorted((dropped, other)))
            bound = min(index.support((item,)) for item in pair)
            index.add(pair, bound / 2)
            break
    pruned = restrict_to_items(
        TAXONOMY, [node for node in TAXONOMY.nodes if node not in gone]
    )
    optimized = _assert_matches_leaf_rejecting(
        index, pruned, minsup, minri, kwargs
    )
    assert not any(gone.intersection(items) for items in optimized)


def test_stale_entry_is_skipped():
    """{1, 4} is large; 10 was pruned away but {4, 10} and (10,) stay in
    the index."""
    index = LargeItemsetIndex(
        {
            (100,): 0.8, (101,): 0.8, (1,): 0.4, (2,): 0.3, (3,): 0.3,
            (4,): 0.4, (5,): 0.3, (10,): 0.2, (1, 4): 0.2, (4, 10): 0.1,
        }
    )
    pruned = restrict_to_items(TAXONOMY, [100, 101, 1, 2, 3, 4, 5])
    optimized = _assert_matches_leaf_rejecting(index, pruned, 0.1, 0.5, {})
    assert optimized
    assert all(10 not in items for items in optimized)
    explicit = _assert_matches_leaf_rejecting(
        index, pruned, 0.1, 0.5, {"sources": [(4, 10), (1, 4)]}
    )
    assert explicit == optimized


@settings(max_examples=60, deadline=None)
@given(
    indexes(),
    st.data(),
    st.sampled_from([2, 3]),
    SIBLING_CAPS,
)
def test_selective_call_shape(index, data, max_size, cap):
    """Sources that touch a seed set, with ``max_size`` and a sibling cap,
    as the selective serving path calls the generator."""
    nodes = sorted(items[0] for items in index.of_size(1))
    seeds = data.draw(st.sets(st.sampled_from(nodes), min_size=1))
    sources = [
        items
        for items in index
        if len(items) >= 2 and any(seed in items for seed in seeds)
    ]
    _assert_matches_leaf_rejecting(
        index, TAXONOMY, 0.05, 0.5,
        {
            "sources": sources,
            "max_size": max_size,
            "max_sibling_replacements": cap,
        },
    )


# Twenty roots (ids 0-19) with fifteen children each (ids 100 + 15 * root
# + k): 320 large items, so an id takes 9 bits, an 8-item key (72 bits)
# two int64 columns and a closure five uint64 words. Children pools are
# 15 wide and sibling pools 14.
LONG = taxonomy_from_parents(
    {100 + 15 * root + k: root for root in range(20) for k in range(15)}
)


def _long_index(strong, weak, seconds_support):
    """Two strong and thirteen weak children per root, two 8-item sources
    of strong children and a few short ones. Swapping a strong child for
    a weak sibling keeps ``weak / strong`` of the expectation, so with
    ``weak / strong`` near 0.3 one weak swap passes MinSup 0.1 x MinRI
    0.5 and two do not, which keeps the leaves countable."""
    index = LargeItemsetIndex()
    for root in range(20):
        index.add((root,), 0.9)
        for k in range(15):
            index.add((100 + 15 * root + k,), strong if k < 2 else weak)
    firsts = tuple(100 + 15 * root for root in range(8))
    index.add(firsts, 0.3)
    index.add(tuple(item + 1 for item in firsts), seconds_support)
    # Some swaps of the first source reach this one.
    index.add(firsts[:7] + (firsts[7] + 1,), 0.2)
    index.add((0, 1), 0.7)
    index.add((2, 100 + 15 * 3), 0.4)
    return index


@pytest.mark.parametrize("cap", [None, 1, 3])
@pytest.mark.parametrize("max_size", [None, 2])
def test_long_sources_wide_pools_and_two_key_columns(cap, max_size):
    index = _long_index(0.5, 0.15, 0.28)
    assert len(index.of_size(1)) > 256 and max(index.sizes) == 8
    found = _assert_matches_leaf_rejecting(
        index, LONG, 0.1, 0.5,
        {"max_sibling_replacements": cap, "max_size": max_size},
    )
    if max_size is None:
        assert any(len(items) == 8 for items in found)
    # Kept candidates hold replacements from past the ninth pool entry.
    assert any(
        (item - 100) % 15 >= 10 for items in found for item in items
        if item >= 100
    )


@settings(max_examples=6, deadline=None)
@given(
    st.floats(min_value=0.45, max_value=0.55),
    st.floats(min_value=0.13, max_value=0.165),
    st.floats(min_value=0.2, max_value=0.3),
    SIBLING_CAPS,
)
def test_long_sources_with_drawn_supports(strong, weak, seconds, cap):
    _assert_matches_leaf_rejecting(
        _long_index(strong, weak, seconds), LONG, 0.1, 0.5,
        {"max_sibling_replacements": cap},
    )


def test_a_size_whose_every_leaf_is_large():
    """Every leaf of the 2-item source is already large, while the 3-item
    source keeps fresh candidates."""
    index = LargeItemsetIndex(
        {
            (100,): 0.8, (101,): 0.8, (102,): 0.8,
            (1,): 0.4, (2,): 0.4, (4,): 0.4, (7,): 0.4, (8,): 0.4,
            (1, 4): 0.3, (2, 4): 0.3, (1, 4, 7): 0.2,
        }
    )
    found = _assert_matches_leaf_rejecting(index, TAXONOMY, 0.1, 0.5, {})
    assert found and all(len(items) == 3 for items in found)
