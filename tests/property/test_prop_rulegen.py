"""Property-based tests: Figure 4's rule generator vs a brute oracle,
and the array generator vs the scalar Figure 4 walk it replaced."""

import random
from dataclasses import fields
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.negmining import NegativeItemset
from repro.core.rulegen import NegativeRule, generate_negative_rules
from repro.itemset import difference, itemset
from repro.measures.registry import create_measure
from repro.mining.apriori import apriori_gen
from repro.mining.itemset_index import LargeItemsetIndex


@st.composite
def scenarios(draw):
    """A random negative itemset + a *realistic* index of its subsets.

    Real large-itemset indexes are downward closed (every subset of a
    large itemset is large) with monotone supports (subsets are at least
    as frequent); both properties are what justifies Figure 4's pruning,
    so the strategy enforces them: per-item frequency factors define
    multiplicative (hence monotone) supports, and largeness is drawn as a
    random downward-closed family.
    """
    size = draw(st.integers(min_value=2, max_value=5))
    items = itemset(range(1, size + 1))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = random.Random(seed)
    factor = {item: rng.uniform(0.3, 0.95) for item in items}
    index = LargeItemsetIndex()
    large: set = set()
    for subset_size in range(1, size):
        for subset in combinations(items, subset_size):
            sub_subsets_large = all(
                sub in large
                for sub in combinations(subset, subset_size - 1)
                if sub
            )
            if sub_subsets_large and rng.random() < 0.85:
                support = 1.0
                for item in subset:
                    support *= factor[item]
                index.add(subset, support)
                large.add(subset)
    expected = rng.uniform(0.01, 0.5)
    actual = rng.uniform(0.0, expected)
    negative = NegativeItemset(
        items=items,
        expected_support=expected,
        actual_support=actual,
        source=items,
        case="children",
    )
    minri = draw(st.sampled_from([0.1, 0.3, 0.6]))
    return negative, index, minri


def oracle_rules(negative, index, minri):
    """Every split meeting the paper's three rule conditions."""
    items = negative.items
    found = set()
    for consequent_size in range(1, len(items)):
        for consequent in combinations(items, consequent_size):
            antecedent = tuple(
                item for item in items if item not in consequent
            )
            if not index.is_large(consequent):
                continue
            if not index.is_large(antecedent):
                continue
            ri = (
                negative.expected_support - negative.actual_support
            ) / index.support(antecedent)
            if ri >= minri:
                found.add((antecedent, consequent))
    return found


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_exhaustive_mode_matches_oracle(scenario):
    negative, index, minri = scenario
    rules = generate_negative_rules(
        [negative], index, minri, prune_small_antecedents=False
    )
    produced = {(rule.antecedent, rule.consequent) for rule in rules}
    assert produced == oracle_rules(negative, index, minri)


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_figure4_pruning_is_sound(scenario):
    """Figure 4's pruned output is always a subset of the oracle with
    correct RI values (it may skip rules hidden behind a small
    antecedent, which is the documented pruning trade-off)."""
    negative, index, minri = scenario
    rules = generate_negative_rules(
        [negative], index, minri, prune_small_antecedents=True
    )
    valid = oracle_rules(negative, index, minri)
    for rule in rules:
        assert (rule.antecedent, rule.consequent) in valid
        expected_ri = (
            negative.expected_support - negative.actual_support
        ) / index.support(rule.antecedent)
        assert abs(rule.ri - expected_ri) < 1e-12


@settings(max_examples=120, deadline=None)
@given(scenarios())
def test_single_item_consequents_never_lost(scenario):
    """The pruning only affects multi-item consequents: every oracle rule
    with a 1-item consequent must appear even in pruned mode."""
    negative, index, minri = scenario
    rules = generate_negative_rules(
        [negative], index, minri, prune_small_antecedents=True
    )
    produced = {(rule.antecedent, rule.consequent) for rule in rules}
    for antecedent, consequent in oracle_rules(negative, index, minri):
        if len(consequent) == 1:
            assert (antecedent, consequent) in produced


# ----------------------------------------------------------------------
# The array generator against the scalar Figure 4 walk
# ----------------------------------------------------------------------
MEASURES = {
    "ri": lambda: create_measure("ri"),
    "ri-figure3": lambda: create_measure("ri", figure3_literal=True),
    "kong-interest": lambda: create_measure("kong-interest"),
    "coherent": lambda: create_measure("coherent"),
}


def scalar_score(name, expected, actual, antecedent, consequent):
    """Each measure's rule score, one split at a time."""
    if name.startswith("ri"):
        return (expected - actual) / antecedent
    if name == "kong-interest":
        return antecedent * consequent - actual
    s11 = actual
    s10 = antecedent - s11
    s01 = consequent - s11
    s00 = 1.0 - antecedent - consequent + s11
    return min(s10 - s11, s10 - s00, s01 - s11, s01 - s00)


def scalar_admits(name, score, minsup, minri):
    if name.startswith("ri"):
        return score >= minri
    if name == "kong-interest":
        return score >= minsup * minri
    return score > 0.0


def scalar_evaluate(name, negative, consequent, antecedent, index, minri,
                    prune_small_antecedents, monotone, minsup):
    """Judge one split; return (keep-in-frontier, emitted rule)."""
    consequent_support = index.support_or_none(consequent)
    if consequent_support is None:
        return False, None
    antecedent_support = index.support_or_none(antecedent)
    if antecedent_support is None:
        return (not prune_small_antecedents), None
    score = scalar_score(
        name, negative.expected_support, negative.actual_support,
        antecedent_support, consequent_support,
    )
    if not scalar_admits(name, score, minsup, minri):
        return (not monotone), None
    return True, NegativeRule(
        antecedent=antecedent,
        consequent=consequent,
        ri=score,
        expected_support=negative.expected_support,
        actual_support=negative.actual_support,
        antecedent_support=antecedent_support,
        consequent_support=consequent_support,
        measure=name.removesuffix("-figure3"),
    )


def scalar_rules(name, negatives, index, minri, prune_small_antecedents,
                 minsup):
    """Figure 4 one negative itemset and one split at a time: single-item
    consequents, then apriori-gen over each level's surviving frontier,
    then the sort by (-score, antecedent, consequent)."""
    monotone = MEASURES[name]().capabilities.monotone_prune
    rules = []
    for negative in negatives:
        items = negative.items
        size = len(items)
        frontier = []
        for drop in range(size):
            consequent = (items[drop],)
            keep, rule = scalar_evaluate(
                name, negative, consequent, items[:drop] + items[drop + 1:],
                index, minri, prune_small_antecedents, monotone, minsup,
            )
            if rule is not None:
                rules.append(rule)
            if keep:
                frontier.append(consequent)
        while frontier and len(frontier[0]) + 1 < size:
            next_frontier = []
            for consequent in apriori_gen(frontier):
                keep, rule = scalar_evaluate(
                    name, negative, consequent,
                    difference(items, consequent), index, minri,
                    prune_small_antecedents, monotone, minsup,
                )
                if rule is not None:
                    rules.append(rule)
                if keep:
                    next_frontier.append(consequent)
            frontier = next_frontier
    rules.sort(key=lambda rule: (-rule.ri, rule.antecedent, rule.consequent))
    return rules


#: Fillers that make the index hold more than 1,024 items: an id then
#: takes 11 bits, five fit one key column, and a 6-item subset's key
#: spans two.
WIDE_FILLERS = range(1_000, 2_100)


@st.composite
def batches(draw):
    """Several negative itemsets of 2-7 items over a small pool, and an
    index holding a random family of their subsets.

    Supports, expectations and actual supports come from a few values,
    so scores tie often, also between antecedents where one is a prefix
    of the other ({1, 2} and {1, 2, 3} with equal supports under equal
    deviations).
    """
    pool = range(1, 10)
    negatives = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        items = tuple(sorted(draw(
            st.sets(st.sampled_from(pool), min_size=2, max_size=7)
        )))
        expected = draw(st.sampled_from([0.3, 0.4, 0.5]))
        actual = draw(st.sampled_from([0.0, 0.05, 0.1]))
        negatives.append(NegativeItemset(
            items=items, expected_support=expected, actual_support=actual,
            source=items, case="children",
        ))
    rng = random.Random(draw(st.integers(min_value=0, max_value=100_000)))
    density = draw(st.sampled_from([0.5, 0.8, 1.0]))
    index = LargeItemsetIndex()
    for negative in negatives:
        for size in range(1, len(negative.items)):
            for subset in combinations(negative.items, size):
                if subset not in index and rng.random() < density:
                    index.add(subset, rng.choice([0.2, 0.25, 0.5, 0.8]))
    if draw(st.booleans()):
        for item in WIDE_FILLERS:
            index.add((item,), 0.3)
    return negatives, index


@settings(max_examples=150, deadline=None)
@given(
    batches(),
    st.sampled_from(sorted(MEASURES)),
    st.booleans(),
    st.sampled_from([0.1, 0.5, 1.0]),
)
def test_array_generator_equals_scalar_figure4(
    batch, name, prune_small_antecedents, minri
):
    negatives, index = batch
    minsup = 0.1
    rules = generate_negative_rules(
        negatives, index, minri,
        prune_small_antecedents=prune_small_antecedents,
        measure=MEASURES[name](), minsup=minsup,
    )
    oracle = scalar_rules(
        name, negatives, index, minri, prune_small_antecedents, minsup
    )
    assert rules == oracle
    for rule, expected in zip(rules, oracle):
        # Field by field: equal floats, equal tuples of ints.
        for field in fields(NegativeRule):
            assert getattr(rule, field.name) == getattr(
                expected, field.name
            )
            assert type(getattr(rule, field.name)) is type(
                getattr(expected, field.name)
            )


def test_two_column_keys_and_prefix_ties():
    """A 7-item negative over an index of more than 1,024 items, with
    equal supports everywhere: its 6-item antecedents span two key
    columns, and every RI ties, so the sort falls to the antecedents,
    where (1, 2, 3, 4, 5) must precede (1, 2, 3, 4, 5, 6)."""
    items = tuple(range(1, 8))
    index = LargeItemsetIndex()
    for item in WIDE_FILLERS:
        index.add((item,), 0.3)
    for size in range(1, 7):
        for subset in combinations(items, size):
            index.add(subset, 0.5)
    assert index.table().bits == 11
    negative = NegativeItemset(items, 0.4, 0.0, items, "children")
    rules = generate_negative_rules(
        [negative, negative], index, 0.5, prune_small_antecedents=False
    )
    assert rules == scalar_rules(
        "ri", [negative, negative], index, 0.5, False, None
    )
    assert len(rules) == 2 * (2 ** 7 - 2)
    antecedents = [rule.antecedent for rule in rules]
    assert antecedents.index((1, 2, 3, 4, 5)) < antecedents.index(
        (1, 2, 3, 4, 5, 6)
    )
