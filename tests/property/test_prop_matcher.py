"""Property-based tests: the fast basket matcher vs the naive scan.

:meth:`repro.serve.matcher.BasketMatcher.match` answers subset queries
through per-item slot bitmasks built from the compiled antecedent
postings;
:func:`repro.serve.matcher.naive_match` answers them by scanning every
rule with an independent ``issuperset`` test. The two must be
*bit-identical* — same rules, same order, same ``consequent_present``
flags — on any index (flat or taxonomy-aware) and any basket,
including empty baskets and baskets holding item ids the index has
never seen. The truncated path (:meth:`BasketMatcher.match_top`, what
``RuleService.score`` calls) must return the naive scan's total and
its first ``limit`` matches, and indexes wider than 64 rules make the
masks span several machine words.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rulegen import NegativeRule
from repro.mining.rules import AssociationRule
from repro.serve import BasketMatcher, RuleIndex, RuleService, naive_match
from repro.taxonomy.tree import Taxonomy


def _build_taxonomy(rng: random.Random) -> Taxonomy:
    """A random two-level taxonomy over items 1..30 (roots 101..):
    every item gets a parent category with probability 0.8."""
    parents = {}
    categories = list(range(101, 101 + rng.randint(1, 4)))
    for item in range(1, 31):
        if rng.random() < 0.8:
            parents[item] = rng.choice(categories)
    return Taxonomy(parents=parents, extra_roots=range(1, 31))


def _random_itemset(rng: random.Random, nodes) -> tuple:
    size = rng.randint(1, 3)
    return tuple(sorted(rng.sample(nodes, size)))


@st.composite
def scenarios(draw, min_rules=0, max_rules=12):
    """A random compiled index + a batch of baskets to score."""
    seed = draw(st.integers(min_value=0, max_value=1_000_000))
    with_taxonomy = draw(st.booleans())
    rng = random.Random(seed)
    taxonomy = _build_taxonomy(rng) if with_taxonomy else None
    nodes = list(taxonomy.nodes) if taxonomy else list(range(1, 31))

    negatives, positives = [], []
    for _ in range(rng.randint(min_rules, max_rules)):
        antecedent = _random_itemset(rng, nodes)
        consequent = _random_itemset(
            rng, [n for n in nodes if n not in antecedent]
        )
        if rng.random() < 0.5:
            negatives.append(NegativeRule(
                antecedent=antecedent,
                consequent=consequent,
                ri=rng.uniform(0.1, 5.0),
                expected_support=0.3,
                actual_support=0.01,
                antecedent_support=0.4,
                consequent_support=0.4,
            ))
        else:
            positives.append(AssociationRule(
                antecedent=antecedent,
                consequent=consequent,
                support=rng.uniform(0.05, 0.5),
                confidence=rng.uniform(0.3, 1.0),
            ))
    index = RuleIndex(
        negative_rules=negatives,
        positive_rules=positives,
        taxonomy=taxonomy,
    )

    baskets = [[]]  # the empty basket is always in the batch
    for _ in range(rng.randint(1, 8)):
        size = rng.randint(1, 6)
        basket = rng.sample(nodes, min(size, len(nodes)))
        if rng.random() < 0.4:
            basket.append(rng.randint(900, 950))  # unknown item id
        rng.shuffle(basket)
        baskets.append(basket)
    return index, baskets


#: Narrow indexes plus ones wider than 64 slots, whose masks span
#: several machine words.
any_width = st.one_of(scenarios(), scenarios(min_rules=65, max_rules=200))


@given(any_width)
@settings(max_examples=150, deadline=None)
def test_matcher_is_bit_identical_to_naive_scan(scenario):
    index, baskets = scenario
    matcher = BasketMatcher(index)
    for basket in baskets:
        assert matcher.match(basket) == naive_match(index, basket)


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_matcher_survives_json_round_trip(scenario):
    """Persistence must not change what fires: the reloaded index
    matches exactly like the original."""
    index, baskets = scenario
    reloaded = RuleIndex.from_json(index.to_json())
    assert len(reloaded) == len(index)
    matcher = BasketMatcher(reloaded)
    for basket in baskets:
        assert matcher.match(basket) == naive_match(index, basket)


@given(scenarios())
@settings(max_examples=60, deadline=None)
def test_matches_are_subset_of_rules_and_sorted_by_slot(scenario):
    index, baskets = scenario
    matcher = BasketMatcher(index)
    for basket in baskets:
        matches = matcher.match(basket)
        slots = [match.slot for match in matches]
        assert slots == sorted(slots)
        for match in matches:
            assert index.rule(match.slot).rule is match.rule


def _limits(total: int) -> list:
    """``None``, 0, 1, a k inside the total and one past it."""
    return [None, 0, 1, max(2, total // 2), total + 1]


@given(any_width)
@settings(max_examples=100, deadline=None)
def test_match_top_is_the_naive_total_and_prefix(scenario):
    index, baskets = scenario
    matcher = BasketMatcher(index)
    for basket in baskets:
        naive = naive_match(index, basket)
        for limit in _limits(len(naive)):
            total, matches = matcher.match_top(basket, limit)
            assert total == len(naive)
            assert matches == naive[:limit]


def _naive_payload(index, basket, limit) -> dict:
    """What ``score`` must answer, built from the naive scan."""
    items = sorted(set(basket))
    naive = naive_match(index, items)
    return {
        "basket": items,
        "total_matches": len(naive),
        "matches": [
            {
                "slot": match.slot,
                "kind": match.kind,
                "rule": match.rule.as_dict(),
                "consequent_present": match.consequent_present,
            }
            for match in naive[:limit]
        ],
    }


@given(any_width)
@settings(max_examples=60, deadline=None)
def test_score_payloads_equal_naive_payloads(scenario):
    index, baskets = scenario
    service = RuleService(index, cache_size=0)
    for basket in baskets:
        total = len(naive_match(index, basket))
        for limit in _limits(total):
            assert service.score(basket, limit) == _naive_payload(
                index, basket, limit
            )
