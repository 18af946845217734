"""Property-based tests for the interestingness-measure registry.

Two families of invariants:

* **RI bit-identity** — routing the paper's RI through the registry
  (the default ``measure="ri"``) must reproduce the historical
  hard-wired pipeline exactly. The oracle is an inline copy of the
  pre-registry selection/generation logic (threshold precomputed as
  ``minsup * minri``, ``rule_interest`` arithmetic, Figure 4 frontier)
  applied to the same counted candidates; the comparison covers the
  negative itemsets, the rules, and the explain text, on flat and
  taxonomy-bearing data across every registered engine.
* **Determinism** — every registered measure is a pure function of the
  counted run: re-judging the same candidates with the counts dict and
  negative list arbitrarily permuted must reproduce the same negatives
  and rules in the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.explain import explain_result_rule
from repro.core.negmining import (
    ImprovedNegativeMiner,
    NegativeItemset,
    select_negatives,
)
from repro.core.rulegen import NegativeRule, generate_negative_rules
from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.measures.registry import create_measure, measure_names
from repro.mining.apriori import apriori_gen
from repro.mining.engines import engine_names
from repro.taxonomy.builders import taxonomy_from_parents

# A fixed two-level taxonomy: 3 roots, each with 3 leaf children.
TAXONOMY = taxonomy_from_parents(
    {child: (child - 1) // 3 + 100 for child in range(1, 10)},
)
LEAVES = sorted(TAXONOMY.leaves)


@st.composite
def leaf_databases(draw):
    row_count = draw(st.integers(min_value=10, max_value=40))
    rows = [
        draw(st.lists(st.sampled_from(LEAVES), min_size=1, max_size=5))
        for _ in range(row_count)
    ]
    return TransactionDatabase(rows)


# --- inline oracle: the pre-registry hard-wired RI pipeline ----------


def _oracle_negatives(candidates, counts, total, minsup, minri):
    """The historical selection predicate, threshold precomputed."""
    threshold = minsup * minri
    negatives = []
    for items, count in counts.items():
        candidate = candidates[items]
        actual = count / total
        if candidate.expected_support - actual >= threshold:
            negatives.append(
                NegativeItemset(
                    items=items,
                    expected_support=candidate.expected_support,
                    actual_support=actual,
                    source=candidate.source,
                    case=candidate.case,
                )
            )
    negatives.sort(
        key=lambda negative: (-negative.deviation, negative.items)
    )
    return negatives


def _oracle_evaluate(negative, consequent, index, minri):
    if not index.is_large(consequent):
        return False, None
    antecedent = tuple(
        item for item in negative.items if item not in consequent
    )
    if not index.is_large(antecedent):
        return False, None
    ri = (
        negative.expected_support - negative.actual_support
    ) / index.support(antecedent)
    if ri < minri:
        return False, None
    rule = NegativeRule(
        antecedent=antecedent,
        consequent=consequent,
        ri=ri,
        expected_support=negative.expected_support,
        actual_support=negative.actual_support,
        antecedent_support=index.support(antecedent),
        consequent_support=index.support(consequent),
    )
    return True, rule


def _oracle_rules(negatives, index, minri):
    """The historical Figure 4 frontier with hard-wired RI."""
    rules = []
    for negative in negatives:
        items = negative.items
        size = len(items)
        frontier = []
        for drop in range(size):
            consequent = (items[drop],)
            keep, rule = _oracle_evaluate(
                negative, consequent, index, minri
            )
            if rule is not None:
                rules.append(rule)
            if keep:
                frontier.append(consequent)
        while frontier and len(frontier[0]) + 1 < size:
            next_frontier = []
            for consequent in apriori_gen(frontier):
                keep, rule = _oracle_evaluate(
                    negative, consequent, index, minri
                )
                if rule is not None:
                    rules.append(rule)
                if keep:
                    next_frontier.append(consequent)
            frontier = next_frontier
    rules.sort(
        key=lambda rule: (-rule.ri, rule.antecedent, rule.consequent)
    )
    return rules


def _oracle_ri_line(rule, taxonomy):
    """The historical explain line for the RI arithmetic, verbatim."""
    return (
        f"  RI = ({rule.expected_support:.4f} - "
        f"{rule.actual_support:.4f}) / "
        f"sup({taxonomy.format_itemset(rule.antecedent)}) = "
        f"{rule.expected_support - rule.actual_support:.4f} / "
        f"{rule.antecedent_support:.4f} = {rule.ri:.3f}"
    )


@pytest.mark.parametrize("spec", engine_names())
@settings(max_examples=10, deadline=None)
@given(leaf_databases(), st.sampled_from([0.1, 0.2]),
       st.sampled_from([0.3, 0.5]))
def test_default_ri_bit_identical_to_oracle(spec, database, minsup, minri):
    """measure='ri' (the default) == the pre-registry pipeline, on
    taxonomy-bearing data, for every registered engine."""
    session = MiningSession(database, TAXONOMY, spec)
    output = ImprovedNegativeMiner(
        database, TAXONOMY, minsup, minri, session=session
    ).mine()
    expected_negatives = _oracle_negatives(
        output.candidates, output.counts, output.total_transactions,
        minsup, minri,
    )
    assert output.negatives == expected_negatives

    rules = generate_negative_rules(
        output.negatives, output.large_itemsets, minri
    )
    assert rules == _oracle_rules(
        expected_negatives, output.large_itemsets, minri
    )
    for rule in rules[:3]:
        explanation = explain_result_rule(
            rule, output.negatives, output.large_itemsets, TAXONOMY
        )
        assert _oracle_ri_line(rule, TAXONOMY) in explanation
        assert "measure agreement" not in explanation


@settings(max_examples=10, deadline=None)
@given(leaf_databases(), st.sampled_from([0.1, 0.2]))
def test_default_ri_bit_identical_flat(database, minsup):
    """Same bit-identity on a flat one-level taxonomy (all leaves are
    siblings under a single root, so only Case 3 generates)."""
    flat = taxonomy_from_parents({leaf: 100 for leaf in LEAVES})
    output = ImprovedNegativeMiner(database, flat, minsup, 0.4).mine()
    assert output.negatives == _oracle_negatives(
        output.candidates, output.counts, output.total_transactions,
        minsup, 0.4,
    )
    rules = generate_negative_rules(
        output.negatives, output.large_itemsets, 0.4
    )
    assert rules == _oracle_rules(
        output.negatives, output.large_itemsets, 0.4
    )


@pytest.mark.parametrize("name", measure_names())
@settings(max_examples=10, deadline=None)
@given(leaf_databases(), st.randoms(use_true_random=False))
def test_measure_deterministic_over_shuffled_output(name, database, rng):
    """Every registered measure is order-independent: permuting the
    counts dict and the negative list must not change anything."""
    output = ImprovedNegativeMiner(database, TAXONOMY, 0.1, 0.4).mine()
    measure = create_measure(name)
    index = output.large_itemsets
    negatives = select_negatives(
        output.candidates, output.counts, output.total_transactions,
        0.1, 0.4, measure=measure, index=index,
    )

    shuffled_counts = list(output.counts.items())
    rng.shuffle(shuffled_counts)
    again = select_negatives(
        output.candidates, dict(shuffled_counts),
        output.total_transactions, 0.1, 0.4,
        measure=create_measure(name), index=index,
    )
    assert again == negatives

    rules = generate_negative_rules(
        negatives, index, 0.4, measure=measure, minsup=0.1
    )
    shuffled_negatives = list(negatives)
    rng.shuffle(shuffled_negatives)
    assert generate_negative_rules(
        shuffled_negatives, index, 0.4,
        measure=create_measure(name), minsup=0.1,
    ) == rules
    for rule in rules:
        assert rule.measure == name
