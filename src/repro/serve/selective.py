"""On-demand rule generation around a single target item.

Materializing every rule of a large database is exactly what a serving
system wants to avoid; per Hahsler, Buchta & Hornik ("Selective
Association Rule Generation", Comput. Stat. 2008), rules *about one
item of interest* can be mined at query time by restricting the
level-wise search to the target's neighborhood instead of the full item
lattice. :func:`mine_selective` is that restriction wired into this
repo's machinery — the generalized counting, the negative-candidate
generator and the RI rule generator of :mod:`repro.core` — driven
through a :class:`~repro.core.session.MiningSession`, so every counting
engine (bitmap, cached, mmap, …) works unchanged.

Pass schedule (all through ``session.count``):

1. one pass over all taxonomy nodes for the 1-itemset supports (the
   expectation ratios need them anyway);
2. one pass counting ``{seed, x}`` pairs, where the *seeds* are the
   target plus its large parent and siblings (the nodes whose presence
   in a large source itemset can put the target into a negative
   candidate — Cases 1–3 of §2.1.1) and ``x`` ranges over the large
   singles; items forming a large pair with a seed become the
   *neighborhood*, capped at ``max_neighbors`` by co-occurrence;
3. level-wise Apriori over the (small) neighborhood universe only —
   the selective restriction;
4. one final pass counting the negative candidates that contain the
   target, generated from the indexed sources that involve the target
   or its relatives.

Soundness: every rule returned is exact — supports, expectations and RI
all come from real counting passes over the full database — and appears
verbatim in a full (non-selective) mining run at the same thresholds.
Completeness is bounded by the neighborhood: rules whose side itemsets
involve items outside the ``max_neighbors`` strongest co-occurring
items are not explored, which is the selective trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._util import check_fraction
from ..core.candidates import generate_negative_candidates
from ..core.negmining import (
    MiningStats,
    NegativeItemset,
    _build_stats,
    resolve_measure,
    select_negatives,
    size_counts,
)
from ..core.rulegen import NegativeRule, generate_negative_rules
from ..core.session import MiningSession
from ..errors import ServingError
from ..itemset import Itemset, itemset
from ..mining.apriori import apriori_gen
from ..mining.itemset_index import LargeItemsetIndex
from ..mining.rules import AssociationRule, generate_rules
from ..obs import api as obs
from ..taxonomy.tree import Taxonomy


@dataclass(slots=True)
class SelectiveResult:
    """Everything one on-target selective run produces.

    Attributes
    ----------
    target:
        The item (or category) the run was restricted to.
    negative_rules, positive_rules:
        Rules mentioning the target, in the generators' canonical
        orders (descending RI / confidence).
    negatives:
        The confirmed negative itemsets behind the negative rules.
    large_itemsets:
        All large itemsets explored (all singles, plus every size >= 2
        itemset inside the neighborhood universe).
    neighborhood:
        The restricted item universe the lattice search ran over.
    stats:
        Pass/candidate accounting for the run.
    """

    target: int
    negative_rules: list[NegativeRule]
    positive_rules: list[AssociationRule]
    negatives: list[NegativeItemset]
    large_itemsets: LargeItemsetIndex
    neighborhood: tuple[int, ...]
    stats: MiningStats


def _lineage_related(taxonomy: Taxonomy, a: int, b: int) -> bool:
    """True when one of *a*, *b* is a taxonomy ancestor of the other."""
    if a not in taxonomy or b not in taxonomy:
        return False
    return taxonomy.is_ancestor(a, b) or taxonomy.is_ancestor(b, a)


def _target_relatives(
    taxonomy: Taxonomy, target: int, large: set[int]
) -> set[int]:
    """The large nodes whose presence in a source can yield the target.

    A negative candidate contains the target when the source itemset
    kept it (source contains the target), a children-case replacement
    specialized the target's parent into it, or a sibling-case
    replacement swapped one of its siblings for it — so those are the
    nodes selective candidate generation must treat as seeds.
    """
    seeds = {target}
    parent = taxonomy.parent(target)
    if parent is not None and parent in large:
        seeds.add(parent)
    seeds.update(
        sibling for sibling in taxonomy.siblings(target)
        if sibling in large
    )
    return seeds


def mine_selective(
    database,
    taxonomy: Taxonomy,
    target: int,
    minsup: float,
    minri: float,
    minconf: float = 0.5,
    session: MiningSession | None = None,
    max_size: int | None = None,
    max_neighbors: int = 32,
    max_sibling_replacements: int | None = None,
    prune_small_antecedents: bool = True,
    measure=None,
) -> SelectiveResult:
    """Mine the rules mentioning *target* without a full mining run.

    Parameters
    ----------
    database, taxonomy:
        The data and domain knowledge, as for the offline miners.
    target:
        A taxonomy node id (leaf item or category). Must be a large
        single at *minsup* for any rule to exist; a small target
        returns an empty result after one counting pass.
    minsup, minri, minconf:
        The usual thresholds (*minconf* applies to the positive rules).
    session:
        The :class:`~repro.core.session.MiningSession` every counting
        pass goes through; ``None`` builds a serial default-engine
        session. The run is bracketed with
        ``begin_run(kind="serving")`` / ``publish_run``, so its
        headline counters land under ``serving.*``.
    max_size:
        Optional cap on explored itemset size.
    max_neighbors:
        Neighborhood budget: at most this many non-seed items enter the
        restricted universe, ranked by co-occurrence with the seeds.
    max_sibling_replacements, prune_small_antecedents:
        Passed through to candidate generation / Figure 4 pruning.
    measure:
        The interestingness measure judging candidates and rules — a
        registered spec or instance; ``None`` uses the session's bound
        measure (the registry default for a fresh session), so a
        service configured with ``--measure`` serves selective rules
        consistent with its offline index.

    Returns
    -------
    SelectiveResult
    """
    check_fraction(minsup, "minsup")
    check_fraction(minri, "minri")
    check_fraction(minconf, "minconf")
    if max_neighbors < 1:
        raise ServingError(
            f"max_neighbors must be >= 1, got {max_neighbors}"
        )
    if target not in taxonomy:
        raise ServingError(
            f"unknown selective target {target!r}: not a taxonomy node"
        )
    if session is None:
        session = MiningSession(database, taxonomy)
    measure = resolve_measure(measure, session)
    session.begin_run(kind="serving")
    total = len(database)
    min_count = minsup * total
    start_physical = database.scans
    start_logical = getattr(database, "logical_scans", database.scans)

    with obs.span("serve.selective") as span:
        span.annotate("target", target)
        index, large_singles, passes = _count_singles(
            database, taxonomy, session, total, min_count
        )
        candidates: dict[Itemset, object] = {}
        negatives: list[NegativeItemset] = []
        neighborhood: tuple[int, ...] = ()
        batches = 0
        if target in large_singles:
            universe, passes2 = _build_universe(
                taxonomy, target, large_singles, session, total,
                min_count, index, max_neighbors,
            )
            passes += passes2
            neighborhood = tuple(sorted(universe))
            passes += _mine_universe_lattice(
                universe, taxonomy, session, total, min_count, index,
                max_size,
            )
            seeds = _target_relatives(taxonomy, target, large_singles)
            sources = [
                items for items in index
                if len(items) >= 2 and any(s in items for s in seeds)
            ]
            candidates = generate_negative_candidates(
                index,
                taxonomy,
                minsup,
                minri,
                sources=sources,
                max_size=max_size,
                max_sibling_replacements=max_sibling_replacements,
            )
            candidates = {
                items: candidate
                for items, candidate in candidates.items()
                if target in items
            }
            if candidates:
                counts = session.count(
                    sorted(candidates), restrict_to_candidate_items=True
                )
                passes += 1
                batches = 1
                negatives = select_negatives(
                    candidates,
                    counts,
                    total,
                    minsup,
                    minri,
                    measure=measure,
                    index=index,
                )
        negative_rules = [
            rule
            for rule in generate_negative_rules(
                negatives, index, minri,
                prune_small_antecedents=prune_small_antecedents,
                measure=measure,
                minsup=minsup,
            )
            if target in rule.items
        ]
        positive_rules = [
            rule
            for rule in generate_rules(index, minconf)
            if target in rule.antecedent or target in rule.consequent
        ]
        span.annotate("neighborhood", len(neighborhood))
        span.annotate("negative_rules", len(negative_rules))
        span.annotate("positive_rules", len(positive_rules))

    logical_now = getattr(database, "logical_scans", database.scans)
    stats = _build_stats(
        logical_now - start_logical,
        database.scans - start_physical,
        index,
        size_counts(candidates),
        len(negatives),
        batches,
        session.run_metrics,
    )
    session.publish_run(stats)
    return SelectiveResult(
        target=target,
        negative_rules=negative_rules,
        positive_rules=positive_rules,
        negatives=negatives,
        large_itemsets=index,
        neighborhood=neighborhood,
        stats=stats,
    )


def _count_singles(
    database, taxonomy, session, total, min_count
) -> tuple[LargeItemsetIndex, set[int], int]:
    """Pass 1: supports of every node; index the large singles."""
    nodes: set[int] = set(database.items)
    nodes.update(
        taxonomy.ancestor_closure(
            item for item in nodes if item in taxonomy
        )
    )
    singles = [(node,) for node in sorted(nodes)]
    counts = session.count(singles)
    index = LargeItemsetIndex()
    large: set[int] = set()
    for items, count in counts.items():
        if count >= min_count:
            index.add(items, count / total)
            large.add(items[0])
    return index, large, 1


def _build_universe(
    taxonomy, target, large_singles, session, total, min_count, index,
    max_neighbors,
) -> tuple[set[int], int]:
    """Pass 2: seed pairs -> the restricted neighborhood universe.

    Neighbors are ranked by their strongest co-occurrence count with
    any seed (ties by node id) and capped at *max_neighbors*; their
    large pair supports are folded into *index* so the lattice stage
    does not recount them.
    """
    seeds = _target_relatives(taxonomy, target, large_singles)
    pairs = sorted(
        {
            itemset((seed, other))
            for seed in seeds
            for other in large_singles
            if other != seed
            and not _lineage_related(taxonomy, seed, other)
        }
    )
    if not pairs:
        return set(seeds), 0
    counts = session.count(pairs, restrict_to_candidate_items=True)
    strength: dict[int, int] = {}
    for items, count in counts.items():
        if count < min_count:
            continue
        index.add(items, count / total)
        for member in items:
            if member not in seeds:
                strength[member] = max(strength.get(member, 0), count)
    ranked = sorted(strength, key=lambda node: (-strength[node], node))
    return set(seeds) | set(ranked[:max_neighbors]), 1


def _mine_universe_lattice(
    universe, taxonomy, session, total, min_count, index, max_size
) -> int:
    """Level-wise Apriori restricted to *universe*; returns pass count.

    Lineage pairs (an item with its own ancestor) are excluded exactly
    as Cumulate excludes them — their support equals the descendant
    subset's — and Apriori's downward-closure prune then keeps every
    larger lineage-carrying itemset out automatically.
    """
    if max_size is not None and max_size < 2:
        return 0
    members = sorted(universe)
    wanted = [
        itemset((a, b))
        for i, a in enumerate(members)
        for b in members[i + 1:]
        if not _lineage_related(taxonomy, a, b)
    ]
    missing = [pair for pair in wanted if pair not in index]
    passes = 0
    if missing:
        counts = session.count(missing, restrict_to_candidate_items=True)
        passes += 1
        for items, count in counts.items():
            if count >= min_count:
                index.add(items, count / total)
    frontier = [pair for pair in wanted if pair in index]
    size = 3
    while frontier and (max_size is None or size <= max_size):
        candidates = apriori_gen(frontier)
        if not candidates:
            break
        counts = session.count(
            candidates, restrict_to_candidate_items=True
        )
        passes += 1
        frontier = []
        for items, count in counts.items():
            if count >= min_count:
                index.add(items, count / total)
                frontier.append(items)
        frontier.sort()
        size += 1
    return passes
