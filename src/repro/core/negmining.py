"""The Naive and Improved negative-itemset miners (paper Section 2.2).

Both miners share the same semantics — find every candidate negative
itemset whose actual support deviates at least ``MinSup × MinRI`` from its
expected support — and differ only in the *pass schedule*:

Naive (Section 2.2.1)
    Per iteration ``k``: one pass to find the generalized large itemsets of
    size ``k``, then a second pass to count that level's negative
    candidates. Roughly ``2n`` passes for ``n`` levels.

Improved (Section 2.2.2, Figure 3)
    First find all generalized large itemsets (``n`` passes), then delete
    all small 1-itemsets from the taxonomy, generate the negative
    candidates of *all* sizes at once and count them in a single extra pass
    — ``n + 1`` passes. When the candidate set exceeds the configured
    memory budget, counting falls back to multiple batches (the memory
    management scheme of Section 2.5).

The negative-itemset predicate follows the body text
(``E[sup] - sup >= MinSup × MinRI``). Figure 3's literal final line
(``count < MinSup × MinRI``) contradicts the RI definition; it is kept
available behind ``figure3_literal=True`` for comparison (see DESIGN.md §3).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .._util import check_fraction, check_positive
from ..data.database import TransactionDatabase
from ..itemset import Itemset
from ..errors import ConfigError
from ..measures.registry import (
    InterestMeasure,
    MeasurePolicy,
    create_measure,
)
from ..mining.generalized import iter_generalized_levels, mine_generalized
from ..mining.itemset_index import LargeItemsetIndex
from ..mining.vertical import CacheStats
from ..obs import api as obs
from ..parallel.pool import ParallelStats
from ..taxonomy.prune import restrict_to_items
from ..taxonomy.tree import Taxonomy
from .candidates import NegativeCandidate, generate_negative_candidates
from .session import MiningSession


@dataclass(frozen=True, slots=True)
class NegativeItemset:
    """A confirmed negative itemset: support far below expectation.

    Attributes
    ----------
    items:
        The canonical itemset.
    expected_support, actual_support:
        Fractions of |D|.
    source:
        The large itemset whose expectation was used.
    case:
        Generation case (``"children"`` or ``"siblings"``).
    """

    items: Itemset
    expected_support: float
    actual_support: float
    source: Itemset
    case: str

    @property
    def deviation(self) -> float:
        """How far the actual support fell below the expectation."""
        return self.expected_support - self.actual_support


@dataclass(slots=True)
class MiningStats:
    """Bookkeeping reported alongside mining results.

    The ``worker*``/``shm_*`` fields are zero for serial runs; with
    ``engine="parallel-shm", n_jobs > 1`` they record the worker
    activity (see :mod:`repro.parallel`) so speedups and degraded runs
    are observable: a crashed worker shows up as retries and, past the
    retry budget, as serial fallbacks.

    ``data_passes`` counts *logical* passes — counting passes in the
    paper's cost model. For the row-scanning engines every logical pass
    is also a physical read, so ``physical_passes == data_passes``; the
    ``"cached"`` engine serves most passes from its vertical index, so
    ``physical_passes`` drops to the build scans while ``data_passes``
    keeps the paper's schedule (``n + 1`` for Improved, ``2n`` for
    Naive). The ``cache_*`` fields are zero unless the cached engine ran.

    ``kernel_batches``/``kernel_words`` count executions (and gathered
    64-bit words) of the bit-packed NumPy kernel
    (:mod:`repro.mining.bitpack`) — zero unless a packed engine
    (``"numpy"``, ``"mmap"``, ``"parallel-shm"``) did the counting.

    ``cache_extensions`` counts appends absorbed incrementally (the
    vertical index or segmented matrix extended in O(append) instead of
    rebuilding); the ``segments_*`` fields record the out-of-core
    ``"mmap"`` engine's segment maintenance and its memory footprint —
    ``segments_resident_bytes`` is the high-water mark of concurrently
    open segment blocks, the number the ``max_resident_bytes`` budget
    bounds. ``matrix_bytes`` is the in-RAM packed-matrix footprint of
    the ``numpy`` engine, for comparison.
    """

    data_passes: int = 0
    large_itemsets: int = 0
    candidates_generated: int = 0
    negative_itemsets: int = 0
    counting_batches: int = 0
    candidates_by_size: dict[int, int] = field(default_factory=dict)
    worker_tasks: int = 0
    workers_launched: int = 0
    worker_retries: int = 0
    worker_fallbacks: int = 0
    shm_publishes: int = 0
    shm_batches: int = 0
    shm_bytes: int = 0
    physical_passes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalidations: int = 0
    cache_evictions: int = 0
    cache_extensions: int = 0
    cache_bytes: int = 0
    kernel_batches: int = 0
    kernel_words: int = 0
    matrix_bytes: int = 0
    segments_packed: int = 0
    segments_extended: int = 0
    segments_reused: int = 0
    segments_spilled_bytes: int = 0
    segments_resident_bytes: int = 0
    segments_mmap_reads: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of index lookups served from the cache (0 when unused)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def summary(self) -> str:
        """A human-readable accounting report (passes, cache behavior)."""
        lines = [
            f"data passes     : {self.data_passes}",
            f"physical passes : {self.physical_passes}",
        ]
        if self.data_passes:
            ratio = self.physical_passes / self.data_passes
            lines.append(f"physical/logical: {ratio:.2f}")
        lookups = self.cache_hits + self.cache_misses
        if lookups:
            lines.append(
                f"cache           : {self.cache_hits}/{lookups} hits "
                f"({self.cache_hit_rate:.0%}), "
                f"{self.cache_invalidations} invalidations, "
                f"{self.cache_evictions} evictions, "
                f"{self.cache_bytes} bytes"
            )
        if self.kernel_batches:
            lines.append(
                f"kernel batches  : {self.kernel_batches} "
                f"({self.kernel_words} words)"
            )
        if self.cache_extensions:
            lines.append(
                f"cache extends   : {self.cache_extensions}"
            )
        if self.segments_packed or self.segments_reused:
            lines.append(
                f"segments        : {self.segments_packed} packed, "
                f"{self.segments_extended} extended, "
                f"{self.segments_reused} reused, "
                f"{self.segments_mmap_reads} mmap reads"
            )
        if self.matrix_bytes or self.segments_resident_bytes:
            lines.append(
                f"memory          : matrix {self.matrix_bytes} B, "
                f"segments {self.segments_resident_bytes} B resident / "
                f"{self.segments_spilled_bytes} B spilled"
            )
        lines.append(f"large itemsets  : {self.large_itemsets}")
        lines.append(f"candidates      : {self.candidates_generated}")
        lines.append(f"negative sets   : {self.negative_itemsets}")
        return "\n".join(lines)


@dataclass(slots=True)
class MinerOutput:
    """Everything a negative-itemset miner produces.

    ``counts``/``total_transactions`` record the raw counting results
    for *every* candidate that reached a counting pass — the inputs the
    cross-measure comparison layer (:mod:`repro.measures.compare`)
    needs to re-judge the same run under other measures without
    touching the data again.
    """

    large_itemsets: LargeItemsetIndex
    candidates: dict[Itemset, NegativeCandidate]
    negatives: list[NegativeItemset]
    stats: MiningStats
    counts: dict[Itemset, int] = field(default_factory=dict)
    total_transactions: int = 0


def resolve_measure(
    measure: "str | InterestMeasure | None",
    session: MiningSession | None = None,
    figure3_literal: bool = False,
) -> InterestMeasure:
    """The measure an explicit argument + session + legacy flag select.

    An explicit *measure* wins; ``None`` falls back to the session's
    bound measure (the ``measure=`` policy of ``MiningConfig``), then to
    the registry default. The legacy ``figure3_literal`` flag is folded
    into the resolved instance, so miners constructed directly with
    ``figure3_literal=True`` keep their historical behavior; combining
    it with a non-RI measure raises :class:`~repro.errors.ConfigError`.
    """
    resolved = measure
    if resolved is None and session is not None:
        resolved = session.measure
    if resolved is None or isinstance(resolved, str):
        return create_measure(
            resolved if resolved is not None else "ri",
            MeasurePolicy(figure3_literal=figure3_literal),
        )
    if figure3_literal and not getattr(resolved, "figure3_literal", False):
        return create_measure(
            resolved.name, MeasurePolicy(figure3_literal=True)
        )
    return resolved


def _single_supports(
    items: Itemset, index: LargeItemsetIndex
) -> tuple[float, ...]:
    """Member-item supports of a candidate, 0.0 for small singles.

    Candidates may contain small items (their *rules* cannot, but the
    itemset predicate sees them); an absent single reads as support 0,
    which makes the independence baseline 0 and the candidate
    inadmissible for the independence-based measures — exactly right,
    since no large-sided rule can come out of it.
    """
    return tuple(
        index.support_or_none((item,)) or 0.0 for item in items
    )


def select_negatives(
    candidates: dict[Itemset, NegativeCandidate],
    counts: dict[Itemset, int],
    total: int,
    minsup: float,
    minri: float,
    measure: "InterestMeasure | None" = None,
    index: LargeItemsetIndex | None = None,
) -> list[NegativeItemset]:
    """Apply a measure's negative-itemset predicate to counted candidates.

    *measure* defaults to the paper's RI; *index* (the large itemsets)
    is required by measures that judge candidates against independence
    over single-item supports (``needs_taxonomy_expectation=False``).
    """
    if measure is None:
        measure = create_measure("ri")
    needs_singles = not measure.capabilities.needs_taxonomy_expectation
    if needs_singles and index is None:
        raise ConfigError(
            f"measure {measure.name!r} judges candidates against "
            "independence over single-item supports; pass the large "
            "itemset index to select_negatives"
        )
    negatives: list[NegativeItemset] = []
    for items, count in counts.items():
        candidate = candidates[items]
        actual = count / total
        singles = _single_supports(items, index) if needs_singles else ()
        if measure.admits_itemset(
            candidate.expected_support, actual, singles, minsup, minri
        ):
            negatives.append(
                NegativeItemset(
                    items=items,
                    expected_support=candidate.expected_support,
                    actual_support=actual,
                    source=candidate.source,
                    case=candidate.case,
                )
            )
    negatives.sort(key=lambda negative: (-negative.deviation, negative.items))
    return negatives


class NaiveNegativeMiner:
    """Two-passes-per-level negative mining (Section 2.2.1).

    Parameters
    ----------
    database, taxonomy:
        The data and the domain knowledge.
    minsup, minri:
        Fractional minimum support and minimum rule interest.
    session:
        The :class:`~repro.core.session.MiningSession` every counting
        pass goes through — engine choice, cache policy and parallel
        policy all live there. ``None`` builds a serial default-engine
        session over *database*/*taxonomy*.
    max_size:
        Optional cap on itemset size.
    figure3_literal:
        Use Figure 3's literal low-support predicate instead of the body
        text's deviation predicate (see module docstring). RI only.
    measure:
        The interestingness measure judging candidates and rules: a
        registered spec (``"ri"``, ``"kong-interest"``, ``"coherent"``)
        or an :class:`~repro.measures.registry.InterestMeasure`
        instance. ``None`` uses the session's bound measure (the
        registry default when the session has none).
    """

    def __init__(
        self,
        database: TransactionDatabase,
        taxonomy: Taxonomy,
        minsup: float,
        minri: float,
        session: MiningSession | None = None,
        max_size: int | None = None,
        figure3_literal: bool = False,
        max_sibling_replacements: int | None = None,
        measure: "str | InterestMeasure | None" = None,
    ) -> None:
        check_fraction(minsup, "minsup")
        check_fraction(minri, "minri")
        self._database = database
        self._taxonomy = taxonomy
        self._minsup = minsup
        self._minri = minri
        self._session = (
            session
            if session is not None
            else MiningSession(database, taxonomy)
        )
        self._max_size = max_size
        self._measure = resolve_measure(
            measure, self._session, figure3_literal
        )
        self._max_sibling_replacements = max_sibling_replacements

    def mine(self) -> MinerOutput:
        """Run the per-level loop and return all results."""
        database = self._database
        session = self._session
        total = len(database)
        start_physical = database.scans
        start_logical = getattr(database, "logical_scans", database.scans)
        # Fresh per-run accumulators: a second mine() must never report
        # the first run's cache/shard activity.
        session.begin_run()

        index = LargeItemsetIndex()
        all_candidates: dict[Itemset, NegativeCandidate] = {}
        all_counts: dict[Itemset, int] = {}
        negatives: list[NegativeItemset] = []
        batches = 0

        levels = iter_generalized_levels(
            database,
            self._taxonomy,
            self._minsup,
            session=session,
            max_size=self._max_size,
        )
        for level_number, level in enumerate(levels, start=1):
            for items, support in level.items():
                index.add(items, support)
            if level_number == 1:
                continue
            with obs.span("mine.candidate_gen") as span:
                candidates = generate_negative_candidates(
                    index,
                    self._taxonomy,
                    self._minsup,
                    self._minri,
                    sources=level.keys(),
                    max_sibling_replacements=self._max_sibling_replacements,
                )
                span.annotate("level", level_number)
                span.annotate("candidates", len(candidates))
            if not candidates:
                continue
            all_candidates.update(candidates)
            counts = session.count(
                list(candidates), restrict_to_candidate_items=True
            )
            all_counts.update(counts)
            batches += 1
            negatives.extend(
                select_negatives(
                    candidates, counts, total, self._minsup, self._minri,
                    measure=self._measure, index=index,
                )
            )

        negatives.sort(
            key=lambda negative: (-negative.deviation, negative.items)
        )
        logical_now = getattr(database, "logical_scans", database.scans)
        stats = _build_stats(
            logical_now - start_logical, index, all_candidates, negatives,
            batches, session.parallel_stats,
            physical_passes=database.scans - start_physical,
            cache=session.cache_stats,
        )
        session.publish_run(stats)
        return MinerOutput(
            index, all_candidates, negatives, stats,
            counts=all_counts, total_transactions=total,
        )


class ImprovedNegativeMiner:
    """Single deferred counting pass (Section 2.2.2, Figure 3).

    Parameters
    ----------
    database, taxonomy, minsup, minri, session, max_size, figure3_literal,
    measure:
        As for :class:`NaiveNegativeMiner`.
    algorithm:
        Generalized miner for step 1 (``"basic"``, ``"cumulate"``,
        ``"estmerge"``).
    max_candidates_in_memory:
        Memory budget of Section 2.5: when the candidate set is larger,
        counting is split into that many-candidate batches, one pass each.
        ``None`` counts everything in one pass.
    prune_taxonomy:
        Apply the "delete all small 1-itemsets from the taxonomy"
        optimization before candidate generation. Never changes the
        output (replacements are filtered to large items either way);
        exposed for the A3 ablation.
    rng:
        Randomness for the EstMerge sample, when that algorithm is chosen.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        taxonomy: Taxonomy,
        minsup: float,
        minri: float,
        algorithm: str = "cumulate",
        session: MiningSession | None = None,
        max_size: int | None = None,
        max_candidates_in_memory: int | None = None,
        prune_taxonomy: bool = True,
        figure3_literal: bool = False,
        max_sibling_replacements: int | None = None,
        rng: random.Random | None = None,
        measure: "str | InterestMeasure | None" = None,
    ) -> None:
        check_fraction(minsup, "minsup")
        check_fraction(minri, "minri")
        if max_candidates_in_memory is not None:
            check_positive(
                max_candidates_in_memory, "max_candidates_in_memory"
            )
        self._database = database
        self._taxonomy = taxonomy
        self._minsup = minsup
        self._minri = minri
        self._algorithm = algorithm
        self._session = (
            session
            if session is not None
            else MiningSession(database, taxonomy)
        )
        self._max_size = max_size
        self._batch_size = max_candidates_in_memory
        self._prune_taxonomy = prune_taxonomy
        self._measure = resolve_measure(
            measure, self._session, figure3_literal
        )
        self._max_sibling_replacements = max_sibling_replacements
        self._rng = rng

    def mine(self) -> MinerOutput:
        """Run the three phases and return all results."""
        database = self._database
        session = self._session
        total = len(database)
        start_physical = database.scans
        start_logical = getattr(database, "logical_scans", database.scans)
        # Fresh per-run accumulators: a second mine() must never report
        # the first run's cache/shard activity.
        session.begin_run()

        with obs.span("mine.positive") as span:
            index = mine_generalized(
                database,
                self._taxonomy,
                self._minsup,
                algorithm=self._algorithm,
                session=session,
                max_size=self._max_size,
                rng=self._rng,
            )
            span.annotate("algorithm", self._algorithm)
            span.annotate("large_itemsets", len(index))

        with obs.span("mine.candidate_gen") as span:
            generation_taxonomy = self._taxonomy
            if self._prune_taxonomy:
                large_singles = [items[0] for items in index.of_size(1)]
                generation_taxonomy = restrict_to_items(
                    self._taxonomy, large_singles
                )

            candidates = generate_negative_candidates(
                index,
                generation_taxonomy,
                self._minsup,
                self._minri,
                max_size=self._max_size,
                max_sibling_replacements=self._max_sibling_replacements,
            )
            span.annotate("candidates", len(candidates))

        negatives: list[NegativeItemset] = []
        all_counts: dict[Itemset, int] = {}
        batches = 0
        with obs.span("mine.negative_count") as span:
            for batch in _batched(sorted(candidates), self._batch_size):
                # Counting uses the *full* taxonomy: transactions may
                # contain small items whose ancestors still matter for
                # other rows.
                counts = session.count(
                    batch, restrict_to_candidate_items=True
                )
                all_counts.update(counts)
                batches += 1
                negatives.extend(
                    select_negatives(
                        candidates, counts, total, self._minsup,
                        self._minri, measure=self._measure, index=index,
                    )
                )
            span.annotate("batches", batches)

        negatives.sort(
            key=lambda negative: (-negative.deviation, negative.items)
        )
        logical_now = getattr(database, "logical_scans", database.scans)
        stats = _build_stats(
            logical_now - start_logical, index, candidates, negatives,
            batches, session.parallel_stats,
            physical_passes=database.scans - start_physical,
            cache=session.cache_stats,
        )
        session.publish_run(stats)
        return MinerOutput(
            index, candidates, negatives, stats,
            counts=all_counts, total_transactions=total,
        )


def _batched(
    items: list[Itemset], batch_size: int | None
) -> list[list[Itemset]]:
    if not items:
        return []
    if batch_size is None:
        return [items]
    return [
        items[start:start + batch_size]
        for start in range(0, len(items), batch_size)
    ]


def _build_stats(
    passes: int,
    index: LargeItemsetIndex,
    candidates: dict[Itemset, NegativeCandidate],
    negatives: list[NegativeItemset],
    batches: int,
    workers: ParallelStats | None = None,
    physical_passes: int | None = None,
    cache: CacheStats | None = None,
) -> MiningStats:
    by_size: dict[int, int] = {}
    for items in candidates:
        by_size[len(items)] = by_size.get(len(items), 0) + 1
    stats = MiningStats(
        data_passes=passes,
        large_itemsets=len(index),
        candidates_generated=len(candidates),
        negative_itemsets=len(negatives),
        counting_batches=batches,
        candidates_by_size=dict(sorted(by_size.items())),
        physical_passes=physical_passes if physical_passes is not None
        else passes,
    )
    if workers is not None:
        stats.worker_tasks = workers.worker_tasks
        stats.workers_launched = workers.workers_launched
        stats.worker_retries = workers.worker_retries
        stats.worker_fallbacks = workers.worker_fallbacks
        stats.shm_publishes = workers.shm_publishes
        stats.shm_batches = workers.shm_batches
        stats.shm_bytes = workers.shm_bytes
    if cache is not None:
        stats.cache_hits = cache.hits
        stats.cache_misses = cache.misses
        stats.cache_invalidations = cache.invalidations
        stats.cache_evictions = cache.evictions
        stats.cache_extensions = cache.extensions
        stats.cache_bytes = cache.bytes
        stats.kernel_batches = cache.kernel_batches
        stats.kernel_words = cache.kernel_words
        stats.matrix_bytes = cache.matrix_bytes
        stats.segments_packed = cache.segments_packed
        stats.segments_extended = cache.segments_extended
        stats.segments_reused = cache.segments_reused
        stats.segments_spilled_bytes = cache.segments_spilled_bytes
        stats.segments_resident_bytes = cache.segments_resident_bytes
        stats.segments_mmap_reads = cache.segments_mmap_reads
    return stats
