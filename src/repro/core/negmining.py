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
available as ``measure=create_measure("ri", figure3_literal=True)`` for
comparison (see DESIGN.md §3).
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from operator import attrgetter
from dataclasses import dataclass, field

import numpy as np

from .._util import check_fraction, check_positive
from ..data.database import TransactionDatabase
from ..itemset import Itemset
from ..errors import ConfigError
from ..measures.registry import (
    DEFAULT_MEASURE,
    InterestMeasure,
    create_measure,
)
from ..mining.generalized import iter_generalized_levels, mine_generalized
from ..mining.itemset_index import LargeItemsetIndex
from ..mining.keytable import PAD
from ..obs import api as obs
from ..obs.registry import MetricsRegistry
from ..taxonomy.prune import restrict_to_items
from ..taxonomy.tree import Taxonomy
from .candidates import (
    CASE_NAMES,
    ItemsetColumns,
    NegativeCandidate,
    candidate_columns,
    frozen_records,
    item_matrix,
)
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
    """The paper-level figures of one run, plus the run's registry.

    ``data_passes`` counts *logical* passes — counting passes in the
    paper's cost model. For the row-scanning engines every logical pass
    is also a physical read, so ``physical_passes == data_passes``; the
    caching engines serve most passes from a structure they keep, so
    ``physical_passes`` drops to the build scans while ``data_passes``
    keeps the paper's schedule (``n + 1`` for Improved, ``2n`` for
    Naive).

    ``metrics`` is the run's :class:`~repro.obs.registry.
    MetricsRegistry` (``MiningSession.run_metrics``): every engine
    counter of the run, under the names ``--metrics`` prints —
    ``cache.*`` (vertical-index and packed-matrix reuse), ``kernel.*``
    (bit-packed kernel batches, words and matrix bytes) and
    ``counting.segments.*`` (the ``"mmap"`` engine's segments and
    memory).
    """

    data_passes: int = 0
    physical_passes: int = 0
    large_itemsets: int = 0
    candidates_generated: int = 0
    negative_itemsets: int = 0
    counting_batches: int = 0
    candidates_by_size: dict[int, int] = field(default_factory=dict)
    metrics: MetricsRegistry = field(
        default_factory=MetricsRegistry, compare=False
    )

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of index lookups served from the cache (0 when unused)."""
        hits = self.metrics.counter("cache.hits")
        lookups = hits + self.metrics.counter("cache.misses")
        return hits / lookups if lookups else 0.0

    def summary(self, rules: int | None = None) -> str:
        """The run's accounting, one ``name : value`` line per figure.

        Engine lines appear only when the engine did that work. *rules*,
        when given, adds the rule count after the negative sets.
        """
        metrics = self.metrics
        counter = metrics.counter

        def gauge(name: str) -> int:
            return int(metrics.gauge(name))

        lines = [
            f"large itemsets : {self.large_itemsets}",
            f"candidates     : {self.candidates_generated}",
            f"negative sets  : {self.negative_itemsets}",
        ]
        if rules is not None:
            lines.append(f"rules          : {rules}")
        lines.append(f"data passes    : {self.data_passes}")
        if self.physical_passes != self.data_passes:
            lines.append(f"physical passes: {self.physical_passes}")
        hits = counter("cache.hits")
        lookups = hits + counter("cache.misses")
        if lookups:
            lines.append(
                f"index cache    : {hits}/{lookups} hits "
                f"({self.cache_hit_rate:.0%}), "
                f"{gauge('cache.bytes')} bytes"
            )
        if counter("kernel.batches"):
            lines.append(f"kernel batches : {counter('kernel.batches')}")
        if counter("cache.extensions"):
            lines.append(
                f"cache extends  : {counter('cache.extensions')} "
                f"(appends absorbed without a rebuild)"
            )
        packed = counter("counting.segments.packed")
        reused = counter("counting.segments.reused")
        if packed or reused:
            lines.append(
                f"segments       : {packed} packed, "
                f"{counter('counting.segments.extended')} extended, "
                f"{reused} reused, "
                f"{counter('counting.segments.mmap_reads')} mmap reads"
            )
        matrix = gauge("kernel.matrix_bytes")
        resident = gauge("counting.segments.resident_bytes")
        if matrix or resident:
            lines.append(
                f"memory         : matrix {matrix} B, "
                f"segments {resident} B "
                f"resident / {gauge('counting.segments.spilled_bytes')} B "
                f"spilled"
            )
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
) -> InterestMeasure:
    """The measure an explicit argument or the session selects.

    An explicit *measure* wins; ``None`` falls back to the session's
    bound measure (the ``measure=`` policy of ``MiningConfig``), then to
    the registry default.
    """
    if measure is None:
        measure = session.measure if session is not None else DEFAULT_MEASURE
    return create_measure(measure)


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
    if not measure.capabilities.needs_taxonomy_expectation and index is None:
        raise ConfigError(
            f"measure {measure.name!r} judges candidates against "
            "independence over single-item supports; pass the large "
            "itemset index to select_negatives"
        )
    tuples = list(counts)
    records = list(map(candidates.__getitem__, tuples))
    expected = np.fromiter(
        map(attrgetter("expected_support"), records), dtype=np.float64,
        count=len(records),
    )
    actual = np.fromiter(
        counts.values(), dtype=np.float64, count=len(tuples)
    ) / total
    # Items are needed to judge only by independence; otherwise only
    # the admitted rows' items are read, for the sort.
    items = (
        None if measure.capabilities.needs_taxonomy_expectation
        else item_matrix(tuples)[0]
    )
    rows = admitted(items, expected, actual, minsup, minri, measure, index)
    rows = rows[by_deviation(
        lambda tied: item_matrix(
            list(map(tuples.__getitem__, rows[tied].tolist()))
        )[0],
        expected[rows], actual[rows],
    )].tolist()
    chosen = list(map(records.__getitem__, rows))
    return frozen_records(
        NegativeItemset,
        list(map(tuples.__getitem__, rows)),
        list(map(attrgetter("expected_support"), chosen)),
        actual[rows].tolist(),
        list(map(attrgetter("source"), chosen)),
        list(map(attrgetter("case"), chosen)),
    )


def admitted(
    items: np.ndarray | None,
    expected: np.ndarray,
    actual: np.ndarray,
    minsup: float,
    minri: float,
    measure: InterestMeasure,
    index: LargeItemsetIndex | None,
) -> np.ndarray:
    """The rows of counted candidates that *measure* admits as negative
    itemsets. *items* holds the candidates' items as
    ``ItemsetColumns.items`` does; only the measures that judge by
    independence read it.

    Candidates may contain small items (their *rules* cannot, but the
    itemset predicate sees them); an absent single reads as support 0,
    which makes the independence baseline 0 and the candidate
    inadmissible for the independence-based measures — exactly right,
    since no large-sided rule can come out of it.
    """
    if not len(expected):
        return np.empty(0, dtype=np.intp)
    singles = None
    if not measure.capabilities.needs_taxonomy_expectation:
        table = index.table()
        ids, known = table.ids_of(items)
        singles = np.where(known, table.single_supports(ids), 0.0)
        singles[items == PAD] = 1.0
    return np.flatnonzero(
        measure.admit_itemsets(expected, actual, singles, minsup, minri)
    )


def by_deviation(items, expected: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """The permutation that sorts negative itemsets as the key
    ``(-deviation, items)`` does.

    Rows are sorted by deviation first; only runs of equal deviation are
    then sorted by their items, which *items* maps rows to (as
    ``ItemsetColumns.items``: padded below every item, so a prefix sorts
    first).
    """
    deviation = expected - actual
    order = (-deviation).argsort(kind="stable")
    ranked = deviation[order]
    tied = ranked[1:] == ranked[:-1]
    if tied.any():
        run = np.concatenate(([0], np.cumsum(~tied)))
        at = np.flatnonzero(
            np.concatenate(([False], tied)) | np.concatenate((tied, [False]))
        )
        rows = order[at]
        order[at] = rows[np.lexsort([*items(rows).T[::-1], run[at]])]
    return order


def _select(
    columns: ItemsetColumns,
    actual: np.ndarray,
    minsup: float,
    minri: float,
    measure: InterestMeasure,
    index: LargeItemsetIndex,
) -> ItemsetColumns:
    """The rows of *columns* that *measure* admits, with their actual
    supports, sorted by :func:`by_deviation`."""
    rows = admitted(
        columns.items, columns.expected, actual, minsup, minri, measure,
        index,
    )
    chosen = columns.take(rows)
    chosen.actual = actual[rows]
    return chosen.take(by_deviation(
        chosen.items.__getitem__, chosen.expected, chosen.actual
    ))


def negative_records(negatives: ItemsetColumns) -> list[NegativeItemset]:
    """The rows as :class:`NegativeItemset` records, in row order."""
    return frozen_records(
        NegativeItemset,
        negatives.tuples.tolist(),
        negatives.expected.tolist(),
        negatives.actual.tolist(),
        negatives.sources.tolist(),
        CASE_NAMES[negatives.cases].tolist(),
    )


def _actual(
    columns: ItemsetColumns, counts: dict[Itemset, int], total: int
) -> np.ndarray:
    """The measured supports of *columns*' rows from *counts*."""
    return np.fromiter(
        map(counts.__getitem__, columns.tuples.tolist()),
        dtype=np.float64, count=len(columns),
    ) / total


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
        pass goes through — engine choice and cache policy live
        there. ``None`` builds a default-engine session over
        *database*/*taxonomy*.
    max_size:
        Optional cap on itemset size.
    measure:
        The interestingness measure judging candidates and rules: a
        registered spec (``"ri"``, ``"kong-interest"``, ``"coherent"``)
        or an :class:`~repro.measures.registry.InterestMeasure`
        instance — ``create_measure("ri", figure3_literal=True)`` for
        Figure 3's literal predicate (see module docstring). ``None``
        uses the session's bound measure (the registry default when the
        session has none).
    """

    def __init__(
        self,
        database: TransactionDatabase,
        taxonomy: Taxonomy,
        minsup: float,
        minri: float,
        session: MiningSession | None = None,
        max_size: int | None = None,
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
        self._measure = resolve_measure(measure, self._session)
        self._max_sibling_replacements = max_sibling_replacements

    def mine(self) -> MinerOutput:
        """Run the per-level loop and return all results."""
        return self._mine()[0]

    def _mine(self) -> tuple[MinerOutput, ItemsetColumns]:
        """:meth:`mine`, plus the negative itemsets as columns."""
        database = self._database
        session = self._session
        total = len(database)
        start_physical = database.scans
        start_logical = getattr(database, "logical_scans", database.scans)
        # A fresh run registry: a second mine() must never report
        # the first run's cache/shard activity.
        session.begin_run()

        index = LargeItemsetIndex()
        all_candidates: dict[Itemset, NegativeCandidate] = {}
        all_counts: dict[Itemset, int] = {}
        by_size: dict[int, int] = {}
        selected: list[ItemsetColumns] = []
        batches = 0

        levels = iter_generalized_levels(
            database,
            self._taxonomy,
            self._minsup,
            session=session,
            max_size=self._max_size,
        )
        for level_number in itertools.count(1):
            # Each level's positive pass runs inside next(); the span
            # times it as the paper's step 1 for that level.
            with obs.span("mine.positive") as span:
                level = next(levels, None)
                span.annotate("level", level_number)
            if level is None:
                break
            for items, support in level.items():
                index.add(items, support)
            if level_number == 1:
                continue
            with obs.span("mine.candidate_gen") as span:
                columns = candidate_columns(
                    index,
                    self._taxonomy,
                    self._minsup,
                    self._minri,
                    sources=level.keys(),
                    max_sibling_replacements=self._max_sibling_replacements,
                )
                candidates = columns.records()
                span.annotate("level", level_number)
                span.annotate("candidates", len(candidates))
            if not candidates:
                continue
            all_candidates.update(candidates)
            by_size.update(columns.sizes_count())
            with obs.span("mine.negative_count") as span:
                counts = session.count(
                    list(candidates), restrict_to_candidate_items=True
                )
                span.annotate("level", level_number)
            all_counts.update(counts)
            batches += 1
            with obs.span("mine.select") as span:
                chosen = _select(
                    columns, _actual(columns, counts, total),
                    self._minsup, self._minri, self._measure, index,
                )
                span.annotate("negatives", len(chosen))
            selected.append(chosen)

        chosen = ItemsetColumns.concat(selected)
        chosen = chosen.take(by_deviation(
            chosen.items.__getitem__, chosen.expected, chosen.actual
        ))
        negatives = negative_records(chosen)
        logical_now = getattr(database, "logical_scans", database.scans)
        stats = _build_stats(
            logical_now - start_logical, database.scans - start_physical,
            index, by_size, len(negatives), batches, session.run_metrics,
        )
        session.publish_run(stats)
        return MinerOutput(
            index, all_candidates, negatives, stats,
            counts=all_counts, total_transactions=total,
        ), chosen


class ImprovedNegativeMiner:
    """Single deferred counting pass (Section 2.2.2, Figure 3).

    Step 1 mines the generalized large itemsets with Cumulate
    (:func:`~repro.mining.generalized.mine_generalized`). Candidate
    generation then runs over the taxonomy with every small 1-itemset
    deleted — the paper's first optimization, which never changes the
    candidates (replacements are filtered to large items either way;
    the A3 ablation checks it) but shrinks the lists generation walks.

    Parameters
    ----------
    database, taxonomy, minsup, minri, session, max_size, measure:
        As for :class:`NaiveNegativeMiner`.
    max_candidates_in_memory:
        Memory budget of Section 2.5: when the candidate set is larger,
        counting is split into that many-candidate batches, one pass each.
        ``None`` counts everything in one pass.
    """

    def __init__(
        self,
        database: TransactionDatabase,
        taxonomy: Taxonomy,
        minsup: float,
        minri: float,
        session: MiningSession | None = None,
        max_size: int | None = None,
        max_candidates_in_memory: int | None = None,
        max_sibling_replacements: int | None = None,
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
        self._session = (
            session
            if session is not None
            else MiningSession(database, taxonomy)
        )
        self._max_size = max_size
        self._batch_size = max_candidates_in_memory
        self._measure = resolve_measure(measure, self._session)
        self._max_sibling_replacements = max_sibling_replacements

    def mine(self) -> MinerOutput:
        """Run the three phases and return all results."""
        return self._mine()[0]

    def _mine(self) -> tuple[MinerOutput, ItemsetColumns]:
        """:meth:`mine`, plus the negative itemsets as columns."""
        database = self._database
        session = self._session
        total = len(database)
        start_physical = database.scans
        start_logical = getattr(database, "logical_scans", database.scans)
        # A fresh run registry: a second mine() must never report
        # the first run's cache/shard activity.
        session.begin_run()

        with obs.span("mine.positive") as span:
            index = mine_generalized(
                database,
                self._taxonomy,
                self._minsup,
                session=session,
                max_size=self._max_size,
            )
            span.annotate("large_itemsets", len(index))

        with obs.span("mine.candidate_gen") as span:
            large_singles = [items[0] for items in index.of_size(1)]
            columns = candidate_columns(
                index,
                restrict_to_items(self._taxonomy, large_singles),
                self._minsup,
                self._minri,
                max_size=self._max_size,
                max_sibling_replacements=self._max_sibling_replacements,
            )
            candidates = columns.records()
            span.annotate("candidates", len(candidates))

        all_counts: dict[Itemset, int] = {}
        batches = 0
        with obs.span("mine.negative_count") as span:
            in_order = columns.tuples[columns.item_order()].tolist()
            for batch in _batched(in_order, self._batch_size):
                # Counting uses the *full* taxonomy: transactions may
                # contain small items whose ancestors still matter for
                # other rows.
                all_counts.update(
                    session.count(batch, restrict_to_candidate_items=True)
                )
                batches += 1
            span.annotate("batches", batches)

        with obs.span("mine.select") as span:
            chosen = _select(
                columns, _actual(columns, all_counts, total),
                self._minsup, self._minri, self._measure, index,
            )
            negatives = negative_records(chosen)
            span.annotate("negatives", len(negatives))

        logical_now = getattr(database, "logical_scans", database.scans)
        stats = _build_stats(
            logical_now - start_logical, database.scans - start_physical,
            index, columns.sizes_count(), len(negatives), batches,
            session.run_metrics,
        )
        session.publish_run(stats)
        return MinerOutput(
            index, candidates, negatives, stats,
            counts=all_counts, total_transactions=total,
        ), chosen


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


def size_counts(itemsets: Iterable[Itemset]) -> dict[int, int]:
    """Itemsets per size, by ascending size."""
    by_size: dict[int, int] = {}
    for items in itemsets:
        by_size[len(items)] = by_size.get(len(items), 0) + 1
    return dict(sorted(by_size.items()))


def _build_stats(
    passes: int,
    physical_passes: int,
    index: LargeItemsetIndex,
    candidates_by_size: dict[int, int],
    negative_itemsets: int,
    batches: int,
    metrics: MetricsRegistry,
) -> MiningStats:
    return MiningStats(
        data_passes=passes,
        physical_passes=physical_passes,
        large_itemsets=len(index),
        candidates_generated=sum(candidates_by_size.values()),
        negative_itemsets=negative_itemsets,
        counting_batches=batches,
        candidates_by_size=dict(sorted(candidates_by_size.items())),
        metrics=metrics,
    )
