"""High-level façade: mine strong negative association rules in one call.

:func:`mine_negative_rules` wires together the full pipeline — generalized
positive mining, negative candidate generation, counting, and rule
generation — behind one configurable entry point, which is what the
examples, the CLI and most downstream users call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Iterable

from .._util import check_fraction, check_nonnegative, check_positive
from ..data.database import TransactionDatabase
from ..data.filedb import FileBackedDatabase
from ..errors import ConfigError
from ..measures.registry import (
    validate_spec as validate_measure_spec,
)
from ..mining.engines import DEFAULT_ENGINE, validate_spec
from ..mining.generalized import ALGORITHMS
from ..mining.itemset_index import LargeItemsetIndex
from ..obs import api as obs
from ..obs.api import METRICS_MODES
from ..taxonomy.tree import Taxonomy
from .candidates import NegativeCandidate
from .negmining import (
    ImprovedNegativeMiner,
    MinerOutput,
    MiningStats,
    NaiveNegativeMiner,
    NegativeItemset,
)
from .rulegen import NegativeRule, generate_negative_rules
from .session import MiningSession

MINERS = ("improved", "naive")


@dataclass(frozen=True, slots=True)
class MiningConfig:
    """All tunables of the negative-mining pipeline.

    Attributes
    ----------
    minsup:
        Fractional minimum support (both rule sides must meet it).
    minri:
        Minimum rule interest RI.
    miner:
        ``"improved"`` (Figure 3; default) or ``"naive"`` (Section 2.2.1).
    algorithm:
        Generalized positive miner: ``"basic"``, ``"cumulate"``,
        ``"estmerge"`` (Improved miner only; Naive is level-wise by
        nature).
    engine:
        Support-counting engine: a registered engine name
        (``"cached"``, ``"bitmap"``, ``"hashtree"``, ``"brute"``,
        ``"numpy"``, ``"mmap"``, ``"parallel-shm"``). Defaults
        to :data:`~repro.mining.engines.DEFAULT_ENGINE` (``"cached"``:
        one physical scan builds a vertical index that serves every
        pass). Run ``python -m repro engines`` for the full capability
        table.
    measure:
        Interestingness-measure spec judging candidates and rules:
        ``"ri"`` (the paper's rule interest; default),
        ``"kong-interest"`` (independence-deviation, arXiv:1806.07084)
        or ``"coherent"`` (contingency-quadrant dominance,
        arXiv:1308.2310) — any name registered with
        :func:`repro.measures.registry.register_measure`. Run
        ``python -m repro measures`` for the full capability table.
    max_size:
        Optional cap on itemset size (at least 1).
    max_candidates_in_memory:
        Memory budget for the Improved miner's counting phase
        (Section 2.5); ``None`` = single batch.
    prune_taxonomy:
        Delete small 1-itemsets from the taxonomy before candidate
        generation (Improved miner optimization).
    prune_small_antecedents:
        Figure 4's consequent pruning on small antecedents.
    figure3_literal:
        Use Figure 3's literal negative-itemset predicate instead of the
        body text's deviation predicate (DESIGN.md §3).
    max_sibling_replacements:
        Cap on sibling replacements per candidate; ``1`` matches the
        paper's Case-3 examples and tames dense-data blow-up, ``0``
        turns Case 3 off (see
        :func:`repro.core.candidates.generate_negative_candidates`).
        Negative values are rejected.
    seed:
        Seed for the EstMerge sample, when used.
    n_jobs:
        ``engine="parallel-shm"`` only: worker processes that split each
        counting pass's candidates (see :mod:`repro.parallel`). ``1``
        (default) counts in-process. Any higher value with another
        engine raises :class:`~repro.errors.ConfigError`. Counts are
        bit-identical either way.
    cache_bytes:
        ``engine="cached"`` only: LRU memory budget (bytes) for the
        vertical index; least-recently-used bitmaps are evicted and
        rebuilt on demand. ``None`` = unbounded.
    segment_rows:
        ``engine="mmap"`` only: rows per spilled packed segment
        (:mod:`repro.mining.segmatrix`). ``None`` uses the default
        segment size.
    max_resident_bytes:
        ``engine="mmap"`` only: budget (bytes) for concurrently open
        segment blocks; segments beyond it are evicted LRU and
        re-opened as read-only memory maps on demand. ``None`` keeps
        every block resident. This is the knob that makes peak counting
        memory independent of |D|.
    spill_dir:
        ``engine="mmap"`` only: parent directory for the temporary
        spill directory holding segment blocks; ``None`` uses the
        system temp dir. The directory is removed when the engine (or
        the process) goes away.
    trace_path:
        Write a JSON-lines trace of every span (counting passes, cache
        builds, worker batches, miner phases) plus a final metrics
        snapshot to this file (see :mod:`repro.obs`). ``None`` (default)
        disables tracing entirely — the no-op path costs one ``is None``
        check per instrumentation point.
    metrics:
        ``"none"`` (default), ``"summary"`` (human-readable metric
        report on stderr when mining finishes) or ``"json"`` (the same
        as a JSON object). Independent of *trace_path*; either enables
        the process-wide metrics registry for the duration of the call.
    """

    minsup: float = 0.01
    minri: float = 0.5
    miner: str = "improved"
    algorithm: str = "cumulate"
    engine: str = DEFAULT_ENGINE
    measure: str = "ri"
    max_size: int | None = None
    max_candidates_in_memory: int | None = None
    prune_taxonomy: bool = True
    prune_small_antecedents: bool = True
    figure3_literal: bool = False
    max_sibling_replacements: int | None = None
    seed: int | None = None
    n_jobs: int = 1
    cache_bytes: int | None = None
    segment_rows: int | None = None
    max_resident_bytes: int | None = None
    spill_dir: str | None = None
    trace_path: str | None = None
    metrics: str = "none"

    def __post_init__(self) -> None:
        check_fraction(self.minsup, "minsup")
        check_fraction(self.minri, "minri")
        if self.miner not in MINERS:
            raise ConfigError(
                f"unknown miner {self.miner!r}; choose from {MINERS}"
            )
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(
                f"unknown algorithm {self.algorithm!r}; "
                f"choose from {ALGORITHMS}"
            )
        check_positive(self.n_jobs, "n_jobs")
        validate_spec(self.engine, n_jobs=self.n_jobs)
        validate_measure_spec(self.measure)
        if self.figure3_literal and self.measure != "ri":
            raise ConfigError(
                "figure3_literal is the RI measure's literal Figure 3 "
                f"predicate; it cannot combine with measure="
                f"{self.measure!r}"
            )
        if self.max_size is not None:
            check_positive(self.max_size, "max_size")
        if self.max_sibling_replacements is not None:
            check_nonnegative(
                self.max_sibling_replacements, "max_sibling_replacements"
            )
        if self.cache_bytes is not None:
            check_positive(self.cache_bytes, "cache_bytes")
        if self.segment_rows is not None:
            check_positive(self.segment_rows, "segment_rows")
        if self.max_resident_bytes is not None:
            check_positive(self.max_resident_bytes, "max_resident_bytes")
        if self.metrics not in METRICS_MODES:
            raise ConfigError(
                f"unknown metrics mode {self.metrics!r}; "
                f"choose from {METRICS_MODES}"
            )


@dataclass(slots=True)
class NegativeMiningResult:
    """Everything the pipeline produced, plus provenance.

    Attributes
    ----------
    rules:
        Strong negative rules sorted by descending RI.
    negative_itemsets:
        Confirmed negative itemsets sorted by descending deviation.
    candidates:
        Every candidate that reached the counting phase.
    large_itemsets:
        The generalized large itemsets (step 1's output).
    stats:
        Pass/candidate accounting.
    config:
        The configuration used.
    counts, total_transactions:
        Raw counting results for every counted candidate and |D| — the
        inputs :func:`repro.measures.compare.compare_measures` needs to
        re-judge this run under every registered measure without
        another pass over the data.
    """

    rules: list[NegativeRule]
    negative_itemsets: list[NegativeItemset]
    candidates: dict[tuple[int, ...], NegativeCandidate]
    large_itemsets: LargeItemsetIndex
    stats: MiningStats
    config: MiningConfig = field(default_factory=MiningConfig)
    counts: dict[tuple[int, ...], int] = field(default_factory=dict)
    total_transactions: int = 0

    def summary(self, taxonomy: Taxonomy | None = None, limit: int = 10) -> str:
        """A human-readable report of the top rules."""
        lines = [
            f"large itemsets : {self.stats.large_itemsets}",
            f"candidates     : {self.stats.candidates_generated}",
            f"negative sets  : {self.stats.negative_itemsets}",
            f"rules          : {len(self.rules)}",
            f"data passes    : {self.stats.data_passes}",
        ]
        if self.stats.physical_passes != self.stats.data_passes:
            lines.append(
                f"physical passes: {self.stats.physical_passes}"
            )
        if self.stats.cache_hits or self.stats.cache_misses:
            lookups = self.stats.cache_hits + self.stats.cache_misses
            lines.append(
                f"index cache    : {self.stats.cache_hits}/{lookups} hits "
                f"({self.stats.cache_hit_rate:.0%}), "
                f"{self.stats.cache_bytes} bytes"
            )
        if self.stats.kernel_batches:
            lines.append(
                f"kernel batches : {self.stats.kernel_batches}"
            )
        if self.stats.cache_extensions:
            lines.append(
                f"cache extends  : {self.stats.cache_extensions} "
                f"(appends absorbed without a rebuild)"
            )
        if self.stats.segments_packed or self.stats.segments_reused:
            lines.append(
                f"segments       : {self.stats.segments_packed} packed, "
                f"{self.stats.segments_extended} extended, "
                f"{self.stats.segments_reused} reused, "
                f"{self.stats.segments_mmap_reads} mmap reads"
            )
        if self.stats.matrix_bytes or self.stats.segments_resident_bytes:
            lines.append(
                f"memory         : matrix {self.stats.matrix_bytes} B, "
                f"segments {self.stats.segments_resident_bytes} B "
                f"resident / {self.stats.segments_spilled_bytes} B spilled"
            )
        if self.stats.shm_batches:
            lines.append(
                f"shared memory  : {self.stats.shm_batches} batches "
                f"(workers {self.stats.workers_launched}, "
                f"retries {self.stats.worker_retries}, "
                f"fallbacks {self.stats.worker_fallbacks}, "
                f"publishes {self.stats.shm_publishes}, "
                f"{self.stats.shm_bytes} bytes)"
            )
        for rule in self.rules[:limit]:
            lines.append("  " + rule.format(taxonomy))
        if len(self.rules) > limit:
            lines.append(f"  ... and {len(self.rules) - limit} more")
        return "\n".join(lines)


def mine_negative_rules(
    transactions: (
        TransactionDatabase | FileBackedDatabase | Iterable[Iterable[int]]
    ),
    taxonomy: Taxonomy,
    minsup: float | None = None,
    minri: float | None = None,
    config: MiningConfig | None = None,
    session: MiningSession | None = None,
    **overrides,
) -> NegativeMiningResult:
    """Mine strong negative association rules from customer transactions.

    Parameters
    ----------
    transactions:
        A :class:`TransactionDatabase`, a
        :class:`~repro.data.filedb.FileBackedDatabase` (scanned from
        disk on every pass), or any iterable of item-id iterables
        (transactions over taxonomy leaves).
    taxonomy:
        The item taxonomy (the domain knowledge).
    minsup, minri:
        Shorthand for the two main thresholds; any other
        :class:`MiningConfig` field can be passed as a keyword override.
    config:
        A full configuration; *minsup*/*minri*/keyword overrides are
        applied on top of it.
    session:
        An existing :class:`~repro.core.session.MiningSession` to run
        under instead of building a fresh one. The session must be
        bound to the same *transactions* object — reusing it across
        runs is what keeps repeated mining incremental: the engine's
        prepared state (vertical index, packed segments) persists on
        the session, so a re-mine after an append extends the cached
        structures by the appended rows instead of rebuilding them.
        The streaming watcher passes its long-lived session here.

    Returns
    -------
    NegativeMiningResult

    Examples
    --------
    >>> from repro.taxonomy import taxonomy_from_nested
    >>> taxonomy = taxonomy_from_nested(
    ...     {"drinks": {"soda": ["Coke", "Pepsi"]}})
    >>> coke, pepsi = taxonomy.id_of("Coke"), taxonomy.id_of("Pepsi")
    >>> rows = [[coke]] * 50 + [[pepsi]] * 50
    >>> result = mine_negative_rules(rows, taxonomy, minsup=0.2, minri=0.2)
    >>> result.stats.data_passes >= 2
    True
    """
    settings = dict(overrides)
    if minsup is not None:
        settings["minsup"] = minsup
    if minri is not None:
        settings["minri"] = minri
    if config is not None:
        base = {
            name: getattr(config, name)
            for name in MiningConfig.__dataclass_fields__
        }
        base.update(settings)
        settings = base
    final = MiningConfig(**settings)

    if isinstance(transactions, (TransactionDatabase, FileBackedDatabase)):
        database = transactions
    else:
        database = TransactionDatabase(transactions)

    if session is None:
        session = MiningSession.from_config(database, taxonomy, final)
    with session.observed():
        output = _run_miner(database, taxonomy, final, session)
        with obs.span("mine.rule_gen") as span:
            rules = generate_negative_rules(
                output.negatives,
                output.large_itemsets,
                final.minri,
                prune_small_antecedents=final.prune_small_antecedents,
                measure=session.measure,
                minsup=final.minsup,
            )
            span.annotate("rules", len(rules))
    return NegativeMiningResult(
        rules=rules,
        negative_itemsets=output.negatives,
        candidates=output.candidates,
        large_itemsets=output.large_itemsets,
        stats=output.stats,
        config=final,
        counts=output.counts,
        total_transactions=output.total_transactions,
    )


def _run_miner(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    config: MiningConfig,
    session: MiningSession,
) -> MinerOutput:
    if config.miner == "naive":
        miner: NaiveNegativeMiner | ImprovedNegativeMiner = (
            NaiveNegativeMiner(
                database,
                taxonomy,
                config.minsup,
                config.minri,
                session=session,
                max_size=config.max_size,
                figure3_literal=config.figure3_literal,
                max_sibling_replacements=config.max_sibling_replacements,
            )
        )
    else:
        rng = random.Random(config.seed) if config.seed is not None else None
        miner = ImprovedNegativeMiner(
            database,
            taxonomy,
            config.minsup,
            config.minri,
            algorithm=config.algorithm,
            session=session,
            max_size=config.max_size,
            max_candidates_in_memory=config.max_candidates_in_memory,
            prune_taxonomy=config.prune_taxonomy,
            figure3_literal=config.figure3_literal,
            max_sibling_replacements=config.max_sibling_replacements,
            rng=rng,
        )
    return miner.mine()
