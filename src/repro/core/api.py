"""High-level façade: mine strong negative association rules in one call.

:func:`mine_negative_rules` wires together the full pipeline — generalized
positive mining, negative candidate generation, counting, and rule
generation — behind one configurable entry point, which is what the
examples, the CLI and most downstream users call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable
from operator import attrgetter

from .._util import check_fraction, check_nonnegative, check_positive
from ..data.database import TransactionDatabase
from ..data.filedb import FileBackedDatabase
from ..errors import ConfigError
from ..measures.registry import (
    create_measure,
    validate_spec as validate_measure_spec,
)
from ..mining.engines import (
    DEFAULT_ENGINE,
    out_of_core_options,
    validate_spec,
)
from ..mining.itemset_index import LargeItemsetIndex
from ..obs import api as obs
from ..obs.api import METRICS_MODES
from ..taxonomy.tree import Taxonomy
from .candidates import ItemsetColumns, NegativeCandidate
from .negmining import (
    ImprovedNegativeMiner,
    MinerOutput,
    MiningStats,
    NaiveNegativeMiner,
    NegativeItemset,
)
from .rulegen import NegativeRule, negative_rules, size_groups
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
        Both mine the generalized large itemsets with Cumulate.
    engine:
        Support-counting engine: a registered engine name
        (``"cached"``, ``"bitmap"``, ``"hashtree"``, ``"brute"``,
        ``"mmap"``). Defaults
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
    segment_rows:
        ``engine="mmap"`` only: rows per spilled packed segment
        (:mod:`repro.mining.segmatrix`). ``None`` uses the default
        segment size.
    max_resident_bytes:
        ``engine="mmap"`` only: budget (bytes) for concurrently open
        segment blocks; segments beyond it are evicted LRU and
        re-opened as read-only memory maps on demand. ``None`` keeps
        every block resident. This is the one bound on counting memory
        (the default ``"cached"`` index has none): it makes peak
        counting memory independent of |D|.
    spill_dir:
        ``engine="mmap"`` only: parent directory for the temporary
        spill directory holding segment blocks; ``None`` uses the
        system temp dir. The directory is removed when the engine (or
        the process) goes away.
    trace_path:
        Write a JSON-lines trace of every span (counting passes, cache
        builds, miner phases) plus a final metrics
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
    engine: str = DEFAULT_ENGINE
    measure: str = "ri"
    max_size: int | None = None
    max_candidates_in_memory: int | None = None
    prune_small_antecedents: bool = True
    figure3_literal: bool = False
    max_sibling_replacements: int | None = None
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
        validate_spec(self.engine)
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
        if self.segment_rows is not None:
            check_positive(self.segment_rows, "segment_rows")
        if self.max_resident_bytes is not None:
            check_positive(self.max_resident_bytes, "max_resident_bytes")
        out_of_core_options(
            self.engine,
            self.segment_rows,
            self.max_resident_bytes,
            self.spill_dir,
        )
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
        lines = [self.stats.summary(rules=len(self.rules))]
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
        Its engine and measure must be the ones the final configuration
        names (build it with ``MiningSession.from_config``); a
        mismatch raises :class:`~repro.errors.ConfigError`.

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
    else:
        _check_session(session, final)
    with session.observed():
        output, negatives = _run_miner(database, taxonomy, final, session)
        with obs.span("mine.rule_gen") as span:
            rules = negative_rules(
                size_groups(negatives.items),
                negatives.items.shape[1],
                list(map(attrgetter("expected_support"), output.negatives)),
                list(map(attrgetter("actual_support"), output.negatives)),
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


def _check_session(session: MiningSession, config: MiningConfig) -> None:
    """Reject a session that would not run what *config* says."""
    measure = create_measure(
        config.measure, figure3_literal=config.figure3_literal
    )
    for name, bound, wanted in (
        ("engine", session.engine.spec, validate_spec(config.engine)),
        ("measure", session.measure.spec, measure.spec),
        (
            "figure3_literal",
            getattr(session.measure, "figure3_literal", False),
            getattr(measure, "figure3_literal", False),
        ),
    ):
        if bound != wanted:
            raise ConfigError(
                f"the session's {name} is {bound!r} but the config asks "
                f"for {wanted!r}; build the session with "
                "MiningSession.from_config"
            )


def _run_miner(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    config: MiningConfig,
    session: MiningSession,
) -> tuple[MinerOutput, ItemsetColumns]:
    """Run the configured miner; returns its output and its negative
    itemsets as columns, which rule generation reads."""
    if config.miner == "naive":
        miner: NaiveNegativeMiner | ImprovedNegativeMiner = (
            NaiveNegativeMiner(
                database,
                taxonomy,
                config.minsup,
                config.minri,
                session=session,
                max_size=config.max_size,
                max_sibling_replacements=config.max_sibling_replacements,
            )
        )
    else:
        miner = ImprovedNegativeMiner(
            database,
            taxonomy,
            config.minsup,
            config.minri,
            session=session,
            max_size=config.max_size,
            max_candidates_in_memory=config.max_candidates_in_memory,
            max_sibling_replacements=config.max_sibling_replacements,
        )
    return miner._mine()
