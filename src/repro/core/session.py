"""MiningSession: one execution context from the CLI down to the kernel.

A :class:`MiningSession` binds everything a counting pass needs once —
database, taxonomy, the resolved :class:`~repro.mining.engines.
CountingEngine`, cache/parallel policy and the observability sinks — and
is the only object passed from :class:`~repro.core.api.MiningConfig`
down through the miners.

Lifecycle
---------
``MiningSession.from_config`` resolves the config's engine spec through
the registry (``n_jobs > 1`` is valid only with ``"parallel-shm"``).
``prepare()`` runs once per session for the
bound database, so engines with per-database state build it a single
time. Each miner ``mine()`` run brackets itself with :meth:`begin_run`
(fresh per-run stats accumulators — a second run never reports the
first run's numbers) and :meth:`publish_run` (folds the run's private
registries into the active observability session). :meth:`close`
releases the engine's workers, segments and spill files.
"""

from __future__ import annotations

import contextlib
from collections.abc import Collection
from typing import Any

from ..errors import ConfigError
from ..itemset import Itemset
from ..measures.registry import (
    DEFAULT_MEASURE,
    InterestMeasure,
    MeasurePolicy,
    create_measure,
)
from ..mining.engines import (
    DEFAULT_ENGINE,
    CountingEngine,
    EnginePolicy,
    EngineState,
    count_pass,
    create_engine,
)
from ..mining.vertical import CacheStats
from ..obs import api as obs
from ..parallel.pool import ParallelStats
from ..taxonomy.tree import Taxonomy

_UNSET = object()

#: Valid run kinds for :meth:`MiningSession.begin_run`. The kind
#: prefixes the headline counters :meth:`MiningSession.publish_run`
#: folds into the observability registry — ``mine.*`` for offline
#: mining runs, ``serving.*`` for on-demand selective generation inside
#: the serving layer, ``streaming.*`` for the incremental re-mines of
#: the streaming watcher — so a service process that also mines never
#: pollutes the offline counters.
RUN_KINDS = ("mine", "serving", "streaming")


class MiningSession:
    """Database + taxonomy + resolved engine + policy, bound once.

    Parameters
    ----------
    transactions:
        The scan-counted database (required for the caching engines to
        persist their index) or plain rows.
    taxonomy:
        Default taxonomy for :meth:`count`; ``None`` for flat mining.
    engine:
        An engine spec (``"bitmap"``, ``"parallel-shm"``, …) or an
        already-built :class:`CountingEngine`.
    n_jobs:
        Worker processes of the ``"parallel-shm"`` engine (``None`` =
        one per CPU). ``n_jobs > 1`` with any other engine raises
        :class:`~repro.errors.ConfigError`.
    cache_bytes, batch_words:
        Cache/kernel policy consumed by the engines that understand it:
        the ``"cached"`` index budget (``None`` = unbounded) and the
        packed kernel's gather bound.
    segment_rows, max_resident_bytes, spill_dir:
        Out-of-core policy for the ``"mmap"`` engine: rows per spilled
        segment, the budget for concurrently open segment blocks, and
        the parent directory for the temporary spill directory.
    measure:
        The interestingness measure bound to this execution context — a
        registered spec (``"ri"``, ``"kong-interest"``, ``"coherent"``)
        or a ready :class:`~repro.measures.registry.InterestMeasure`
        instance. Miners run under this session default to it, exactly
        as they default to the session's engine.
    trace_path, metrics:
        Observability sinks for :meth:`observed` (see
        :mod:`repro.obs`).
    """

    def __init__(
        self,
        transactions: Any,
        taxonomy: Taxonomy | None = None,
        engine: str | CountingEngine = DEFAULT_ENGINE,
        *,
        n_jobs: int | None = None,
        cache_bytes: int | None = None,
        batch_words: int | None = None,
        segment_rows: int | None = None,
        max_resident_bytes: int | None = None,
        spill_dir: str | None = None,
        measure: str | InterestMeasure = DEFAULT_MEASURE,
        trace_path: str | None = None,
        metrics: str = "none",
        default_run_kind: str = "mine",
    ) -> None:
        self.transactions = transactions
        self.taxonomy = taxonomy
        self.engine = create_engine(
            engine,
            EnginePolicy(
                n_jobs=n_jobs,
                cache_bytes=cache_bytes,
                batch_words=batch_words,
                segment_rows=segment_rows,
                max_resident_bytes=max_resident_bytes,
                spill_dir=spill_dir,
            ),
        )
        self.measure = create_measure(measure)
        self.trace_path = trace_path
        self.metrics = metrics
        if default_run_kind not in RUN_KINDS:
            raise ConfigError(
                f"unknown run kind {default_run_kind!r}; "
                f"choose from {RUN_KINDS}"
            )
        self.default_run_kind = default_run_kind
        self._state: EngineState | None = None
        self._run_kind = default_run_kind
        self.cache_stats = CacheStats()
        self.parallel_stats = ParallelStats()

    @classmethod
    def from_config(
        cls,
        transactions: Any,
        taxonomy: Taxonomy | None,
        config,
        *,
        default_run_kind: str = "mine",
    ) -> "MiningSession":
        """Build the session a :class:`MiningConfig` describes.

        *default_run_kind* sets the counter prefix runs report under
        when the miners open them with a bare :meth:`begin_run` — the
        streaming watcher passes ``"streaming"`` so its re-mines stay
        separate from offline ``mine.*`` runs.
        """
        return cls(
            transactions,
            taxonomy,
            engine=config.engine,
            n_jobs=config.n_jobs,
            cache_bytes=config.cache_bytes,
            segment_rows=config.segment_rows,
            max_resident_bytes=config.max_resident_bytes,
            spill_dir=config.spill_dir,
            measure=create_measure(
                config.measure,
                MeasurePolicy(figure3_literal=config.figure3_literal),
            ),
            trace_path=config.trace_path,
            metrics=config.metrics,
            default_run_kind=default_run_kind,
        )

    # -- counting -----------------------------------------------------

    def count(
        self,
        candidates: Collection[Itemset],
        *,
        transactions: Any = None,
        taxonomy: Taxonomy | None | object = _UNSET,
        restrict_to_candidate_items: bool = False,
    ) -> dict[Itemset, int]:
        """Count one logical pass with the session's engine.

        *transactions* / *taxonomy* override the session's defaults for
        this pass only (the EstMerge sample, a flat count under a
        generalized session).
        """
        engine = self.engine
        source = self.transactions if transactions is None else transactions
        tax = self.taxonomy if taxonomy is _UNSET else taxonomy
        if source is self.transactions and tax is self.taxonomy:
            if self._state is None:
                self._state = engine.prepare(source, tax)
            state = self._state
        else:
            state = engine.prepare(source, tax)
        return count_pass(
            engine,
            state,
            candidates,
            restrict_to_candidate_items=restrict_to_candidate_items,
            cache_stats=self.cache_stats,
            parallel_stats=self.parallel_stats,
        )

    # -- run lifecycle ------------------------------------------------

    def begin_run(self, kind: str | None = None) -> None:
        """Start a fresh run of the given kind: reset the accumulators.

        A second ``mine()`` on the same session must never report the
        first run's cache/worker activity. *kind* (one of
        :data:`RUN_KINDS`; ``None`` means the session's
        ``default_run_kind``) selects the counter prefix
        :meth:`publish_run` reports under: the offline miners open runs
        with a bare ``begin_run()`` — ``"mine"`` unless the session was
        built for streaming; the serving layer's on-demand selective
        generation passes ``"serving"`` so query-time mining stays
        separate from offline runs in the metrics registry.
        """
        if kind is None:
            kind = self.default_run_kind
        if kind not in RUN_KINDS:
            raise ConfigError(
                f"unknown run kind {kind!r}; choose from {RUN_KINDS}"
            )
        self._run_kind = kind
        self.cache_stats = CacheStats()
        self.parallel_stats = ParallelStats()

    def close(self) -> None:
        """Release the engine's workers, segments and spill files."""
        self.engine.close()

    def observed(self) -> contextlib.AbstractContextManager:
        """An observability session with this session's sinks."""
        return obs.obs_session(
            trace_path=self.trace_path, metrics=self.metrics
        )

    def publish_run(self, stats) -> None:
        """Fold one run's accounting into the active obs session.

        The session accumulates cache/parallel activity in private
        per-run registries; when an observability session is active,
        those registries are merged into it here and the run's headline
        figures land under ``<kind>.*`` counters — ``mine.*`` by
        default, ``serving.*`` when the run was opened with
        ``begin_run(kind="serving")``. *stats* is any object with the
        :class:`~repro.core.negmining.MiningStats` counters.
        """
        state = obs.current()
        if state is None:
            return
        registry = state.registry
        if self.parallel_stats.registry is not registry:
            registry.merge(self.parallel_stats.registry)
        if self.cache_stats.registry is not registry:
            registry.merge(self.cache_stats.registry)
        kind = self._run_kind
        registry.incr(f"{kind}.runs")
        registry.incr(f"{kind}.data_passes", stats.data_passes)
        registry.incr(f"{kind}.physical_passes", stats.physical_passes)
        registry.incr(f"{kind}.large_itemsets", stats.large_itemsets)
        registry.incr(f"{kind}.candidates", stats.candidates_generated)
        registry.incr(f"{kind}.negative_itemsets", stats.negative_itemsets)

    def __repr__(self) -> str:
        return (
            f"MiningSession(engine={self.engine.spec!r}, "
            f"measure={self.measure.spec!r}, "
            f"taxonomy={'yes' if self.taxonomy is not None else 'no'})"
        )
