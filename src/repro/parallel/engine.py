"""The ``"parallel"`` counting engine and the parallel Partition driver.

Support counting is a sum over transactions, so it shards trivially: split
the rows of one pass into contiguous ranges, count every candidate inside
each shard with a serial engine (bitmap by default), and sum the partial
counts. Integer addition is associative and commutative, and partials are
merged in shard order anyway, so the result is bit-identical to a serial
count (property-tested against the brute-force oracle).

The same structure parallelizes the Partition algorithm (Savasere,
Omiecinski & Navathe, VLDB 1995 — the authors' own miner,
:mod:`repro.mining.partition`): phase 1 mines each shard's local large
itemsets in its own worker, phase 2 counts the merged candidate union with
the sharded engine. Exactly two passes over the parent database are
recorded, the same as the serial driver.

Everything here degrades gracefully: ``n_jobs=1`` (or a single shard)
runs serially in-process with no worker transport, and worker failures
follow :class:`repro.parallel.pool.WorkerPool`'s retry-then-serial ladder.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable

from .._util import check_fraction
from ..itemset import Itemset
from ..mining import vertical
from ..mining.engines import CountingEngine, count_pass, create_engine
from ..mining.itemset_index import LargeItemsetIndex
from ..obs import api as obs
from ..obs.registry import MetricsRegistry, stats_property
from ..taxonomy.tree import Taxonomy
from .pool import PoolConfig, PoolStats, WorkerPool, resolve_n_jobs
from .shards import plan_shards


class ParallelStats:
    """Accumulated shard/worker accounting across parallel operations.

    One instance is typically threaded through a whole mining run (see
    ``MiningConfig.n_jobs``) and absorbs the pool statistics of every
    sharded counting pass. Since the observability layer (DESIGN.md §8)
    every field is a view over a
    :class:`~repro.obs.registry.MetricsRegistry` under ``parallel.*``
    metric names — by default a private registry (the classic
    standalone-accumulator behavior); pass ``registry=`` to record into
    a shared one and ``prefix=`` to namespace the metrics.
    """

    #: field name -> registry counter name
    _FIELDS = {
        "shards": "parallel.shards",
        "worker_tasks": "parallel.worker_tasks",
        "workers_launched": "parallel.workers_launched",
        "worker_retries": "parallel.worker_retries",
        "worker_timeouts": "parallel.worker_timeouts",
        "worker_crashes": "parallel.worker_crashes",
        "worker_fallbacks": "parallel.worker_fallbacks",
        "serial_tasks": "parallel.serial_tasks",
        "shm_publishes": "parallel.shm.publishes",
        "shm_batches": "parallel.shm.batches",
        "shm_bytes": "parallel.shm.bytes",
    }

    #: Fields backed by a gauge (merge keeps the maximum) instead of a
    #: counter: segment size is a high-water mark, not a running total.
    _GAUGE_FIELDS = frozenset({"shm_bytes"})

    __slots__ = ("registry", "_prefix")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        prefix: str = "",
        **values: int,
    ) -> None:
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self._prefix = prefix
        for name, value in values.items():
            if name not in self._FIELDS:
                raise TypeError(
                    f"ParallelStats has no field {name!r}; "
                    f"choose from {tuple(self._FIELDS)}"
                )
            setattr(self, name, value)

    def absorb(self, pool_stats: PoolStats) -> None:
        """Fold one pool's lifetime statistics into this accumulator."""
        self.worker_tasks += pool_stats.tasks
        self.workers_launched += pool_stats.workers_launched
        self.worker_retries += pool_stats.retries
        self.worker_timeouts += pool_stats.timeouts
        self.worker_crashes += pool_stats.crashes + pool_stats.errors
        self.worker_fallbacks += pool_stats.fallbacks
        self.serial_tasks += pool_stats.serial_tasks

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)}" for name in self._FIELDS
        )
        return f"ParallelStats({fields})"


for _name, _metric in ParallelStats._FIELDS.items():
    _kind = "gauge" if _name in ParallelStats._GAUGE_FIELDS else "counter"
    setattr(ParallelStats, _name, stats_property(_metric, _kind))
del _name, _metric, _kind


def _count_shard(payload):
    """Worker task: count all candidates within one shard of rows.

    Returns ``(counts, registry)`` — *registry* holds the shard's
    ``worker.*``-scoped metrics when the driver requested observation
    (the trailing payload flag), else ``None``. The driver merges
    shipped registries into its own; driver-scope totals stay untouched,
    so parallel and serial runs report identical ``counting.*`` numbers.
    """
    rows, candidates, taxonomy, engine, restrict, observe = payload
    state = engine.prepare(rows, taxonomy)
    if not observe:
        counts = count_pass(
            engine,
            state,
            candidates,
            restrict_to_candidate_items=restrict,
        )
        return counts, None
    with obs.worker_collection() as registry:
        with obs.span("parallel.shard") as span:
            span.annotate("rows", len(rows))
            span.annotate("candidates", len(candidates))
            counts = count_pass(
                engine,
                state,
                candidates,
                restrict_to_candidate_items=restrict,
            )
    return counts, registry


def _count_shard_cached(payload):
    """Worker task: count candidates against a shipped shard-local index.

    The parent builds each shard's :class:`~repro.mining.vertical.
    VerticalIndex` once (one physical pass for the whole plan) and ships
    the prebuilt bitmaps on every counting pass, so workers never
    re-derive item bitsets from raw rows — the cross-level reuse that
    makes ``engine="cached"`` compose with ``n_jobs > 1``. Returns
    ``(counts, registry)`` exactly like :func:`_count_shard`.
    """
    shard_index, candidates, taxonomy, observe = payload
    if not observe:
        return shard_index.count(candidates, taxonomy=taxonomy), None
    with obs.worker_collection() as registry:
        with obs.span("parallel.shard") as span:
            span.annotate("rows", shard_index.n_rows)
            span.annotate("candidates", len(candidates))
            stats = vertical.CacheStats(registry=registry, prefix="worker.")
            counts = shard_index.count(
                candidates, taxonomy=taxonomy, stats=stats
            )
    return counts, registry


def _count_mmap_shard(payload):
    """Worker task: count candidates over a group of mmapped segments.

    The payload carries :class:`~repro.mining.segmatrix.Segment`
    descriptors — index, row range, node table and spill-file path, *not*
    the word blocks — and the worker memory-maps each block from its own
    process. Nothing row-shaped or block-shaped crosses the pipe, the
    segment-aligned analogue of the shm engine's zero-copy attach.
    Returns ``(counts, registry)`` exactly like :func:`_count_shard`.
    """
    from ..mining.segmatrix import count_segment_block

    segments, candidates, taxonomy, batch_words, observe = payload

    def run(stats=None):
        totals: dict[Itemset, int] = dict.fromkeys(candidates, 0)
        for segment in segments:
            block = segment.open_block()
            if stats is not None:
                stats.segments_mmap_reads += 1
            partial = count_segment_block(
                segment, block, candidates,
                taxonomy=taxonomy, batch_words=batch_words, stats=stats,
            )
            for items, count in partial.items():
                totals[items] += count
        return totals

    if not observe:
        return run(), None
    with obs.worker_collection() as registry:
        with obs.span("parallel.shard") as span:
            span.annotate("segments", len(segments))
            span.annotate("candidates", len(candidates))
            stats = vertical.CacheStats(registry=registry, prefix="worker.")
            counts = run(stats)
    return counts, registry


def _mine_shard(payload) -> list[Itemset]:
    """Worker task: phase-1 local mining of one Partition shard."""
    # Imported lazily: repro.mining.partition sits above this module in
    # the import graph (it counts through the engine registry).
    from ..mining.partition import mine_local_partition

    rows, minsup, max_size = payload
    return sorted(mine_local_partition(list(rows), minsup, max_size))


def parallel_count_supports(
    transactions: Iterable[Itemset],
    candidates: Collection[Itemset],
    taxonomy: Taxonomy | None = None,
    engine: str | CountingEngine = "bitmap",
    restrict_to_candidate_items: bool = False,
    n_jobs: int | None = None,
    shard_rows: int | None = None,
    pool_config: PoolConfig | None = None,
    stats: ParallelStats | None = None,
    cache_stats=None,
) -> dict[Itemset, int]:
    """Sharded support counting; bit-identical to the serial engines.

    Parameters
    ----------
    transactions:
        The rows of one database pass (already scan-counted by the
        caller, exactly like the serial engines), or the scan-counted
        database itself. The database form is required for shard-local
        caching under ``engine="cached"`` and equivalent otherwise
        (one ``scan()`` is recorded here instead of at the caller).
    candidates:
        Canonical itemsets to count.
    taxonomy, restrict_to_candidate_items:
        As for the serial engines; ancestor extension happens *inside*
        each worker so it parallelizes too.
    engine:
        The engine each shard delegates to: a registry spec or a built
        :class:`~repro.mining.engines.CountingEngine` (a parallel
        wrapper is unwrapped to its inner engine). With a caching engine
        and a database, shard-local vertical indexes are built once and
        re-shipped to workers on every later pass; with ``"numpy"`` each
        worker packs its own shard per pass.
    n_jobs:
        Worker processes; ``None`` = one per CPU, ``1`` = serial
        in-process.
    shard_rows:
        Target rows per shard; default splits the pass into ``n_jobs``
        equal shards.
    pool_config:
        Full :class:`~repro.parallel.pool.PoolConfig` override (timeout,
        retries, backoff, start method); its ``n_jobs`` wins over the
        *n_jobs* argument when given.
    stats:
        Optional :class:`ParallelStats` accumulator.
    cache_stats:
        Optional :class:`~repro.mining.vertical.CacheStats` accumulator
        for the caching/packed engines.

    Returns
    -------
    dict
        Absolute count per candidate, every candidate present.
    """
    candidate_list = list(candidates)
    if not candidate_list:
        return {}
    jobs = pool_config.n_jobs if pool_config is not None else (
        resolve_n_jobs(n_jobs)
    )
    if not isinstance(engine, CountingEngine):
        engine = create_engine(engine)
    if engine.wraps:
        engine = engine.inner
    if engine.capabilities.out_of_core and hasattr(transactions, "scan"):
        return _count_mmap_sharded(
            engine,
            transactions,
            candidate_list,
            taxonomy,
            jobs,
            pool_config,
            stats,
            cache_stats,
        )
    if engine.capabilities.caching and hasattr(transactions, "scan"):
        return _count_cached_sharded(
            transactions,
            candidate_list,
            taxonomy,
            jobs,
            shard_rows,
            pool_config,
            stats,
            cache_stats,
        )
    if hasattr(transactions, "scan"):
        transactions = transactions.scan()
    rows = (
        transactions
        if isinstance(transactions, (list, tuple))
        else list(transactions)
    )
    shards = plan_shards(rows, shard_rows=shard_rows, n_shards=jobs)
    if stats is not None:
        stats.shards += len(shards)
    if jobs == 1 or len(shards) <= 1:
        if stats is not None:
            stats.serial_tasks += len(shards)
        return count_pass(
            engine,
            engine.prepare(rows, taxonomy),
            candidate_list,
            restrict_to_candidate_items=restrict_to_candidate_items,
            cache_stats=cache_stats,
        )
    pool = WorkerPool(pool_config or PoolConfig(n_jobs=jobs))
    observe = obs.enabled()
    payloads = [
        (
            shard.rows,
            candidate_list,
            taxonomy,
            engine,
            restrict_to_candidate_items,
            observe,
        )
        for shard in shards
    ]
    with obs.span("parallel.map") as span:
        span.annotate("shards", len(shards))
        span.annotate("jobs", jobs)
        partials = pool.map(_count_shard, payloads)
    totals: dict[Itemset, int] = dict.fromkeys(candidate_list, 0)
    for partial, worker_registry in partials:
        obs.merge_registry(worker_registry)
        for items, count in partial.items():
            totals[items] += count
    if stats is not None:
        stats.absorb(pool.stats)
    return totals


def _count_mmap_sharded(
    engine,
    database,
    candidate_list: list[Itemset],
    taxonomy: Taxonomy | None,
    jobs: int,
    pool_config: PoolConfig | None,
    stats: ParallelStats | None,
    cache_stats,
) -> dict[Itemset, int]:
    """One sharded pass over an out-of-core segmented matrix.

    The parent synchronizes the engine-owned
    :class:`~repro.mining.segmatrix.SegmentedPackedMatrix` (incremental:
    unchanged and append-only databases never repack untouched
    segments), then hands each worker a contiguous *group of segment
    descriptors* — workers map their own spill files instead of
    receiving pickled row slices. Partial counts over disjoint row
    ranges sum to exactly the serial result. One logical pass is
    recorded per call, the same cost-model shape as the cached path.
    """
    matrix = engine.matrix_for(database, cache_stats)
    database.count_logical_pass()
    segments = matrix.segments
    batch_words = getattr(engine, "batch_words", None)
    if stats is not None:
        stats.shards += len(segments)
    if jobs == 1 or len(segments) <= 1:
        if stats is not None:
            stats.serial_tasks += len(segments)
        return matrix.count(
            candidate_list,
            taxonomy=taxonomy,
            batch_words=batch_words,
            stats=cache_stats,
        )
    n_groups = min(jobs, len(segments))
    base, extra = divmod(len(segments), n_groups)
    groups = []
    start = 0
    for position in range(n_groups):
        size = base + (1 if position < extra else 0)
        groups.append(segments[start:start + size])
        start += size
    pool = WorkerPool(pool_config or PoolConfig(n_jobs=jobs))
    observe = obs.enabled()
    payloads = [
        (group, candidate_list, taxonomy, batch_words, observe)
        for group in groups
    ]
    with obs.span("parallel.map") as span:
        span.annotate("shards", len(segments))
        span.annotate("jobs", jobs)
        pairs = pool.map(_count_mmap_shard, payloads)
    totals: dict[Itemset, int] = dict.fromkeys(candidate_list, 0)
    for partial, worker_registry in pairs:
        obs.merge_registry(worker_registry)
        for items, count in partial.items():
            totals[items] += count
    if stats is not None:
        stats.absorb(pool.stats)
    return totals


def _count_cached_sharded(
    database,
    candidate_list: list[Itemset],
    taxonomy: Taxonomy | None,
    jobs: int,
    shard_rows: int | None,
    pool_config: PoolConfig | None,
    stats: ParallelStats | None,
    cache_stats,
) -> dict[Itemset, int]:
    """One sharded counting pass served from shard-local vertical indexes.

    Building the indexes costs one physical pass (recorded at the parent);
    every pass, including the first, records exactly one logical pass —
    the same cost-model shape as the serial cached engine.
    """
    indexes = vertical.get_shard_indexes(
        database, shard_rows=shard_rows, n_shards=jobs, stats=cache_stats
    )
    database.count_logical_pass()
    if stats is not None:
        stats.shards += len(indexes)
    if jobs == 1 or len(indexes) <= 1:
        if stats is not None:
            stats.serial_tasks += len(indexes)
        partials = [
            index.count(candidate_list, taxonomy=taxonomy, stats=cache_stats)
            for index in indexes
        ]
    else:
        pool = WorkerPool(pool_config or PoolConfig(n_jobs=jobs))
        observe = obs.enabled()
        payloads = [
            (index, candidate_list, taxonomy, observe)
            for index in indexes
        ]
        with obs.span("parallel.map") as span:
            span.annotate("shards", len(indexes))
            span.annotate("jobs", jobs)
            pairs = pool.map(_count_shard_cached, payloads)
        partials = []
        for partial, worker_registry in pairs:
            obs.merge_registry(worker_registry)
            partials.append(partial)
        if stats is not None:
            stats.absorb(pool.stats)
    totals: dict[Itemset, int] = dict.fromkeys(candidate_list, 0)
    for partial in partials:
        for items, count in partial.items():
            totals[items] += count
    if cache_stats is not None:
        cache_stats.bytes = max(
            cache_stats.bytes, sum(index.nbytes for index in indexes)
        )
    return totals


def parallel_partition(
    database,
    minsup: float,
    n_jobs: int | None = None,
    partitions: int | None = None,
    shard_rows: int | None = None,
    engine: str | CountingEngine = "bitmap",
    max_size: int | None = None,
    pool_config: PoolConfig | None = None,
    stats: ParallelStats | None = None,
) -> LargeItemsetIndex:
    """Two-pass Partition mining with one worker per partition.

    Phase 1 plans one shard per partition (one recorded pass) and mines
    each shard's locally large itemsets in its own worker; phase 2 counts
    the merged candidate union with the sharded engine (the second
    recorded pass). Output is identical to
    :func:`repro.mining.partition.find_large_itemsets_partition`
    (property-tested).

    Parameters
    ----------
    database:
        A scan-counted database of transactions over plain items (extend
        first with :func:`repro.mining.generalized.extend_database` for
        the generalized setting).
    minsup:
        Fractional minimum support in ``(0, 1]``.
    n_jobs:
        Worker processes; ``None`` = one per CPU.
    partitions:
        Number of phase-1 partitions; defaults to the worker count.
    shard_rows:
        Alternative partition sizing by row count (overrides
        *partitions*).
    engine:
        Serial engine for the phase-2 global count.
    max_size, pool_config, stats:
        As for :func:`parallel_count_supports`.
    """
    check_fraction(minsup, "minsup")
    jobs = pool_config.n_jobs if pool_config is not None else (
        resolve_n_jobs(n_jobs)
    )
    parts = partitions if partitions is not None else jobs

    # Phase 1 — pass one: shard the database, mine each shard locally.
    shards = plan_shards(database, shard_rows=shard_rows, n_shards=parts)
    if stats is not None:
        stats.shards += len(shards)
    payloads = [(shard.rows, minsup, max_size) for shard in shards]
    if jobs == 1 or len(shards) <= 1:
        if stats is not None:
            stats.serial_tasks += len(shards)
        local_results = [_mine_shard(payload) for payload in payloads]
    else:
        pool = WorkerPool(pool_config or PoolConfig(n_jobs=jobs))
        local_results = pool.map(_mine_shard, payloads)
        if stats is not None:
            stats.absorb(pool.stats)

    global_candidates: set[Itemset] = set()
    for local in local_results:
        global_candidates.update(local)

    index = LargeItemsetIndex()
    if not global_candidates:
        return index

    # Phase 2 — pass two: sharded global count of the merged union.
    total = len(database)
    min_count = minsup * total
    counts = parallel_count_supports(
        database.scan(),
        sorted(global_candidates),
        engine=engine,
        n_jobs=jobs,
        shard_rows=shard_rows,
        pool_config=pool_config,
        stats=stats,
    )
    for candidate, count in counts.items():
        if count >= min_count:
            index.add(candidate, count / total)
    return index
