"""The ``parallel-shm`` engine: packed counting, in-process or over workers.

The parent process packs the database once into a bit-packed matrix it
keeps across passes. At ``n_jobs=1`` (the default) it counts in-process
against that matrix: the one serial packed path. Above that it publishes
the word matrix into OS shared memory (:mod:`repro.parallel.shm`), and a
persistent worker pool attaches the segment and counts candidate
*batches* against the whole matrix — nothing row-shaped ever crosses a
pipe. It is the only engine that accepts ``n_jobs > 1``; ``--jobs N`` on
the CLI selects it when no ``--engine`` is given (DESIGN.md §11).
"""

from __future__ import annotations

import atexit
import weakref
from collections.abc import Collection

from ..._util import check_positive
from ...itemset import Itemset
from ...obs import api as obs
from ...obs.registry import MetricsRegistry
from .base import (
    Capabilities,
    CountingEngine,
    EnginePolicy,
    EngineState,
    register_engine,
)

#: Engines with live pools/segments; the atexit sweep closes whatever a
#: caller forgot so no /dev/shm name outlives the process.
_LIVE_SHM_ENGINES: "weakref.WeakSet[ParallelShmEngine]" = weakref.WeakSet()


def _close_live_shm_engines() -> None:
    for engine in list(_LIVE_SHM_ENGINES):
        engine.close()


atexit.register(_close_live_shm_engines)


@register_engine("parallel-shm")
class ParallelShmEngine(CountingEngine):
    """Bit-packed counting, in-process or over shared-memory workers.

    The driver packs the database into one
    :class:`~repro.mining.bitpack.PackedMatrix`, publishes it via
    ``multiprocessing.shared_memory``, and keeps ``n_jobs`` long-lived
    workers attached (:class:`~repro.parallel.pool.
    PersistentWorkerPool`). Each pass ships only candidate batches out
    and count vectors back; candidates are partitioned (not rows), so
    every candidate is counted once over all rows and the merge is a
    plain union — bit-identical to serial by construction.

    The packed matrix persists across passes like the cached engine:
    the physical build happens once per database fingerprint, each
    ``count()`` records one logical pass, and a mutated database
    (changed ``cache_token()``) triggers a re-publish — a fresh segment,
    a ``setup`` message to the pool, and an unlink of the old name.
    Plain rows carry no token, so they are packed once per call. The
    default ``n_jobs=1`` bypasses shared memory and workers entirely
    and counts in-process against the same matrix. Call :meth:`close`
    (or let the atexit sweep do it) to stop the workers and unlink the
    segment.
    """

    capabilities = Capabilities(
        packed=True,
        caching=True,
        shared_memory=True,
    )

    def __init__(self, n_jobs: int = 1, pool_config=None) -> None:
        self.n_jobs = check_positive(n_jobs, "n_jobs")
        self.pool_config = pool_config
        self._matrix = None
        self._token = None
        self._shared = None
        self._pool = None
        self._pool_taxonomy = None
        self._fingerprint = 0
        self._dirty = False
        _LIVE_SHM_ENGINES.add(self)

    @classmethod
    def from_policy(cls, policy: EnginePolicy) -> "ParallelShmEngine":
        return cls(n_jobs=policy.n_jobs)

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop workers, drop the matrix, unlink the segment."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
        self._pool_taxonomy = None
        self._matrix = None
        self._token = None
        shared, self._shared = self._shared, None
        if shared is not None:
            shared.close()
            shared.unlink()

    def __del__(self) -> None:  # pragma: no cover — GC timing
        try:
            self.close()
        except Exception:
            pass

    # -- counting ------------------------------------------------------

    def count(
        self,
        state: EngineState,
        candidates: Collection[Itemset],
        *,
        restrict_to_candidate_items: bool = False,
        metrics: MetricsRegistry,
    ) -> dict[Itemset, int]:
        # Like the cached engine, taxonomy candidates are matched by
        # descendant-OR, so restrict_to_candidate_items is moot.
        candidate_list = list(candidates)
        if not candidate_list:
            return {}
        matrix = self._ensure_matrix(state, metrics)
        source = state.transactions
        if hasattr(source, "count_logical_pass"):
            source.count_logical_pass()
        jobs = self.n_jobs
        if jobs == 1:
            # Serial bypass: no segment, no workers, same kernel.
            metrics.incr("parallel.serial_tasks")
            return matrix.count(
                candidate_list, taxonomy=state.taxonomy, metrics=metrics
            )
        pool = self._ensure_pool(state.taxonomy, jobs, metrics)
        observe = obs.enabled()
        n_batches = min(jobs, len(candidate_list))
        size = -(-len(candidate_list) // n_batches)
        batches = [
            candidate_list[start:start + size]
            for start in range(0, len(candidate_list), size)
        ]
        with obs.span("parallel.shm.map") as span:
            span.annotate("batches", len(batches))
            span.annotate("jobs", jobs)
            span.annotate("candidates", len(candidate_list))
            pairs = pool.map(
                [(batch, observe) for batch in batches]
            )
        counts: dict[Itemset, int] = {}
        for batch, (vector, worker_registry) in zip(batches, pairs):
            obs.merge_registry(worker_registry)
            counts.update(zip(batch, vector))
        for seconds in pool.drain_attach_seconds():
            obs.observe("parallel.shm.attach_s", seconds)
        from ...parallel.pool import record_pool_stats

        metrics.incr("parallel.shm.batches", len(batches))
        record_pool_stats(metrics, pool.drain_stats())
        return counts

    # -- internals -----------------------------------------------------

    def _ensure_matrix(self, state: EngineState, metrics: MetricsRegistry):
        """The packed matrix for the bound source, (re)built on change.

        A database is packed once per ``cache_token()``. Plain rows have
        no token and are packed on every call, like the ``mmap``
        engine's one-shot matrix: a list mutated in place between calls
        must never be answered from the earlier pack.
        """
        from ...mining.bitpack import PackedMatrix

        source = state.transactions
        token_fn = getattr(source, "cache_token", None)
        token = token_fn() if token_fn is not None else None
        if token is not None and self._matrix is not None and (
            token is self._token or token == self._token
        ):
            metrics.incr("cache.hits")
            return self._matrix
        if hasattr(source, "physical_scan"):
            rows = source.physical_scan()
        else:
            rows = state.rows()
        mutated = token is not None and self._token is not None
        with obs.span("parallel.shm.pack") as span:
            matrix = PackedMatrix.from_rows(rows)
            span.annotate("rows", matrix.n_rows)
        metrics.incr("cache.misses")
        if mutated:
            metrics.incr("cache.invalidations")
        metrics.max_gauge("kernel.matrix_bytes", matrix.nbytes)
        self._matrix = matrix
        self._token = token
        self._fingerprint += 1
        self._dirty = True
        return matrix

    def _ensure_pool(self, taxonomy, jobs: int, metrics: MetricsRegistry):
        """The persistent pool, attached to the current segment."""
        from ...parallel.pool import PersistentWorkerPool, PoolConfig
        from ...parallel.shm import SharedPackedMatrix

        if self._shared is None or self._dirty:
            with obs.span("parallel.shm.publish") as span:
                shared = SharedPackedMatrix.create(
                    self._matrix, fingerprint=self._fingerprint
                )
                span.annotate("bytes", shared.nbytes)
                span.annotate("fingerprint", self._fingerprint)
            # The engine's own matrix becomes a view over the segment:
            # one copy of the words in the whole process tree, and the
            # serial fallback counts against the exact published bits.
            self._matrix = shared.matrix
            old, self._shared = self._shared, shared
            self._dirty = False
            metrics.incr("parallel.shm.publishes")
            metrics.max_gauge("parallel.shm.bytes", shared.nbytes)
            if self._pool is not None:
                self._pool.reconfigure(self._setup_payload(taxonomy))
                self._pool_taxonomy = taxonomy
            if old is not None:
                # Attached workers keep their (now re-pointed) mappings;
                # unlink drops the name, the pages die with the last
                # detach.
                old.close()
                old.unlink()
        if self._pool is not None and taxonomy is not self._pool_taxonomy:
            self._pool.reconfigure(self._setup_payload(taxonomy))
            self._pool_taxonomy = taxonomy
        if self._pool is None:
            from ...parallel.shm import shm_worker_count, shm_worker_setup

            config = self.pool_config or PoolConfig(n_jobs=jobs)
            self._pool = PersistentWorkerPool(
                config,
                setup_func=shm_worker_setup,
                setup_payload=self._setup_payload(taxonomy),
                func=shm_worker_count,
                fallback=self._count_batch_local,
            )
            self._pool_taxonomy = taxonomy
        return self._pool

    def _setup_payload(self, taxonomy):
        return (self._shared.handle, taxonomy)

    def _count_batch_local(self, payload):
        """Parent-side serial fallback: one batch, driver matrix."""
        batch, _observe = payload
        counts = self._matrix.count(batch, taxonomy=self._pool_taxonomy)
        return [counts[candidate] for candidate in batch], None
