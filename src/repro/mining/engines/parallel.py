"""The ``parallel-shm`` engine: shared-memory counting over workers.

The parent process packs the database once, publishes the word matrix
into OS shared memory (:mod:`repro.parallel.shm`), and a persistent
worker pool attaches the segment and counts candidate *batches* against
the whole matrix — nothing row-shaped ever crosses a pipe. It is the only engine
that accepts ``n_jobs > 1``; ``--jobs N`` on the CLI selects it when no
``--engine`` is given (DESIGN.md §11).
"""

from __future__ import annotations

import atexit
import weakref
from collections.abc import Collection

from ...itemset import Itemset
from ...obs import api as obs
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

_NO_TOKEN = object()


@register_engine("parallel-shm")
class ParallelShmEngine(CountingEngine):
    """Zero-copy shared-memory counting over a persistent worker pool.

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
    ``n_jobs=1`` bypasses shared memory and workers entirely and counts
    in-process against the same matrix. Call :meth:`close` (or let the
    atexit sweep do it) to stop the workers and unlink the segment.
    """

    capabilities = Capabilities(
        packed=True,
        caching=True,
        shared_memory=True,
    )

    def __init__(
        self,
        n_jobs: int | None = None,
        batch_words: int | None = None,
        pool_config=None,
    ) -> None:
        self.n_jobs = n_jobs
        self.batch_words = batch_words
        self.pool_config = pool_config
        self._matrix = None
        self._token = _NO_TOKEN
        self._shared = None
        self._pool = None
        self._pool_taxonomy = None
        self._fingerprint = 0
        self._dirty = False
        _LIVE_SHM_ENGINES.add(self)

    @classmethod
    def from_policy(cls, policy: EnginePolicy) -> "ParallelShmEngine":
        return cls(
            n_jobs=policy.n_jobs,
            batch_words=policy.batch_words,
        )

    @property
    def wants_parallel_stats(self) -> bool:
        return True

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Stop workers, drop the matrix, unlink the segment."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()
        self._pool_taxonomy = None
        self._matrix = None
        self._token = _NO_TOKEN
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
        cache_stats=None,
        parallel_stats=None,
    ) -> dict[Itemset, int]:
        # Like the numpy/cached engines, taxonomy candidates are matched
        # by descendant-OR, so restrict_to_candidate_items is moot.
        from ...parallel.pool import resolve_n_jobs

        candidate_list = list(candidates)
        if not candidate_list:
            return {}
        jobs = resolve_n_jobs(self.n_jobs)
        matrix = self._ensure_matrix(state, cache_stats)
        source = state.transactions
        if hasattr(source, "count_logical_pass"):
            source.count_logical_pass()
        if jobs == 1:
            # Serial bypass: no segment, no workers, same kernel.
            if parallel_stats is not None:
                parallel_stats.serial_tasks += 1
            return matrix.count(
                candidate_list,
                taxonomy=state.taxonomy,
                batch_words=self.batch_words,
                stats=cache_stats,
            )
        pool = self._ensure_pool(state.taxonomy, jobs, parallel_stats)
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
        if parallel_stats is not None:
            parallel_stats.shm_batches += len(batches)
            parallel_stats.absorb(pool.drain_stats())
        return counts

    # -- internals -----------------------------------------------------

    def _ensure_matrix(self, state: EngineState, cache_stats):
        """The packed matrix for the bound source, (re)built on change."""
        from ...mining.bitpack import PackedMatrix

        source = state.transactions
        token_fn = getattr(source, "cache_token", None)
        token = token_fn() if token_fn is not None else source
        if self._matrix is not None and (
            token is self._token or token == self._token
        ):
            if cache_stats is not None:
                cache_stats.hits += 1
            return self._matrix
        if hasattr(source, "physical_scan"):
            rows = list(source.physical_scan())
        elif hasattr(source, "scan"):  # pragma: no cover — odd database
            rows = list(source.scan())
        elif isinstance(source, (list, tuple)):
            rows = source
        else:
            rows = list(source)
        mutated = self._matrix is not None
        with obs.span("parallel.shm.pack") as span:
            matrix = PackedMatrix.from_rows(rows)
            span.annotate("rows", matrix.n_rows)
        if cache_stats is not None:
            cache_stats.misses += 1
            if mutated:
                cache_stats.invalidations += 1
        self._matrix = matrix
        self._token = token
        self._fingerprint += 1
        self._dirty = True
        return matrix

    def _ensure_pool(self, taxonomy, jobs: int, parallel_stats):
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
            if parallel_stats is not None:
                parallel_stats.shm_publishes += 1
                parallel_stats.shm_bytes = max(
                    parallel_stats.shm_bytes, shared.nbytes
                )
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
        return (self._shared.handle, taxonomy, self.batch_words)

    def _count_batch_local(self, payload):
        """Parent-side serial fallback: one batch, driver matrix."""
        batch, _observe = payload
        counts = self._matrix.count(
            batch,
            taxonomy=self._pool_taxonomy,
            batch_words=self.batch_words,
        )
        return [counts[candidate] for candidate in batch], None
