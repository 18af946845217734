"""Parallel execution: shared-memory counting over persistent workers.

The 1998 paper is a single-machine algorithm whose cost model is *passes
over a large database*. Support counting parallelizes without changing
any semantics (an engineering substitution, documented in DESIGN.md §5
and §11): the ``"parallel-shm"`` engine publishes the database once and
splits each pass's *candidates* across workers.

* :mod:`~repro.parallel.pool` — a crash-safe persistent worker pool
  (:class:`~repro.parallel.pool.PersistentWorkerPool`) with per-task
  timeouts, bounded retry with backoff, and serial fallback; plus the
  :class:`~repro.parallel.pool.ParallelStats` accumulator.
* :mod:`~repro.parallel.shm` — zero-copy publication of the bit-packed
  word matrix through ``multiprocessing.shared_memory``, with explicit
  create/attach/close/unlink lifecycle and leak safety nets.

Entry points: ``engine="parallel-shm", n_jobs=4`` for
:func:`repro.mine_negative_rules`, or ``--jobs 4`` on the CLI (which
selects ``parallel-shm`` when no ``--engine`` is given).
"""

from .pool import (
    ParallelStats,
    PersistentWorkerPool,
    PoolConfig,
    PoolStats,
    resolve_n_jobs,
)
from .shm import SegmentHandle, SharedPackedMatrix, live_segments

__all__ = [
    "ParallelStats",
    "PersistentWorkerPool",
    "PoolConfig",
    "PoolStats",
    "resolve_n_jobs",
    "SegmentHandle",
    "SharedPackedMatrix",
    "live_segments",
]
