"""Parallel execution engine: sharded counting across worker processes.

The 1998 paper is a single-machine algorithm whose cost model is *passes
over a large database*; its companion Partition algorithm (VLDB 1995) is
embarrassingly parallel by construction — partitions are mined
independently and merged. This subpackage exploits both facts without
changing any semantics (an engineering substitution, documented in
DESIGN.md §5):

* :mod:`~repro.parallel.shards` — split one logical pass into contiguous
  row ranges with cheap pickle transport.
* :mod:`~repro.parallel.pool` — a crash-safe worker-pool executor with
  per-task timeouts, bounded retry with backoff, and serial fallback,
  in two modes: process-per-task (:class:`~repro.parallel.pool.
  WorkerPool`) and persistent workers sharing per-worker state
  (:class:`~repro.parallel.pool.PersistentWorkerPool`).
* :mod:`~repro.parallel.shm` — zero-copy publication of the bit-packed
  word matrix through ``multiprocessing.shared_memory``, with explicit
  create/attach/close/unlink lifecycle and leak safety nets; the
  substrate of the ``"parallel-shm"`` engine (DESIGN.md §11).
* :mod:`~repro.parallel.engine` — the ``"parallel"`` counting engine
  (partial counts summed deterministically; bit-identical to the serial
  engines) and :func:`~repro.parallel.engine.parallel_partition`, the
  one-worker-per-partition Partition driver.

Entry points: pass ``n_jobs=4`` (or ``engine="parallel"``) to
:func:`repro.mine_negative_rules`, ``--jobs 4`` on the CLI, and choose
``engine="parallel-shm"`` (``--engine parallel-shm``) for the
shared-memory kernel.
"""

from .engine import (
    ParallelStats,
    parallel_count_supports,
    parallel_partition,
)
from .pool import (
    PersistentWorkerPool,
    PoolConfig,
    PoolStats,
    WorkerPool,
    resolve_n_jobs,
)
from .shards import Shard, plan_shards, shard_bounds
from .shm import SegmentHandle, SharedPackedMatrix, live_segments

__all__ = [
    "ParallelStats",
    "parallel_count_supports",
    "parallel_partition",
    "PersistentWorkerPool",
    "PoolConfig",
    "PoolStats",
    "WorkerPool",
    "resolve_n_jobs",
    "Shard",
    "plan_shards",
    "shard_bounds",
    "SegmentHandle",
    "SharedPackedMatrix",
    "live_segments",
]
