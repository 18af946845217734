"""One parallel-shm count with spawn-started workers.

Run from the root of a checkout::

    PYTHONPATH=src python .github/scripts/spawn_shm_smoke.py

Spawned workers re-import the parent's ``__main__``, so this runs from a
file (a script fed on stdin cannot be re-imported and every batch would
fall back to the parent). Fails unless both workers launched, no batch
fell back to the parent, the counts equal the brute-force oracle's and
no shared-memory segment outlives the engine.
"""

from repro.mining.engines import create_engine
from repro.mining.engines.parallel import ParallelShmEngine
from repro.parallel.pool import ParallelStats, PoolConfig
from repro.parallel.shm import live_segments


def main() -> None:
    rows = [(1, 2, 3), (2, 3), (1, 3), (3,), (1, 2)] * 40
    candidates = [(1,), (2, 3), (1, 2, 3)]
    stats = ParallelStats()
    engine = ParallelShmEngine(
        n_jobs=2,
        pool_config=PoolConfig(n_jobs=2, start_method="spawn"),
    )
    try:
        state = engine.prepare(rows, None)
        counts = engine.count(state, candidates, parallel_stats=stats)
        oracle = create_engine("brute")
        expected = oracle.count(oracle.prepare(rows, None), candidates)
        assert counts == expected, (counts, expected)
    finally:
        engine.close()
    assert stats.workers_launched == 2, stats
    assert stats.worker_fallbacks == 0, stats
    assert stats.worker_retries == 0, stats
    assert not live_segments(), live_segments()
    print("spawn shm smoke ok:", counts, stats)


if __name__ == "__main__":
    main()
