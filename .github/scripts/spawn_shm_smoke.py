"""One parallel-shm count with spawn-started workers.

Run from the root of a checkout::

    PYTHONPATH=src python .github/scripts/spawn_shm_smoke.py

Spawned workers re-import the parent's ``__main__``, so this runs from a
file (a script fed on stdin cannot be re-imported and every batch would
fall back to the parent). Fails unless both workers launched, no batch
fell back to the parent, the counts equal the brute-force oracle's and
no shared-memory segment outlives the engine.
"""

from repro.mining.engines import count_pass, create_engine
from repro.mining.engines.parallel import ParallelShmEngine
from repro.obs.registry import MetricsRegistry
from repro.parallel.pool import PoolConfig
from repro.parallel.shm import live_segments


def main() -> None:
    rows = [(1, 2, 3), (2, 3), (1, 3), (3,), (1, 2)] * 40
    candidates = [(1,), (2, 3), (1, 2, 3)]
    metrics = MetricsRegistry()
    engine = ParallelShmEngine(
        n_jobs=2,
        pool_config=PoolConfig(n_jobs=2, start_method="spawn"),
    )
    try:
        state = engine.prepare(rows, None)
        counts = count_pass(engine, state, candidates, metrics=metrics)
        oracle = create_engine("brute")
        expected = count_pass(oracle, oracle.prepare(rows, None), candidates)
        assert counts == expected, (counts, expected)
    finally:
        engine.close()
    report = metrics.snapshot()["counters"]
    assert metrics.counter("parallel.workers_launched") == 2, report
    assert metrics.counter("parallel.worker_fallbacks") == 0, report
    assert metrics.counter("parallel.worker_retries") == 0, report
    assert not live_segments(), live_segments()
    print("spawn shm smoke ok:", counts, report)


if __name__ == "__main__":
    main()
