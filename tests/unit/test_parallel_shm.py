"""Unit tests for shared-memory counting: segment, pool, and engine.

Covers the lifecycle edges the zero-copy design leans on: an owner that
exits without cleanup never leaks a ``/dev/shm`` name (atexit unlink), a
worker killed mid-batch is respawned and its task retried, a mutated
database triggers a re-publish under a fresh segment name, and
``n_jobs=1`` bypasses shared memory entirely. The injected failures
misbehave *only inside a worker process* (sentinel files /
``multiprocessing.parent_process()``), so the parent-side fallbacks can
be observed succeeding without hanging the suite.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import repro
from repro.core.api import MiningConfig, mine_negative_rules
from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.mining.bitpack import PackedMatrix
from repro.mining.engines.parallel import ParallelShmEngine
from repro.parallel import shm
from repro.obs.registry import MetricsRegistry
from repro.parallel.pool import (
    PersistentWorkerPool,
    PoolConfig,
)
from repro.parallel.shm import (
    SharedPackedMatrix,
    live_segments,
    shm_worker_count,
    shm_worker_setup,
)
from repro.taxonomy.builders import taxonomy_from_parents

ROWS = [(1, 2, 3), (2, 3), (1, 3), (3,), (1, 2), (4,), (1, 4)] * 3
CANDIDATES = [(1,), (2, 3), (1, 2, 3), (4,), (1, 3)]


def expected_counts(rows=ROWS, candidates=CANDIDATES, taxonomy=None):
    return MiningSession(list(rows), taxonomy, "brute").count(candidates)


def fresh_engine(n_jobs=2, **pool_kwargs):
    config = PoolConfig(n_jobs=n_jobs, backoff=0.0, **pool_kwargs)
    return ParallelShmEngine(n_jobs=n_jobs, pool_config=config)


# ----------------------------------------------------------------------
# Segment lifecycle
# ----------------------------------------------------------------------

class TestSharedPackedMatrix:
    def test_create_attach_roundtrip_counts_bit_identical(self):
        matrix = PackedMatrix.from_rows(ROWS)
        owner = SharedPackedMatrix.create(matrix, fingerprint=7)
        try:
            assert owner.handle.name in live_segments()
            assert owner.handle.fingerprint == 7
            attached = SharedPackedMatrix.attach(owner.handle)
            try:
                assert (
                    attached.matrix.count(CANDIDATES)
                    == matrix.count(CANDIDATES)
                    == expected_counts()
                )
            finally:
                attached.close()
        finally:
            owner.close()
            owner.unlink()
        assert owner.handle.name not in live_segments()

    def test_unlink_while_attached_keeps_mapping_alive(self):
        """POSIX semantics the re-publish path relies on: the name dies
        immediately, the pages live until the last detach."""
        matrix = PackedMatrix.from_rows(ROWS)
        owner = SharedPackedMatrix.create(matrix)
        attached = SharedPackedMatrix.attach(owner.handle)
        owner.close()
        owner.unlink()
        assert owner.handle.name not in live_segments()
        try:
            assert attached.matrix.count(CANDIDATES) == expected_counts()
        finally:
            attached.close()

    def test_owner_exit_without_cleanup_unlinks_via_atexit(self):
        """An owner interpreter that exits without close/unlink leaves no
        stale ``/dev/shm`` entry behind (the module's atexit hook)."""
        script = (
            "from repro.mining.bitpack import PackedMatrix\n"
            "from repro.parallel.shm import SharedPackedMatrix\n"
            "matrix = PackedMatrix.from_rows([(1, 2), (2, 3)])\n"
            "shared = SharedPackedMatrix.create(matrix)\n"
            "print(shared.handle.name)\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        name = done.stdout.strip()
        assert name.startswith(shm.SEGMENT_PREFIX)
        assert name not in live_segments()

    def test_close_is_idempotent_and_unlink_tolerates_missing(self):
        owner = SharedPackedMatrix.create(PackedMatrix.from_rows(ROWS))
        owner.close()
        owner.close()
        owner.unlink()
        owner.unlink()

    def test_worker_protocol_functions_roundtrip(self):
        owner = SharedPackedMatrix.create(PackedMatrix.from_rows(ROWS))
        try:
            state = shm_worker_setup((owner.handle, None))
            vector, registry = shm_worker_count(
                state, (CANDIDATES, False)
            )
            state.close()
            assert registry is None
            assert dict(zip(CANDIDATES, vector)) == expected_counts()
        finally:
            owner.close()
            owner.unlink()


# ----------------------------------------------------------------------
# Persistent pool failure ladder
# ----------------------------------------------------------------------

def _echo_setup(payload):
    if payload == "bad":
        raise RuntimeError("segment gone")
    return payload


def _echo_task(state, payload):
    return (state, payload * 2)


def _crash_once_task(state, payload):
    sentinel, value = payload
    in_worker = multiprocessing.parent_process() is not None
    if in_worker and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return value * 2


def _hang_task(state, payload):
    if multiprocessing.parent_process() is not None:
        time.sleep(60)
    return ("parent", payload)


def _crash_task(state, payload):
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return ("parent", payload)


def _raise_task(state, payload):
    raise ValueError(f"boom {payload}")


def _fallback(payload):
    return ("fallback", payload)


class TestPersistentWorkerPool:
    def make(
        self, setup="base", func=_echo_task, fallback=_fallback, n_jobs=2,
        **config,
    ):
        config.setdefault("backoff", 0.0)
        return PersistentWorkerPool(
            PoolConfig(n_jobs=n_jobs, **config),
            setup_func=_echo_setup,
            setup_payload=setup,
            func=func,
            fallback=fallback,
        )

    def test_results_in_submission_order(self):
        # More payloads than workers: completion order varies, result
        # order must not.
        pool = self.make()
        try:
            assert pool.map(list(range(7))) == [
                ("base", value * 2) for value in range(7)
            ]
            stats = pool.drain_stats()
            assert stats.tasks == 7
            assert stats.workers_launched == 2
            assert stats.fallbacks == 0
        finally:
            pool.close()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_empty_payloads(self, n_jobs):
        pool = self.make(n_jobs=n_jobs)
        try:
            assert pool.map([]) == []
            assert pool.stats.workers_launched == 0
        finally:
            pool.close()

    @pytest.mark.parametrize(
        "retries, crashes", [(0, 1), (1, 2)]
    )
    def test_crash_retries_then_fallback(
        self, retries, crashes
    ):
        # retries=0 goes straight to the parent fallback after the
        # first crash; each retry costs one more crash and a respawn.
        pool = self.make(func=_crash_task, retries=retries)
        try:
            assert pool.map(["a"]) == [("fallback", "a")]
            assert pool.stats.crashes == crashes
            assert pool.stats.retries == retries
            assert pool.stats.fallbacks == 1
        finally:
            pool.close()

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_error_counted_fallback_reraises(self, n_jobs):
        # The parent fallback runs the same failing work, so a
        # deterministic error surfaces as itself, not as a pool error.
        def failing_fallback(payload):
            raise ValueError(f"boom {payload}")

        pool = self.make(
            func=_raise_task, fallback=failing_fallback, n_jobs=n_jobs,
            retries=0,
        )
        try:
            with pytest.raises(ValueError, match="boom 7"):
                pool.map([7])
            assert pool.stats.errors == (1 if n_jobs > 1 else 0)
        finally:
            pool.close()

    def test_workers_persist_across_maps(self):
        pool = self.make()
        try:
            assert pool.map([1, 2, 3]) == [
                ("base", 2), ("base", 4), ("base", 6),
            ]
            assert pool.map([4]) == [("base", 8)]
            stats = pool.drain_stats()
            assert stats.workers_launched == 2  # spawned once, reused
            assert stats.tasks == 4
            assert pool.alive_workers == 2
        finally:
            pool.close()
        assert pool.alive_workers == 0

    def test_n_jobs_1_runs_fallback_in_parent(self):
        pool = PersistentWorkerPool(
            PoolConfig(n_jobs=1),
            setup_func=_echo_setup,
            setup_payload="base",
            func=_echo_task,
            fallback=_fallback,
        )
        assert pool.map(["x"]) == [("fallback", "x")]
        assert pool.stats.serial_tasks == 1
        assert pool.stats.workers_launched == 0

    def test_killed_worker_respawns_and_retries(self, tmp_path):
        sentinel = str(tmp_path / "crashed")
        pool = self.make(func=_crash_once_task, retries=2)
        try:
            payloads = [(sentinel, value) for value in (1, 2, 3)]
            assert pool.map(payloads) == [2, 4, 6]
            stats = pool.drain_stats()
            assert stats.crashes >= 1
            assert stats.retries >= 1
            assert stats.fallbacks == 0
        finally:
            pool.close()

    def test_timeout_terminates_then_falls_back(self):
        pool = self.make(func=_hang_task, timeout=0.5, retries=0)
        try:
            start = time.monotonic()
            assert pool.map(["t"]) == [("fallback", "t")]
            assert time.monotonic() - start < 30.0
            assert pool.stats.timeouts == 1
            assert pool.stats.fallbacks == 1
        finally:
            pool.close()

    def test_setup_failure_budget_breaks_pool(self):
        pool = self.make(setup="bad", retries=1)
        try:
            assert pool.map([1, 2, 3]) == [
                ("fallback", 1), ("fallback", 2), ("fallback", 3),
            ]
            assert pool._broken
            assert pool.stats.fallbacks == 3
            assert pool.alive_workers == 0
        finally:
            pool.close()

    def test_reconfigure_unbreaks_a_broken_pool(self):
        pool = self.make(setup="bad", retries=0)
        try:
            pool.map([1])
            assert pool._broken
            pool.reconfigure("good")
            assert not pool._broken
            assert pool.map([5]) == [("good", 10)]
            assert pool.stats.fallbacks == 1  # only the broken-era task
        finally:
            pool.close()

    def test_map_after_close_falls_back(self):
        pool = self.make()
        pool.map([1])
        pool.close()
        assert pool.map([9]) == [("fallback", 9)]

    def test_stale_ready_keeps_result_expectation(self):
        # A map() can return while a worker's "ready" reply is still
        # unread; a later reconfigure() queues a second setup behind it.
        # When that stale "ready" is finally serviced after the worker
        # has been handed a task, the worker must stay in the wait set —
        # clearing ``expecting`` here livelocked the scheduler (spinning
        # on ``_in_flight()`` with an empty wait set).
        from collections import deque

        from repro.parallel.pool import _PersistentTask, _PersistentWorker

        class _StubConnection:
            def recv(self):
                return ("ready", 0.01)

        pool = self.make()
        try:
            worker = _PersistentWorker(object(), _StubConnection())
            worker.task = _PersistentTask(0, "payload")
            worker.expecting = "result"
            worker.deadline = 123.0
            pool._service(worker, deque(), [None])
            assert worker.expecting == "result"
            assert worker.task is not None
            assert worker.deadline == 123.0
            assert pool.drain_attach_seconds() == [0.01]
        finally:
            pool.close()

    def test_reconfigure_map_cycles_do_not_livelock(self):
        # Single-payload maps leave one worker's "ready" unread; the
        # repeated reconfigure/map cycle stacks stale readies exactly
        # like the property tests' per-example re-publish loop does.
        pool = self.make()
        try:
            assert pool.map([1, 2]) == [("base", 2), ("base", 4)]
            for round_ in range(25):
                payload = f"gen{round_}"
                pool.reconfigure(payload)
                assert pool.map([round_]) == [(payload, round_ * 2)]
            assert pool.drain_stats().fallbacks == 0
        finally:
            pool.close()


# ----------------------------------------------------------------------
# Engine lifecycle
# ----------------------------------------------------------------------

class TestParallelShmEngine:
    def test_counts_match_brute_flat(self):
        engine = fresh_engine()
        try:
            state = engine.prepare(list(ROWS), None)
            counts = engine.count(
                state, CANDIDATES, metrics=MetricsRegistry()
            )
            assert counts == expected_counts()
            assert live_segments()  # published while the engine lives
        finally:
            engine.close()
        assert not live_segments()

    def test_counts_match_brute_with_taxonomy(self):
        taxonomy = taxonomy_from_parents({1: 0, 2: 0, 3: 10, 4: 10})
        candidates = [(0,), (10,), (0, 10), (1, 10)]
        engine = fresh_engine()
        try:
            state = engine.prepare(list(ROWS), taxonomy)
            counts = engine.count(
                state, candidates, metrics=MetricsRegistry()
            )
            assert counts == expected_counts(
                candidates=candidates, taxonomy=taxonomy
            )
        finally:
            engine.close()

    def test_session_reuses_matrix_pool_and_segment(self):
        session = MiningSession(
            TransactionDatabase(ROWS), engine="parallel-shm", n_jobs=2
        )
        try:
            first = session.count(CANDIDATES)
            second = session.count(CANDIDATES)
            assert first == second == expected_counts()
            metrics = session.run_metrics
            assert metrics.counter("parallel.shm.publishes") == 1
            assert metrics.counter("parallel.shm.batches") >= 2
            assert metrics.counter("cache.hits") >= 1  # matrix reused
            assert metrics.counter("parallel.workers_launched") == 2
            assert metrics.gauge("parallel.shm.bytes") > 0
        finally:
            session.engine.close()

    def test_mutated_database_fingerprint_triggers_republish(self):
        engine = fresh_engine()
        try:
            first_db = TransactionDatabase(ROWS)
            engine.count(
                engine.prepare(first_db, None), CANDIDATES,
                metrics=MetricsRegistry(),
            )
            first_name = engine._shared.handle.name
            assert engine._shared.handle.fingerprint == 1

            mutated = TransactionDatabase(list(ROWS) + [(1, 2, 3, 4)])
            counts = engine.count(
                engine.prepare(mutated, None), CANDIDATES,
                metrics=MetricsRegistry(),
            )
            assert counts == expected_counts(rows=mutated)
            assert engine._shared.handle.fingerprint == 2
            assert engine._shared.handle.name != first_name
            assert first_name not in live_segments()  # old name dropped
        finally:
            engine.close()

    def test_n_jobs_1_bypasses_shared_memory_entirely(self):
        engine = ParallelShmEngine(n_jobs=1)
        try:
            state = engine.prepare(list(ROWS), None)
            counts = engine.count(
                state, CANDIDATES, metrics=MetricsRegistry()
            )
            assert counts == expected_counts()
            assert engine._shared is None
            assert engine._pool is None
            assert not live_segments()
        finally:
            engine.close()

    def test_worker_killed_mid_batch_retries_no_stale_segments(
        self, tmp_path, monkeypatch
    ):
        sentinel = str(tmp_path / "crashed")
        real_count = shm.shm_worker_count

        def crash_once(state, payload):
            in_worker = multiprocessing.parent_process() is not None
            if in_worker and not os.path.exists(sentinel):
                open(sentinel, "w").close()
                os._exit(1)
            return real_count(state, payload)

        monkeypatch.setattr(shm, "shm_worker_count", crash_once)
        engine = fresh_engine(retries=2)
        try:
            state = engine.prepare(list(ROWS), None)
            metrics = MetricsRegistry()
            counts = engine.count(state, CANDIDATES, metrics=metrics)
            assert counts == expected_counts()
            assert metrics.counter("parallel.worker_crashes") >= 1
            assert metrics.counter("parallel.worker_retries") >= 1
        finally:
            engine.close()
        assert not live_segments()

    def test_spawn_start_method_roundtrip(self):
        engine = fresh_engine(start_method="spawn")
        try:
            state = engine.prepare(list(ROWS), None)
            counts = engine.count(
                state, CANDIDATES, metrics=MetricsRegistry()
            )
            assert counts == expected_counts()
        finally:
            engine.close()
        assert not live_segments()

    def test_shm_engine_mines_identically_end_to_end(self):
        taxonomy = taxonomy_from_parents({1: 0, 2: 0, 3: 10, 4: 10})
        rows = [row for row in ROWS for _ in range(2)]
        config = MiningConfig(minsup=0.2, minri=0.2)
        baseline = mine_negative_rules(rows, taxonomy, config=config)
        shm_run = mine_negative_rules(
            rows,
            taxonomy,
            config=config,
            engine="parallel-shm",
            n_jobs=2,
        )
        assert [r.format() for r in shm_run.rules] == [
            r.format() for r in baseline.rules
        ]
        assert shm_run.stats.data_passes == baseline.stats.data_passes

    @pytest.mark.parametrize("miner", ["improved", "naive"])
    def test_miners_match_serial(
        self, soft_drinks_database, soft_drinks_taxonomy, miner
    ):
        # Both miners, every counting pass on two workers: identical
        # negatives, rules and logical passes.
        settings = dict(minsup=0.1, minri=0.3, miner=miner)
        serial = mine_negative_rules(
            soft_drinks_database, soft_drinks_taxonomy, **settings
        )
        session = MiningSession(
            soft_drinks_database, soft_drinks_taxonomy,
            engine="parallel-shm", n_jobs=2,
        )
        try:
            parallel = mine_negative_rules(
                soft_drinks_database, soft_drinks_taxonomy,
                session=session, **settings,
            )
        finally:
            session.close()
        assert [n.items for n in parallel.negative_itemsets] == [
            n.items for n in serial.negative_itemsets
        ]
        assert parallel.rules == serial.rules
        assert parallel.stats.data_passes == serial.stats.data_passes
        assert parallel.stats.metrics.counter("parallel.worker_tasks") > 0
        assert serial.stats.metrics.counter("parallel.worker_tasks") == 0

    def test_summary_reports_retries(
        self, tmp_path, monkeypatch
    ):
        # A degraded run must say so: the shared-memory summary line
        # carries the retry and fallback counts.
        sentinel = str(tmp_path / "crashed")
        real_count = shm.shm_worker_count

        def crash_once(state, payload):
            in_worker = multiprocessing.parent_process() is not None
            if in_worker and not os.path.exists(sentinel):
                open(sentinel, "w").close()
                os._exit(1)
            return real_count(state, payload)

        monkeypatch.setattr(shm, "shm_worker_count", crash_once)
        taxonomy = taxonomy_from_parents({1: 0, 2: 0, 3: 10, 4: 10})
        database = TransactionDatabase(
            [row for row in ROWS for _ in range(2)]
        )
        # Earlier tests may leave engines for the GC; only this run's
        # segment must be gone.
        before = set(live_segments())
        session = MiningSession(
            database, taxonomy, engine=fresh_engine(retries=2)
        )
        try:
            result = mine_negative_rules(
                database, taxonomy, minsup=0.2, minri=0.2, session=session
            )
        finally:
            session.close()
        retried = result.stats.metrics.counter("parallel.worker_retries")
        assert retried >= 1
        line = next(
            line for line in result.summary(taxonomy).splitlines()
            if line.startswith("shared memory")
        )
        retries = int(line.split("retries ")[1].split(",")[0])
        assert retries == retried
        assert "fallbacks 0" in line
        assert set(live_segments()) <= before
