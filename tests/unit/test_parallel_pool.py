"""Unit tests for the worker pool: configuration, retries, fallback.

The injected failure tasks misbehave *only inside a worker process*
(detected via ``multiprocessing.parent_process()``), so the pool's
parent fallback can be told apart from a worker result without ever
hanging the suite. Setup, re-publish and ordering edges are exercised
in ``test_parallel_shm.py::TestPersistentWorkerPool``.
"""

import multiprocessing
import os
import time

import pytest

from repro.errors import ConfigError
from repro.parallel.pool import (
    PersistentWorkerPool,
    PoolConfig,
    resolve_n_jobs,
)


def _setup(payload):
    return payload


def _square(state, value):
    return value * value


def _fallback(payload):
    return ("fallback", payload)


def _flaky(state, payload):
    """Crash until *fails* attempts are on record in the counter file."""
    path, fails = payload
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("x")
    with open(path, encoding="utf-8") as handle:
        attempts = len(handle.read())
    if attempts <= fails and multiprocessing.parent_process() is not None:
        os._exit(1)
    return "ok"


def _hang(state, payload):
    if multiprocessing.parent_process() is not None:
        time.sleep(60)
    return ("parent", payload)


def _hang_once(state, payload):
    """Hang on the first attempt only; the retry returns."""
    sentinel = payload
    if not os.path.exists(sentinel):
        open(sentinel, "w").close()
        time.sleep(60)
    return "ok"


def make_pool(func=_square, n_jobs=2, **config):
    config.setdefault("backoff", 0.0)
    return PersistentWorkerPool(
        PoolConfig(n_jobs=n_jobs, **config),
        setup_func=_setup,
        setup_payload=None,
        func=func,
        fallback=_fallback,
    )


class TestConfig:
    def test_defaults_are_serial(self):
        assert PoolConfig().n_jobs == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_jobs": 0},
            {"timeout": 0.0},
            {"timeout": -1},
            {"retries": -1},
            {"backoff": -0.1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            PoolConfig(**kwargs)

    def test_resolve_n_jobs(self):
        assert resolve_n_jobs(3) == 3
        assert resolve_n_jobs(None) >= 1
        with pytest.raises(ConfigError):
            resolve_n_jobs(0)


class TestSerialMode:
    def test_runs_in_parent_in_order(self):
        pool = make_pool(n_jobs=1)
        try:
            assert pool.map([1, 2, 3]) == [
                ("fallback", 1), ("fallback", 2), ("fallback", 3),
            ]
            assert pool.stats.serial_tasks == 3
            assert pool.stats.workers_launched == 0
        finally:
            pool.close()


class TestParallelMode:
    def test_flaky_worker_succeeds_on_retry_without_fallback(self, tmp_path):
        counter = str(tmp_path / "attempts")
        pool = make_pool(func=_flaky, retries=3)
        try:
            assert pool.map([(counter, 2)]) == ["ok"]
            assert pool.stats.retries >= 1
            assert pool.stats.fallbacks == 0
        finally:
            pool.close()

    def test_timeout_kills_worker_and_falls_back(self):
        pool = make_pool(func=_hang, timeout=0.5, retries=0)
        try:
            start = time.monotonic()
            assert pool.map(["t"]) == [("fallback", "t")]
            assert time.monotonic() - start < 30.0  # killed, not joined
            assert pool.stats.timeouts == 1
            assert pool.stats.fallbacks == 1
        finally:
            pool.close()

    def test_timeout_then_retry_succeeds(self, tmp_path):
        # First attempt times out, the retry returns: the pool re-runs
        # the same payload in a worker rather than dropping it.
        sentinel = str(tmp_path / "hung")
        pool = make_pool(func=_hang_once, timeout=1.0, retries=1)
        try:
            assert pool.map([sentinel]) == ["ok"]
            assert pool.stats.timeouts == 1
            assert pool.stats.retries == 1
            assert pool.stats.fallbacks == 0
        finally:
            pool.close()

    def test_stats_accumulate_across_maps(self):
        pool = make_pool()
        try:
            assert pool.map([1]) == [1]
            launched = pool.stats.workers_launched
            assert pool.map([2]) == [4]
            assert pool.stats.tasks == 2
            assert pool.stats.workers_launched == launched
            assert pool.stats.fallbacks == 0
        finally:
            pool.close()
