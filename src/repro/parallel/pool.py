"""Persistent worker pool with per-task timeouts, retries and serial fallback.

:class:`PersistentWorkerPool` is the execution substrate of the
``"parallel-shm"`` engine. It deliberately does **not** reuse
:class:`multiprocessing.Pool` / ``concurrent.futures``: both lose track of
tasks when a worker dies abruptly (a killed child can hang a pending
``get()`` forever), and the whole point of this pool is that a crashed or
wedged worker degrades to a retry and finally to in-process serial
execution rather than a hang.

Design: ``n_jobs`` long-lived processes, each set up once (attach a
shared-memory segment) and then fed tasks over its own duplex pipe. Pipe
EOF detects a crash exactly, ``terminate()`` enforces a timeout exactly,
and a fresh worker is spawned in place of a lost one.

Failure ladder per task::

    attempt 1 .. 1 + retries   (each failure sleeps backoff * attempt)
    -> serial fallback         (the task runs in the parent process)

The serial fallback re-raises whatever the task raises — a
deterministically failing task therefore surfaces its real exception to
the caller instead of a wrapped pool error.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from multiprocessing.connection import wait as _connection_wait

from .._util import check_nonnegative, check_positive
from ..errors import ConfigError
from ..obs import api as _obs
from ..obs.registry import MetricsRegistry, stats_property


def resolve_n_jobs(n_jobs: int | None) -> int:
    """Normalize an ``n_jobs`` request: ``None`` means one per CPU."""
    if n_jobs is None:
        return max(1, os.cpu_count() or 1)
    return check_positive(n_jobs, "n_jobs")


@dataclass(frozen=True, slots=True)
class PoolConfig:
    """Tunables of one :class:`PersistentWorkerPool`.

    Attributes
    ----------
    n_jobs:
        Maximum concurrent worker processes. ``1`` disables
        multiprocessing entirely: tasks run serially in the parent.
    timeout:
        Per-attempt wall-clock budget in seconds; ``None`` = unbounded.
        A timed-out worker is terminated and the task retried.
    retries:
        Re-attempts after the first failed attempt, before the serial
        fallback.
    backoff:
        Base sleep between attempts; attempt ``k`` sleeps ``backoff * k``.
    start_method:
        ``multiprocessing`` start method (``"fork"``, ``"spawn"``,
        ``"forkserver"``); ``None`` = platform default.
    """

    n_jobs: int = 1
    timeout: float | None = None
    retries: int = 1
    backoff: float = 0.05
    start_method: str | None = None

    def __post_init__(self) -> None:
        check_positive(self.n_jobs, "n_jobs")
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(
                f"timeout must be positive or None, got {self.timeout!r}"
            )
        check_nonnegative(self.retries, "retries")
        check_nonnegative(self.backoff, "backoff")


@dataclass(slots=True)
class PoolStats:
    """Observable accounting of one pool's lifetime.

    Attributes
    ----------
    tasks:
        Tasks submitted via :meth:`PersistentWorkerPool.map`.
    workers_launched:
        Worker processes started (first spawns and respawns).
    retries:
        Failed attempts that were re-queued.
    timeouts:
        Attempts killed for exceeding the per-task timeout.
    crashes:
        Attempts whose worker died without reporting a result.
    errors:
        Attempts whose worker raised an exception.
    serial_tasks:
        Tasks run in the parent because ``n_jobs == 1``.
    fallbacks:
        Tasks run in the parent after exhausting retries (or because
        worker processes could not be created at all).
    """

    tasks: int = 0
    workers_launched: int = 0
    retries: int = 0
    timeouts: int = 0
    crashes: int = 0
    errors: int = 0
    serial_tasks: int = 0
    fallbacks: int = 0


class ParallelStats:
    """Accumulated worker accounting across parallel counting passes.

    One instance is typically threaded through a whole mining run (see
    ``MiningConfig.n_jobs``) and absorbs the pool statistics of every
    ``parallel-shm`` pass. Since the observability layer (DESIGN.md §8)
    every field is a view over a
    :class:`~repro.obs.registry.MetricsRegistry` under ``parallel.*``
    metric names — by default a private registry (the classic
    standalone-accumulator behavior); pass ``registry=`` to record into
    a shared one and ``prefix=`` to namespace the metrics.
    """

    #: field name -> registry counter name
    _FIELDS = {
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
        """Fold one pool's statistics into this accumulator."""
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


def _persistent_child(setup_func, setup_payload, func, connection) -> None:
    """Long-lived worker loop: set up once, then serve tasks until told.

    Protocol over the duplex pipe (child's view)::

        recv ("task", payload)   -> send ("ok", result) | ("error", msg)
        recv ("setup", payload)  -> send ("ready", seconds) | ("error", msg)
        recv ("stop",) / EOF     -> clean up state, exit

    A *setup* failure is fatal to the worker (it has no valid state to
    serve from): it reports the error and exits, and the parent's
    respawn budget decides what happens next. A *task* failure is not —
    the worker's state is still good, so it reports and keeps serving.
    """
    # A forked child inherits the parent's observability state, including
    # open trace-file handles it must never write to or close; start
    # clean. Tasks that should measure open their own worker-scope
    # collection and ship the registry back in their result.
    _obs.detach()
    state = None
    try:
        try:
            start = time.perf_counter()
            state = setup_func(setup_payload)
            connection.send(("ready", time.perf_counter() - start))
        except BaseException as exc:  # noqa: BLE001 — report, then die
            connection.send(("error", f"{type(exc).__name__}: {exc}"))
            return
        while True:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "stop":
                return
            if kind == "setup":
                old, state = state, None
                if old is not None and hasattr(old, "close"):
                    old.close()
                try:
                    start = time.perf_counter()
                    state = setup_func(message[1])
                    connection.send(
                        ("ready", time.perf_counter() - start)
                    )
                except BaseException as exc:  # noqa: BLE001
                    connection.send(
                        ("error", f"{type(exc).__name__}: {exc}")
                    )
                    return
                continue
            try:
                result = func(state, message[1])
            except BaseException as exc:  # noqa: BLE001
                connection.send(("error", f"{type(exc).__name__}: {exc}"))
                continue
            connection.send(("ok", result))
    finally:
        if state is not None and hasattr(state, "close"):
            state.close()
        try:
            connection.close()
        except OSError:  # pragma: no cover
            pass


class _PersistentTask:
    __slots__ = ("index", "payload", "attempts")

    def __init__(self, index: int, payload) -> None:
        self.index = index
        self.payload = payload
        self.attempts = 0


class _PersistentWorker:
    __slots__ = ("process", "connection", "task", "expecting", "deadline")

    def __init__(self, process, connection) -> None:
        self.process = process
        self.connection = connection
        self.task: _PersistentTask | None = None
        #: What the parent awaits from this worker: ``"ready"`` after a
        #: spawn or setup send, ``"result"`` after a task send, ``None``
        #: when idle and attached.
        self.expecting: str | None = "ready"
        self.deadline: float | None = None


class PersistentWorkerPool:
    """Long-lived workers sharing per-worker state across many maps.

    ``n_jobs`` workers run *setup_func(setup_payload)* once (e.g. attach a
    shared-memory segment), then serve ``func(state, payload)`` tasks
    over the same pipes until :meth:`close`. :meth:`reconfigure` points
    every worker at a new setup payload (segment re-publish) without
    restarting processes.

    The failure ladder in detail: a timed-out attempt is terminated
    and retried, a crashed worker is respawned and the task retried, and a task that exhausts
    ``config.retries`` runs through *fallback* in the parent. Setup
    failures have their own budget — ``config.retries + 1`` consecutive
    failed attachments mark the pool broken, after which every task goes
    straight to the parent fallback instead of spinning up doomed
    workers forever.

    *setup_func* / *func* must be picklable under the chosen start
    method (top-level functions); *fallback* stays in the parent and may
    be any callable of one payload.
    """

    def __init__(
        self,
        config: PoolConfig,
        setup_func: Callable,
        setup_payload,
        func: Callable,
        fallback: Callable,
    ) -> None:
        self.config = config
        self.stats = PoolStats()
        self._setup_func = setup_func
        self._setup_payload = setup_payload
        self._func = func
        self._fallback = fallback
        self._context = multiprocessing.get_context(config.start_method)
        self._workers: list[_PersistentWorker] = []
        self._setup_failures = 0
        self._broken = False
        self._attach_seconds: list[float] = []
        self._closed = False

    # -- public surface ------------------------------------------------

    def map(self, payloads: Iterable) -> list:
        """Run every payload through a worker; results in order.

        Serial when ``n_jobs == 1`` (the parent fallback runs every
        payload — no worker processes, no shared state).
        """
        items: Sequence = list(payloads)
        results: list = [None] * len(items)
        self.stats.tasks += len(items)
        if not items:
            return results
        if self.config.n_jobs == 1 or self._closed:
            for index, payload in enumerate(items):
                results[index] = self._fallback(payload)
                self.stats.serial_tasks += 1
            return results
        self._run(items, results)
        return results

    def reconfigure(self, setup_payload) -> None:
        """Point every worker at a new setup payload (re-publish).

        Live idle workers get a ``setup`` message and re-attach in
        place; workers are never restarted for this. The new payload
        also seeds any worker spawned later. A broken pool un-breaks:
        the new segment may well be attachable.
        """
        self._setup_payload = setup_payload
        self._broken = False
        self._setup_failures = 0
        for worker in list(self._workers):
            try:
                worker.connection.send(("setup", setup_payload))
            except (OSError, ValueError):
                self._discard(worker)
                continue
            worker.expecting = "ready"
            worker.deadline = self._deadline()

    def drain_stats(self) -> PoolStats:
        """Return and reset the accumulated stats (per-pass absorb)."""
        stats, self.stats = self.stats, PoolStats()
        return stats

    def drain_attach_seconds(self) -> list[float]:
        """Return and reset the attach wall times workers reported."""
        seconds, self._attach_seconds = self._attach_seconds, []
        return seconds

    def close(self) -> None:
        """Stop every worker and release their pipes (idempotent)."""
        self._closed = True
        for worker in self._workers:
            try:
                worker.connection.send(("stop",))
            except (OSError, ValueError):
                pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover — stubborn
                worker.process.kill()
                worker.process.join()
            worker.connection.close()
        self._workers = []

    @property
    def alive_workers(self) -> int:
        """Workers currently running (spawned and not yet discarded)."""
        return sum(
            1 for worker in self._workers if worker.process.is_alive()
        )

    # -- scheduler -----------------------------------------------------

    def _run(self, items: Sequence, results: list) -> None:
        pending: deque[_PersistentTask] = deque(
            _PersistentTask(index, payload)
            for index, payload in enumerate(items)
        )
        while pending or self._in_flight():
            if self._broken:
                while pending:
                    task = pending.popleft()
                    results[task.index] = self._fallback(task.payload)
                    self.stats.fallbacks += 1
            else:
                self._spawn_missing(len(pending))
                self._assign(pending, results)
            expecting = [
                worker
                for worker in self._workers
                if worker.expecting is not None
            ]
            if not expecting:
                stranded = [
                    worker
                    for worker in self._workers
                    if worker.task is not None
                ]
                if stranded:
                    # Backstop: a worker holds a task but fell out of the
                    # wait set (should not happen — see the stale-ready
                    # guard in ``_service``).  Re-arm it rather than spin.
                    for worker in stranded:
                        worker.expecting = "result"
                    continue
                if pending and not self._workers:
                    # Nothing could be spawned at all: finish in-parent.
                    task = pending.popleft()
                    results[task.index] = self._fallback(task.payload)
                    self.stats.fallbacks += 1
                continue
            by_connection = {
                worker.connection: worker for worker in expecting
            }
            timeout = self._wait_timeout(expecting)
            for connection in _connection_wait(
                list(by_connection), timeout
            ):
                self._service(
                    by_connection[connection], pending, results
                )
            self._reap_timeouts(pending, results)

    def _in_flight(self) -> bool:
        return any(worker.task is not None for worker in self._workers)

    def _deadline(self) -> float | None:
        if self.config.timeout is None:
            return None
        return time.monotonic() + self.config.timeout

    def _wait_timeout(self, workers: list) -> float | None:
        deadlines = [
            worker.deadline
            for worker in workers
            if worker.deadline is not None
        ]
        if not deadlines:
            return None
        return max(0.0, min(deadlines) - time.monotonic())

    def _spawn_missing(self, pending_count: int) -> None:
        busy = sum(
            1 for worker in self._workers if worker.task is not None
        )
        target = min(self.config.n_jobs, busy + pending_count)
        while len(self._workers) < target:
            parent_end, child_end = self._context.Pipe(duplex=True)
            process = self._context.Process(
                target=_persistent_child,
                args=(
                    self._setup_func,
                    self._setup_payload,
                    self._func,
                    child_end,
                ),
                daemon=True,
            )
            try:
                process.start()
            except OSError:
                parent_end.close()
                child_end.close()
                self._broken = True
                return
            child_end.close()
            self.stats.workers_launched += 1
            worker = _PersistentWorker(process, parent_end)
            worker.deadline = self._deadline()
            self._workers.append(worker)

    def _assign(self, pending: deque, results: list) -> None:
        for worker in list(self._workers):
            if not pending:
                return
            if worker.task is not None or worker.expecting is not None:
                continue
            task = pending.popleft()
            task.attempts += 1
            try:
                worker.connection.send(("task", task.payload))
            except (OSError, ValueError):
                self.stats.crashes += 1
                self._discard(worker)
                self._retry_or_fallback(task, pending, results)
                continue
            worker.task = task
            worker.expecting = "result"
            worker.deadline = self._deadline()

    def _service(
        self, worker: _PersistentWorker, pending: deque, results: list
    ) -> None:
        try:
            message = worker.connection.recv()
        except (EOFError, OSError):
            self._on_death(worker, pending, results)
            return
        kind = message[0]
        if kind == "ready":
            self._setup_failures = 0
            self._attach_seconds.append(message[1])
            if worker.task is None:
                worker.expecting = None
                worker.deadline = None
            # Otherwise this is a stale "ready": a map() can return while
            # a worker's attach reply is still unread (the scheduler only
            # waits for its own tasks), and a later reconfigure() queues a
            # second setup behind it.  Once the worker has been handed a
            # task it still owes a result, so it must stay in the wait
            # set — clearing ``expecting`` here would drop it while its
            # reply sits unread, and the scheduler would spin forever on
            # ``_in_flight()``.
            return
        if kind == "ok":
            task = worker.task
            worker.task = None
            worker.expecting = None
            worker.deadline = None
            results[task.index] = message[1]
            return
        # kind == "error"
        if worker.task is not None:
            self.stats.errors += 1
            task = worker.task
            worker.task = None
            worker.expecting = None
            worker.deadline = None
            self._retry_or_fallback(task, pending, results)
            return
        # Setup failed; the child exits right after reporting.
        self._discard(worker)
        self._note_setup_failure()

    def _on_death(
        self, worker: _PersistentWorker, pending: deque, results: list
    ) -> None:
        task = worker.task
        expecting = worker.expecting
        self._discard(worker)
        if task is not None:
            self.stats.crashes += 1
            self._retry_or_fallback(task, pending, results)
        elif expecting == "ready":
            self._note_setup_failure()

    def _reap_timeouts(self, pending: deque, results: list) -> None:
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.deadline is None or now < worker.deadline:
                continue
            self.stats.timeouts += 1
            task = worker.task
            expecting = worker.expecting
            self._discard(worker)
            if task is not None:
                self._retry_or_fallback(task, pending, results)
            elif expecting == "ready":
                self._note_setup_failure()

    def _retry_or_fallback(
        self, task: _PersistentTask, pending: deque, results: list | None
    ) -> None:
        if task.attempts <= self.config.retries:
            self.stats.retries += 1
            if self.config.backoff:
                time.sleep(self.config.backoff * task.attempts)
            pending.append(task)
            return
        self.stats.fallbacks += 1
        if results is not None:
            results[task.index] = self._fallback(task.payload)

    def _note_setup_failure(self) -> None:
        self._setup_failures += 1
        if self._setup_failures > self.config.retries:
            self._broken = True

    def _discard(self, worker: _PersistentWorker) -> None:
        if worker in self._workers:
            self._workers.remove(worker)
        process = worker.process
        if process.is_alive():
            process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover — stubborn child
                process.kill()
                process.join()
        else:
            process.join()
        worker.connection.close()
