"""Measurement helpers shared by every workload: statistics, the per-run
outcome record, the traced-run ledger, process accounting and the
host-speed probe."""

from __future__ import annotations

import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values, min_beyond: int = 10):
    """The highest of p99/p90 with at least *min_beyond* samples above
    it, as ``(label, value)``; ``None`` when the sample is too small."""
    ordered = sorted(values)
    for label, q in (("p99", 0.99), ("p90", 0.90)):
        rank = math.ceil(q * len(ordered))
        if rank >= 1 and len(ordered) - rank >= min_beyond:
            return label, ordered[rank - 1]
    return None


@dataclass
class Outcome:
    """What one run measured, before it is reduced to metrics.

    ``op_cpu_ms`` is the CPU time of the program's processes in each
    timed op (one per-request average where ops are too short to time
    one by one); ``child_rss_mb`` the peak RSS of a ``repro serve``
    child. ``layers`` holds the traced run's per-layer metrics and
    ``extra`` the workload's own figures, which are printed but are not
    end-to-end metrics of every workload.
    """

    setup_s: list = field(default_factory=list)
    op_ms: list = field(default_factory=list)
    op_cpu_ms: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    child_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        """Record a failed output check (it makes the run incorrect)."""
        if not ok:
            self.problems.append(problem)


class Ledger:
    """Wall time of the calls into each layer, one dict per op.

    The traced run wraps each call into a layer's public function in
    :meth:`span`; :meth:`close_op` files the op's totals, and
    :meth:`medians` reduces them over the run.
    """

    def __init__(self) -> None:
        self.ops: list[dict] = []
        self._current: dict = {}

    @contextmanager
    def span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            self._current[name] = self._current.get(name, 0.0) + elapsed_ms

    def close_op(self) -> dict:
        op, self._current = self._current, {}
        self.ops.append(op)
        return op

    def medians(self) -> dict:
        names = {name for op in self.ops for name in op}
        return {
            name: median([op[name] for op in self.ops if name in op])
            for name in sorted(names)
        }


def self_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_probe_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python loop.

    Not a metric of the program: printed at the start and end of every
    run so that runs taken during a slow spell of the host show.
    """
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        samples.append((time.perf_counter() - started) * 1000.0)
    return median(samples)
