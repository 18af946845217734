"""Process-wide metrics registry: counters, gauges, histograms.

The registry is the single store every instrumented subsystem writes
into — the counting engines, the vertical cache, the bit-packed kernel
and the miners all record named metrics here instead of
threading ad-hoc counter fields through every call chain. Each mining
run owns one registry (``MiningSession.run_metrics``): every counting
pass of the run writes its ``cache.*``, ``kernel.*`` and
``counting.segments.*`` metrics into it, the run's
:class:`~repro.core.negmining.MiningStats` carries it as ``metrics``,
and the summary lines are rendered from it.

Three metric kinds, all plain data:

counters
    Monotonically growing integers (``incr``).
gauges
    Last-written floats (``set_gauge``) with a ``max_gauge`` convenience
    for high-water marks. Merging keeps the maximum — the only gauge
    semantics that aggregates sensibly across runs.
histograms
    Fixed-boundary bucket counts plus total count and sum
    (:class:`Histogram`). Span durations land here, one histogram per
    span name.

Registries are **mergeable**: a session folds each run's registry into
the active observability registry with :meth:`MetricsRegistry.merge` —
counters add, gauges max, histograms add bucket-wise. Merging requires
identical histogram boundaries (they are fixed at first observation).
"""

from __future__ import annotations

import json

from ..errors import ConfigError

#: Default histogram boundaries (seconds), tuned for span durations:
#: sub-millisecond cache hits up to multi-minute full-scale passes.
DEFAULT_BOUNDS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
    60.0,
)


class Histogram:
    """Fixed-boundary bucket counts with total count and sum.

    ``bounds`` are the upper edges of the finite buckets; one overflow
    bucket catches everything above the last edge. An observation of
    value ``v`` lands in the first bucket whose edge satisfies
    ``v <= edge``.
    """

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        edges = tuple(float(edge) for edge in bounds)
        if not edges or any(
            later <= earlier for earlier, later in zip(edges, edges[1:])
        ):
            raise ConfigError(
                "histogram bounds must be a non-empty strictly "
                f"increasing sequence, got {bounds!r}"
            )
        self.bounds = edges
        self.buckets = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        slot = len(self.bounds)
        for index, edge in enumerate(self.bounds):
            if value <= edge:
                slot = index
                break
        self.buckets[slot] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        """Fold *other* into this histogram (boundaries must match)."""
        if other.bounds != self.bounds:
            raise ConfigError(
                "cannot merge histograms with different boundaries: "
                f"{self.bounds!r} vs {other.bounds!r}"
            )
        for slot, value in enumerate(other.buckets):
            self.buckets[slot] += value
        self.count += other.count
        self.sum += other.sum

    def snapshot(self) -> dict:
        """JSON-able representation."""
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "count": self.count,
            "sum": round(self.sum, 9),
        }

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, sum={self.sum:.6f}, "
            f"buckets={len(self.buckets)})"
        )


class MetricsRegistry:
    """Named counters, gauges and histograms; mergeable across runs.

    Plain dictionaries underneath; all mutating methods are cheap enough
    for per-pass hot paths (one dict operation each); nothing here is
    per-row.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def incr(self, name: str, value: int = 1) -> None:
        """Add *value* to counter *name* (creating it at zero)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 when never written)."""
        return self._counters.get(name, 0)

    # ------------------------------------------------------------------
    # Gauges
    # ------------------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value*."""
        self._gauges[name] = value

    def max_gauge(self, name: str, value: float) -> None:
        """Raise gauge *name* to *value* if it is a new high-water mark."""
        if value > self._gauges.get(name, float("-inf")):
            self._gauges[name] = value

    def gauge(self, name: str) -> float:
        """Current value of gauge *name* (0.0 when never written)."""
        return self._gauges.get(name, 0.0)

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------
    def observe(
        self,
        name: str,
        value: float,
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> None:
        """Record *value* into histogram *name*.

        The histogram is created with *bounds* on first observation;
        later observations reuse the existing boundaries (*bounds* is
        ignored then — boundaries are fixed for the registry lifetime).
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        histogram.observe(value)

    def histogram(self, name: str) -> Histogram | None:
        """The histogram *name*, or None when never observed."""
        return self._histograms.get(name)

    # ------------------------------------------------------------------
    # Aggregation / export
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold *other* into this registry; returns self.

        Counters add, gauges keep the maximum, histograms merge
        bucket-wise (boundaries must match). The canonical use is a
        session folding one run's registry into the active
        observability registry.
        """
        for name, value in other._counters.items():
            self.incr(name, value)
        for name, value in other._gauges.items():
            self.max_gauge(name, value)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = self._histograms[name] = Histogram(histogram.bounds)
            mine.merge(histogram)
        return self

    def names(self) -> list[str]:
        """All metric names, sorted (counters, gauges and histograms)."""
        return sorted(
            set(self._counters)
            | set(self._gauges)
            | set(self._histograms)
        )

    def snapshot(self) -> dict:
        """A JSON-able dump of every metric."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": {
                name: round(value, 9)
                for name, value in sorted(self._gauges.items())
            },
            "histograms": {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        }

    def to_json(self) -> str:
        """The snapshot rendered as one JSON document."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def summary(self) -> str:
        """A human-readable report of every metric, sorted by name."""
        lines = []
        if self._counters:
            lines.append("counters:")
            width = max(len(name) for name in self._counters)
            for name, value in sorted(self._counters.items()):
                lines.append(f"  {name:<{width}}  {value}")
        if self._gauges:
            lines.append("gauges:")
            width = max(len(name) for name in self._gauges)
            for name, value in sorted(self._gauges.items()):
                lines.append(f"  {name:<{width}}  {value:g}")
        if self._histograms:
            lines.append("histograms:")
            width = max(len(name) for name in self._histograms)
            for name, histogram in sorted(self._histograms.items()):
                lines.append(
                    f"  {name:<{width}}  count={histogram.count}  "
                    f"sum={histogram.sum:.6f}s  "
                    f"mean={histogram.mean:.6f}s"
                )
        if not lines:
            return "(no metrics recorded)"
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )

