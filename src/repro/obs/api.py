"""Module-level observability state and the instrumentation API.

The whole subsystem hangs off one process-wide slot (``_STATE``).
When it is ``None`` — the default — observability is off and every
entry point degrades to a near-free no-op: :func:`span` returns the
shared :data:`~repro.obs.span.NULL_SPAN` singleton and :func:`incr`
returns after one ``is None`` test. Instrumented code therefore never
guards its own calls; the hot-path cost of disabled observability is a
couple of attribute lookups (pinned <2% by
``benchmarks/bench_obs_overhead.py`` and zero-allocation by
``tests/unit/test_obs.py``).

When enabled (:func:`configure` or the :func:`obs_session` context
manager), an :class:`Observability` instance holds:

- the :class:`~repro.obs.registry.MetricsRegistry` all metrics land in,
- the trace sinks finished spans are emitted to,
- the active-span stack (nesting depth + parent linkage), and
- a ``scope`` tag, set by :func:`configure`, stamped on every span
  event.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from ..errors import ConfigError
from .registry import MetricsRegistry
from .sinks import JsonlSink, SummarySink
from .span import NULL_SPAN, Span

#: Valid values for ``MiningConfig.metrics`` / ``--metrics``.
METRICS_MODES = ("none", "summary", "json")

_STATE: "Observability | None" = None


class Observability:
    """Live observability state: registry + sinks + span stack."""

    __slots__ = ("registry", "sinks", "scope", "_stack", "_pid", "_t0")

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        sinks: tuple = (),
        scope: str = "driver",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sinks = tuple(sinks)
        self.scope = scope
        self._stack: list[Span] = []
        self._pid = os.getpid()
        self._t0 = time.perf_counter()

    # -- span lifecycle (called by Span.__enter__/__exit__) ------------
    def _push(self, span: Span) -> None:
        stack = self._stack
        span.depth = len(stack)
        span.parent = stack[-1].name if stack else None
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
        else:  # pragma: no cover - exit-out-of-order safety net
            try:
                stack.remove(span)
            except ValueError:
                pass
        self.registry.observe("span." + span.name, span.wall_s)
        if self.sinks:
            event = {
                "name": span.name,
                "parent": span.parent,
                "depth": span.depth,
                "start_s": round(span.start_s - self._t0, 9),
                "wall_s": round(span.wall_s, 9),
                "cpu_s": round(span.cpu_s, 9),
                "pid": self._pid,
                "scope": self.scope,
                "attrs": span.attrs,
            }
            for sink in self.sinks:
                sink.emit(event)

    def in_span(self, prefix: str) -> bool:
        """True when any active span's name starts with *prefix*."""
        return any(span.name.startswith(prefix) for span in self._stack)

    def finish(self) -> None:
        """Flush final metrics to every sink and close them."""
        for sink in self.sinks:
            sink.finish(self.registry)
        for sink in self.sinks:
            sink.close()


# ----------------------------------------------------------------------
# Module-level instrumentation API (what instrumented code calls)
# ----------------------------------------------------------------------
def configure(
    registry: MetricsRegistry | None = None,
    sinks: tuple = (),
    scope: str = "driver",
) -> Observability:
    """Install process-wide observability state and return it."""
    global _STATE
    _STATE = Observability(registry=registry, sinks=sinks, scope=scope)
    return _STATE


def shutdown() -> None:
    """Finish sinks and disable observability for this process."""
    global _STATE
    state = _STATE
    _STATE = None
    if state is not None:
        state.finish()


def current() -> Observability | None:
    """The active observability state, or None when disabled."""
    return _STATE


def enabled() -> bool:
    """Whether observability is currently on in this process."""
    return _STATE is not None


def span(name: str):
    """A context-managed span, or :data:`NULL_SPAN` when disabled."""
    state = _STATE
    if state is None:
        return NULL_SPAN
    return Span(name, state)


def incr(name: str, value: int = 1) -> None:
    """Increment counter *name* in the active registry (no-op if off)."""
    state = _STATE
    if state is not None:
        state.registry.incr(name, value)


def max_gauge(name: str, value: float) -> None:
    """High-water-mark gauge write into the active registry."""
    state = _STATE
    if state is not None:
        state.registry.max_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Histogram observation into the active registry (no-op if off)."""
    state = _STATE
    if state is not None:
        state.registry.observe(name, value)


def active_registry() -> MetricsRegistry | None:
    """The active registry, or None when observability is off."""
    state = _STATE
    return state.registry if state is not None else None


def in_span(prefix: str) -> bool:
    """True when enabled AND inside a span whose name starts *prefix*."""
    state = _STATE
    return state is not None and state.in_span(prefix)


# ----------------------------------------------------------------------
# Sessions
# ----------------------------------------------------------------------
def _build_sinks(trace_path: str | None, metrics: str, stream) -> tuple:
    if metrics not in METRICS_MODES:
        raise ConfigError(
            f"unknown metrics mode {metrics!r}; "
            f"choose from {METRICS_MODES}"
        )
    sinks: list = []
    if trace_path is not None:
        sinks.append(JsonlSink(trace_path))
    if metrics == "summary":
        sinks.append(SummarySink(stream=stream))
    elif metrics == "json":
        sinks.append(SummarySink(stream=stream, as_json=True))
    return tuple(sinks)


@contextmanager
def obs_session(
    trace_path: str | None = None,
    metrics: str = "none",
    stream=None,
    registry: MetricsRegistry | None = None,
):
    """Enable observability for a block; restore the prior state after.

    With neither a trace path nor a metrics mode (and no explicit
    registry) this is a transparent no-op — observability stays off and
    the disabled fast path keeps its near-zero cost. Otherwise the
    block runs with a fresh (or supplied) registry and the sinks
    implied by *trace_path*/*metrics*; on exit every sink receives the
    final registry (``finish``) and is closed, and the previously
    installed state (usually none) is restored.

    Yields the :class:`Observability` instance, or ``None`` when the
    session is a no-op.
    """
    global _STATE
    sinks = _build_sinks(trace_path, metrics, stream)
    if not sinks and registry is None:
        yield None
        return
    previous = _STATE
    state = Observability(registry=registry, sinks=sinks)
    _STATE = state
    try:
        yield state
    finally:
        _STATE = previous
        state.finish()
