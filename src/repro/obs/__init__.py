"""Observability: tracing spans + process-wide metrics (DESIGN.md §8).

Instrument with :func:`span`/:func:`incr`; enable with
:func:`obs_session`; everything is a near-free no-op while disabled.
"""

from .api import (
    METRICS_MODES,
    Observability,
    active_registry,
    configure,
    current,
    enabled,
    in_span,
    incr,
    max_gauge,
    obs_session,
    observe,
    shutdown,
    span,
)
from .registry import DEFAULT_BOUNDS, Histogram, MetricsRegistry
from .sinks import JsonlSink, NullSink, SummarySink
from .span import NULL_SPAN, Span

__all__ = [
    "DEFAULT_BOUNDS",
    "METRICS_MODES",
    "NULL_SPAN",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NullSink",
    "Observability",
    "Span",
    "SummarySink",
    "active_registry",
    "configure",
    "current",
    "enabled",
    "in_span",
    "incr",
    "max_gauge",
    "obs_session",
    "observe",
    "shutdown",
    "span",
]
