"""Dependency-free telemetry for the serving stack.

Three layers, all determinism-safe (zero RNG consumption, timestamps only
from an injectable monotonic clock, one shared torn-tail-tolerant writer):

``trace``
    Hierarchical spans with explicit parent ids keyed by ``request_id``,
    optionally journaled as JSON-lines (``jsonlog``, which the service's
    ``BudgetJournal`` writes and reads too) and queryable via
    ``GET /trace/<request_id>``.

``metrics``
    A lock-safe registry of counters, gauges and fixed-bucket histograms
    rendered in Prometheus text exposition format at ``GET /metrics``.

``profile``
    Near-zero-overhead phase timers (sample, privacy test, merge, ...)
    that are inert unless a collector is activated for the current thread,
    so worker processes and telemetry-off deployments pay nothing.

``Telemetry`` bundles the three with the serving stack's standard
instrument catalog.
"""

from repro.obs.clock import Clock, ManualClock, wall_anchor
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.profile import PhaseProfile, phase, profiled
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    Span,
    TraceCorruptionError,
    TraceLog,
    Tracer,
    read_trace_log,
)

__all__ = [
    "Clock",
    "Counter",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "PhaseProfile",
    "Span",
    "Telemetry",
    "TraceCorruptionError",
    "TraceLog",
    "Tracer",
    "phase",
    "profiled",
    "read_trace_log",
    "wall_anchor",
]
