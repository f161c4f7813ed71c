"""The serving stack's telemetry bundle: tracer + metrics + phase totals.

``ServiceApp`` owns one :class:`Telemetry` (unless constructed with
``telemetry=False``) and threads it into the scheduler, engine pool and
engine event sinks.  The instrument catalog here is the single source of
truth for metric names — the README's metric catalog and the runbook
table mirror it.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Dict, Optional

from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import PhaseProfile
from repro.obs.trace import TraceLog, Tracer

_QUEUE_WAIT_BUCKETS = (
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)
_FOLD_LANE_BUCKETS = (1, 2, 4, 8, 16, 32, 64)
_CHECKOUT_WAIT_BUCKETS = (0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0)


class Telemetry:
    """One tracer, one metrics registry, and cumulative phase totals."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        trace_log: Optional[str | Path] = None,
        max_traces: int = 256,
    ) -> None:
        self.clock = clock or Clock()
        self.trace_log_path = Path(trace_log) if trace_log else None
        log = TraceLog(self.trace_log_path) if self.trace_log_path else None
        self.tracer = Tracer(clock=self.clock, log=log, max_traces=max_traces)
        self.metrics = MetricsRegistry()
        self._phase_lock = threading.Lock()
        self._phase_totals: Dict[str, list] = {}

        m = self.metrics
        # Request lifecycle.
        self.requests_total = m.counter(
            "repro_requests_total",
            "Generate requests by terminal status.",
            ("status",),
        )
        self.releases_total = m.counter(
            "repro_releases_total", "Committed releases."
        )
        self.released_rows_total = m.counter(
            "repro_released_rows_total", "Rows released to tenants."
        )
        # Scheduler.
        self.queue_wait_seconds = m.histogram(
            "repro_queue_wait_seconds",
            "Scheduler queue wait, recorded at dequeue.",
            buckets=_QUEUE_WAIT_BUCKETS,
        )
        self.queue_depth = m.gauge(
            "repro_queue_depth", "Requests waiting in scheduler queues."
        )
        self.folds_total = m.counter(
            "repro_folds_total", "Engine jobs dispatched (one per fold)."
        )
        self.folded_lanes_total = m.counter(
            "repro_folded_lanes_total",
            "Requests actually executed as fold lanes.",
        )
        self.fold_dropped_total = m.counter(
            "repro_fold_dropped_total",
            "Requests drained from the queue but dropped before folding.",
            ("reason",),
        )
        self.fold_lanes = m.histogram(
            "repro_fold_lanes",
            "Lanes per dispatched fold.",
            buckets=_FOLD_LANE_BUCKETS,
        )
        self.engine_busy_seconds_total = m.counter(
            "repro_engine_busy_seconds_total",
            "Wall seconds dispatchers spent executing engine jobs.",
        )
        self.engine_utilization = m.gauge(
            "repro_engine_utilization",
            "Busy fraction of dispatcher capacity since start.",
        )
        # Engine pool / supervision.
        self.engine_checkout_wait_seconds = m.histogram(
            "repro_engine_checkout_wait_seconds",
            "Wait to check an engine out of the pool.",
            buckets=_CHECKOUT_WAIT_BUCKETS,
        )
        self.chunk_retries_total = m.counter(
            "repro_chunk_retries_total",
            "Engine chunks retried after a worker death.",
        )
        self.worker_restarts_total = m.counter(
            "repro_worker_restarts_total", "Engine workers respawned."
        )
        # Privacy test.
        self.privacy_test_attempts_total = m.counter(
            "repro_privacy_test_attempts_total",
            "Candidates put through the plausible-deniability test.",
        )
        self.privacy_records_checked_total = m.counter(
            "repro_privacy_records_checked_total",
            "Seed records examined by the privacy test.",
        )
        # Budget spend.
        self.tenant_rows_spent_total = m.counter(
            "repro_tenant_rows_spent_total",
            "Row budget committed, per tenant session.",
            ("tenant",),
        )
        self.tenant_epsilon_spent_total = m.counter(
            "repro_tenant_epsilon_spent_total",
            "Epsilon committed, per tenant session.",
            ("tenant",),
        )
        self.tenant_delta_spent_total = m.counter(
            "repro_tenant_delta_spent_total",
            "Delta committed, per tenant session.",
            ("tenant",),
        )
        # Model registry.
        self.fit_cache_hits = m.gauge(
            "repro_fit_cache_hits", "Registry model-cache hits since start."
        )
        self.fit_cache_misses = m.gauge(
            "repro_fit_cache_misses",
            "Registry fits performed (cache misses) since start.",
        )
        # Phase profiling.
        self.phase_seconds_total = m.counter(
            "repro_phase_seconds_total",
            "Cumulative seconds per profiled phase.",
            ("phase",),
        )
        self.phase_calls_total = m.counter(
            "repro_phase_calls_total",
            "Cumulative calls per profiled phase.",
            ("phase",),
        )

    def new_profile(self) -> PhaseProfile:
        return PhaseProfile(clock=self.clock)

    def add_phase(self, name: str, seconds: float, calls: int = 1) -> None:
        with self._phase_lock:
            entry = self._phase_totals.get(name)
            if entry is None:
                self._phase_totals[name] = [calls, seconds]
            else:
                entry[0] += calls
                entry[1] += seconds
        self.phase_seconds_total.inc(seconds, phase=name)
        self.phase_calls_total.inc(calls, phase=name)

    def observe_profile(self, profile: PhaseProfile) -> None:
        for name, (calls, seconds) in profile.phases.items():
            self.add_phase(name, seconds, calls)

    def phase_summary(self) -> Dict[str, Dict[str, float]]:
        with self._phase_lock:
            return {
                name: {
                    "calls": entry[0],
                    "seconds": round(entry[1], 6),
                }
                for name, entry in sorted(self._phase_totals.items())
            }

    def engine_event(self, kind: str, payload: Optional[Dict] = None) -> None:
        """Engine supervision events (called from ``SynthesisEngine``)."""
        if kind == "worker_restart":
            self.worker_restarts_total.inc()
        elif kind == "chunk_retry":
            self.chunk_retries_total.inc()

    def close(self) -> None:
        self.tracer.close()
