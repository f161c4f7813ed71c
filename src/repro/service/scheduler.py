"""Folding request scheduler over long-lived per-model dispatchers.

Concurrent ``/generate`` requests land in per-model fold queues.  Each model
is served by ``engines_per_model`` dispatcher threads, started at the
model's first request and stopped only by :meth:`RequestScheduler.close`.
An idle dispatcher parks on the scheduler's condition variable; a submit
wakes it, and it drains at most :data:`MAX_FOLD_LANES` queued requests —
one drain is one fused engine job.  The service's fold executor runs the
drained requests as the lanes of one
:meth:`~repro.core.engine.SynthesisEngine.generate_folded` job over the
shared worker pool, which splits the merged report back per request by
chunk ownership, and the dispatcher resolves each request's future
individually.  Overflow past one drain is taken by the model's next idle
dispatcher, folding onto its own pooled engine.  Because every request
carries its own base seed, and attempt i of an engine lane is a pure
function of ``(workload, base_seed, i)`` through counter-addressed attempt
streams (:mod:`repro.core.stream`), the rows a request releases are
independent of which fold it landed in, of the requests around it, of the
dispatch order and of the engine's chunk and batch sizes: any folding of
concurrent requests is bit-identical to serving them one at a time (the
folding conformance suite proves this with the shared
:mod:`repro.testing.invariants` checkers).

Fairness across models is structural: each model owns its queue and its
dispatchers, so a flood against one model never blocks another model's
dispatch (their engines are separate resources in the
:class:`~repro.service.engine_pool.EnginePool`).

The scheduler's state is bounded by the number of models, not by traffic:
it keeps fixed dispatcher threads and scalar counters (fold factor, queue
wait, cumulative engine-busy time) that throughput benchmarks use to
attribute wins to folding rather than luck.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.results import SynthesisReport

__all__ = [
    "DeadlineExceededError",
    "GenerateRequest",
    "MAX_FOLD_LANES",
    "QueueFullError",
    "RequestScheduler",
    "SchedulerStats",
    "SchedulerStoppedError",
]

_logger = logging.getLogger("repro.service.scheduler")

#: Most requests one drain folds into one engine job.  Every request of a
#: fold waits for the whole job, so this caps how long a drain holds them.
MAX_FOLD_LANES = 64


class SchedulerStoppedError(RuntimeError):
    """The scheduler was closed before (or while) this request could run."""


class QueueFullError(RuntimeError):
    """Admission refused: the dispatch queue is at ``max_queue_depth``.

    The service layer maps this to HTTP 503 with a ``Retry-After`` header —
    nothing was reserved or dispatched, so the client may simply retry.
    """


class DeadlineExceededError(RuntimeError):
    """A queued request's dispatch deadline passed before it could run.

    Raised on the request's future *instead of* executing it, so the caller
    can refund the budget reservation (HTTP 504) — a late request never
    burns engine time or spend.
    """


@dataclass(frozen=True)
class GenerateRequest:
    """One deterministic generation request.

    ``base_seed`` fully determines the request's attempt stream (attempt
    ``i`` reads its own counter-addressed words of the stream keyed by
    ``base_seed``; see :mod:`repro.core.stream`), making the result
    interleaving-independent.  ``deadline`` is an absolute
    ``time.monotonic()`` instant: a request still queued past it is dropped
    with :class:`DeadlineExceededError` rather than dispatched.
    """

    request_id: str
    model_id: str
    num_rows: int
    base_seed: int
    max_attempts: int | None = None
    deadline: float | None = None
    # Span id of the request's root trace span; the scheduler parents its
    # queue-wait span here.  Telemetry-only — never touches execution.
    trace_parent: str | None = None


@dataclass
class SchedulerStats:
    """Folding counters (snapshot via :meth:`RequestScheduler.stats`).

    ``fold_factor`` is the mean number of requests per drain — 1.0 means no
    folding happened, N means N requests shared each fused engine job on
    average; ``max_batch`` is the largest drain, at most
    :data:`MAX_FOLD_LANES`.  ``queue_wait_seconds``
    accumulates every request's admission→dispatch wait (``max_queue_wait``
    is the worst single wait); ``engine_busy_seconds`` accumulates
    wall-clock spent executing folds; ``utilization`` is engine-busy time
    divided by scheduler uptime — the average number of concurrently busy
    engines.  ``dispatchers_active`` counts the dispatchers inside a fold
    at the snapshot; the others are parked.

    The privacy-test counters aggregate over every attempt of every
    completed report: ``records_checked`` is the total seed records the
    test examined and ``test_attempts`` the candidates tested.
    """

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    batches: int = 0
    max_batch: int = 0
    coalesced: int = 0  # requests that shared a fold with at least one other
    rejected: int = 0  # admission refusals (queue at max_queue_depth)
    expired: int = 0  # requests dropped at dispatch for a passed deadline
    folded_lanes: int = 0  # requests actually executed as fold lanes
    dropped_before_fold: int = 0  # drained but never folded (cancel/expiry/hook)
    fold_factor: float = 0.0  # mean requests per drain
    queue_wait_seconds: float = 0.0  # cumulative admission->dispatch wait
    max_queue_wait: float = 0.0  # worst single admission->dispatch wait
    engine_busy_seconds: float = 0.0  # cumulative fold execution wall-clock
    dispatchers_active: int = 0  # dispatchers currently busy in a fold
    utilization: float = 0.0  # engine_busy_seconds / scheduler uptime
    records_checked: int = 0  # seed records examined by the privacy test
    test_attempts: int = 0  # candidates privacy-tested across all reports


def privacy_test_totals(outcome) -> tuple[int, int]:
    """(attempts tested, records checked) of a fold outcome; 0s for non-reports."""
    if not isinstance(outcome, SynthesisReport):
        return 0, 0
    return outcome.num_attempts, int(outcome["records_checked"].sum())


class RequestScheduler:
    """Per-model fold queues drained by ``engines_per_model`` dispatchers each."""

    def __init__(
        self,
        fold_executor: Callable[[str, list[GenerateRequest]], Sequence],
        *,
        max_queue_depth: int | None = None,
        engines_per_model: int = 1,
        dispatch_hook: Callable[[GenerateRequest], None] | None = None,
        drain_timeout: float = 30.0,
        autostart: bool = True,
        telemetry=None,
    ):
        """``fold_executor(model_id, requests)`` runs one drain of same-model
        requests as one fused engine job and returns one outcome per request
        — a report, or an exception instance to fail just that request.
        A drain holds at most :data:`MAX_FOLD_LANES`
        requests.  ``max_queue_depth`` bounds admission across all models: a
        submit that would queue more than this many undispatched requests is
        refused with :class:`QueueFullError` (``None`` = no bound).
        ``engines_per_model`` is the number of dispatchers per model — the
        overflow past one drain runs on the next idle dispatcher, against its
        own pooled engine.  ``dispatch_hook`` is an optional fault-injection
        point called as each request is picked up, *before* its deadline
        check (chaos tests delay dispatch through it).  ``drain_timeout``
        bounds how long :meth:`close` waits for in-flight folds to finish
        before abandoning them.  ``autostart=False`` leaves dispatching
        stopped until :meth:`start` — tests use this to queue a burst
        deterministically and observe it fold into one batch.  ``telemetry``
        is an optional :class:`repro.obs.Telemetry`: when present the
        scheduler records a queue-wait span per request at dequeue, observes
        queue depth/wait and fold-shape metrics, and counts requests dropped
        before folding.
        """
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be positive when provided")
        if engines_per_model < 1:
            raise ValueError("engines_per_model must be positive")
        if drain_timeout < 0:
            raise ValueError("drain_timeout must be non-negative")
        self._fold_executor = fold_executor
        self._max_queue_depth = max_queue_depth
        self._engines_per_model = engines_per_model
        self._dispatch_hook = dispatch_hook
        self._drain_timeout = drain_timeout
        self._obs = telemetry
        self._lock = threading.Lock()
        # Idle dispatchers of every model park here; submit and close wake
        # them all, because a single notify may wake another model's
        # dispatcher and strand the request.
        self._work_ready = threading.Condition(self._lock)
        self._stats = SchedulerStats()  # repro: guarded-by[_lock]
        self._drained = 0  # repro: guarded-by[_lock]
        self._busy = 0  # repro: guarded-by[_lock]
        self._queues: dict[str, deque] = {}  # repro: guarded-by[_lock]
        self._dispatchers: dict[str, list[threading.Thread]] = {}  # repro: guarded-by[_lock]
        self._closed = False  # repro: guarded-by[_lock]
        self._started = False  # repro: guarded-by[_lock]
        self._started_at: float | None = None  # repro: guarded-by[_lock]
        self._depth = 0  # repro: guarded-by[_lock]
        if autostart:
            self.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "RequestScheduler":
        """Start dispatching (idempotent): start dispatchers for queued models."""
        with self._lock:
            if self._closed:
                raise SchedulerStoppedError("the scheduler has been closed")
            if not self._started:
                self._started = True
                self._started_at = time.monotonic()
                for model_id in self._queues:
                    self._start_dispatchers_locked(model_id)
        return self

    def close(self, drain_timeout: float | None = None) -> None:
        """Stop dispatching: in-flight folds drain, queued requests fail.

        Parked dispatchers wake and exit at once.  Dispatchers pick up no new
        batches once the closed flag is set, but a fold already executing
        gets up to ``drain_timeout`` seconds (default: the constructor's
        value) to finish and resolve its futures.  Requests still queued
        after the drain fail with :class:`SchedulerStoppedError`.
        """
        with self._work_ready:
            already_closed = self._closed
            self._closed = True
            self._work_ready.notify_all()
            threads = [t for group in self._dispatchers.values() for t in group]
        if not already_closed and threads:
            timeout = self._drain_timeout if drain_timeout is None else drain_timeout
            deadline = time.monotonic() + max(0.0, timeout)
            for thread in threads:
                thread.join(timeout=max(0.0, deadline - time.monotonic()))
            stuck = [thread for thread in threads if thread.is_alive()]
            if stuck:
                _logger.warning(
                    "%d dispatcher(s) still executing after the %.1fs drain "
                    "timeout; failing queued requests and abandoning the "
                    "in-flight fold(s)",
                    len(stuck),
                    timeout,
                )
        # Fail anything still queued rather than leaving callers hanging.
        with self._lock:
            pending = []
            for queue in self._queues.values():
                while queue:
                    pending.append(queue.popleft())
            self._depth -= len(pending)
        for request, future, _enqueued_at in pending:
            if future.set_running_or_notify_cancel():
                future.set_exception(
                    SchedulerStoppedError(
                        "the scheduler was closed before request "
                        f"{request.request_id!r} could be dispatched"
                    )
                )

    def __enter__(self) -> "RequestScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, request: GenerateRequest) -> "Future[SynthesisReport]":
        """Queue a request; the future resolves to its merged report."""
        future: Future = Future()
        with self._work_ready:
            if self._closed:
                raise SchedulerStoppedError("the scheduler has been closed")
            if (
                self._max_queue_depth is not None
                and self._depth >= self._max_queue_depth
            ):
                self._stats.rejected += 1
                raise QueueFullError(
                    f"admission refused: {self._depth} request(s) already "
                    f"queued (max_queue_depth={self._max_queue_depth})"
                )
            self._stats.submitted += 1
            self._depth += 1
            queue = self._queues.get(request.model_id)
            if queue is None:
                queue = self._queues[request.model_id] = deque()
                if self._started:
                    self._start_dispatchers_locked(request.model_id)
            queue.append((request, future, time.monotonic()))
            depth = self._depth
            self._work_ready.notify_all()
        if self._obs is not None:
            self._obs.queue_depth.set(depth)
        return future

    def stats(self) -> SchedulerStats:
        """A snapshot of the folding and queue counters."""
        with self._lock:
            batches = self._stats.batches
            uptime = (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            )
            return replace(
                self._stats,
                fold_factor=self._drained / batches if batches else 0.0,
                dispatchers_active=self._busy,
                utilization=(
                    self._stats.engine_busy_seconds / uptime if uptime > 0 else 0.0
                ),
            )

    def queue_depth(self) -> int:
        """Requests currently admitted but not yet picked up for dispatch."""
        with self._lock:
            return self._depth

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #
    def _start_dispatchers_locked(self, model_id):  # repro: requires-lock[_lock]
        """Start ``model_id``'s dispatchers; they live until :meth:`close`."""
        threads = [
            threading.Thread(
                target=self._dispatch_model,
                args=(model_id,),
                name=f"repro-scheduler-{model_id}-{index}",
                daemon=True,
            )
            for index in range(self._engines_per_model)
        ]
        self._dispatchers[model_id] = threads
        for thread in threads:
            thread.start()

    def _dispatch_model(self, model_id: str) -> None:
        """One dispatcher: park until work is queued, drain a fold, run it."""
        while True:
            with self._work_ready:
                queue = self._queues[model_id]
                while not queue and not self._closed:
                    self._work_ready.wait()
                if self._closed:
                    return
                batch = [
                    queue.popleft() for _ in range(min(len(queue), MAX_FOLD_LANES))
                ]
                # Queue wait is measured here, at the actual dequeue — not
                # after the hook/deadline checks in the fold path — so a
                # stalled dispatch hook can't inflate it.
                now = time.monotonic()
                waits = [max(0.0, now - enqueued_at) for _, _, enqueued_at in batch]
                for wait in waits:
                    self._stats.queue_wait_seconds += wait
                    self._stats.max_queue_wait = max(self._stats.max_queue_wait, wait)
                self._depth -= len(batch)
                depth = self._depth
                self._drained += len(batch)
                self._stats.batches += 1
                self._stats.max_batch = max(self._stats.max_batch, len(batch))
                if len(batch) > 1:
                    self._stats.coalesced += len(batch)
                self._busy += 1
            try:
                if self._obs is not None:
                    self._obs.queue_depth.set(depth)
                    for (request, _future, enqueued_at), wait in zip(batch, waits):
                        self._obs.queue_wait_seconds.observe(wait)
                        self._obs.tracer.record_span(
                            request.request_id,
                            "queue_wait",
                            start=enqueued_at,
                            end=enqueued_at + wait,
                            parent_id=request.trace_parent,
                            attrs={"model": request.model_id},
                        )
                self._run_fold(model_id, batch)
            finally:
                with self._lock:
                    self._busy -= 1

    def _run_fold(self, model_id: str, batch: list) -> None:
        """Execute one fold: hook + deadline per request, then the fused job."""
        ready: list[tuple[GenerateRequest, Future]] = []
        for request, future, _enqueued_at in batch:
            if not future.set_running_or_notify_cancel():
                with self._lock:
                    self._stats.dropped_before_fold += 1
                if self._obs is not None:
                    self._obs.fold_dropped_total.inc(reason="cancelled")
                continue
            try:
                if self._dispatch_hook is not None:
                    self._dispatch_hook(request)
                if (
                    request.deadline is not None
                    and time.monotonic() > request.deadline
                ):
                    raise DeadlineExceededError(
                        f"request {request.request_id!r} spent its dispatch "
                        "deadline in the queue and was dropped undispatched"
                    )
            except BaseException as exc:  # surface to the waiting caller
                expired = isinstance(exc, DeadlineExceededError)
                with self._lock:
                    self._stats.failed += 1
                    self._stats.dropped_before_fold += 1
                    if expired:
                        self._stats.expired += 1
                if self._obs is not None:
                    self._obs.fold_dropped_total.inc(
                        reason="expired" if expired else "hook"
                    )
                    self._obs.requests_total.inc(status="failed")
                future.set_exception(exc)
                continue
            ready.append((request, future))
        if not ready:
            return
        with self._lock:
            self._stats.folded_lanes += len(ready)
        if self._obs is not None:
            self._obs.folds_total.inc()
            self._obs.folded_lanes_total.inc(len(ready))
            self._obs.fold_lanes.observe(len(ready))
        started = time.monotonic()
        try:
            outcomes = list(
                self._fold_executor(model_id, [request for request, _ in ready])
            )
            if len(outcomes) != len(ready):
                raise RuntimeError(
                    f"fold executor returned {len(outcomes)} outcome(s) for "
                    f"{len(ready)} request(s)"
                )
        except BaseException as exc:  # a whole-fold failure fails every request
            outcomes = [exc] * len(ready)
        busy = time.monotonic() - started
        with self._lock:
            self._stats.engine_busy_seconds += busy
        if self._obs is not None:
            self._obs.engine_busy_seconds_total.inc(busy)
        for (request, future), outcome in zip(ready, outcomes):
            if isinstance(outcome, BaseException):
                with self._lock:
                    self._stats.failed += 1
                    if isinstance(outcome, DeadlineExceededError):
                        self._stats.expired += 1
                if self._obs is not None:
                    self._obs.requests_total.inc(status="failed")
                future.set_exception(outcome)
            else:
                attempts, checked = privacy_test_totals(outcome)
                with self._lock:
                    self._stats.completed += 1
                    self._stats.records_checked += checked
                    self._stats.test_attempts += attempts
                if self._obs is not None:
                    self._obs.requests_total.inc(status="completed")
                    self._obs.privacy_test_attempts_total.inc(attempts)
                    self._obs.privacy_records_checked_total.inc(checked)
                future.set_result(outcome)
