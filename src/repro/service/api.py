"""The synthesis service: application core plus a stdlib JSON/HTTP front end.

:class:`ServiceApp` is the transport-agnostic heart of ``repro serve``.  It
wires the other service pieces together:

* a :class:`~repro.service.registry.ModelRegistry` of fit-once published
  pipelines (optionally size-bounded via :meth:`~repro.core.run_store.RunStore.gc`
  with the registry's pinned artifacts kept),
* per-tenant :class:`~repro.service.session.TenantSession` budgets with a
  reserve → dispatch → commit protocol (refusals carry the remaining budget;
  a refused or failed request never releases a partial result),
* a folding :class:`~repro.service.scheduler.RequestScheduler` that fuses
  concurrent same-model requests into one multi-lane engine job
  (:meth:`~repro.core.engine.SynthesisEngine.generate_folded`) dispatched on a
  bounded :class:`~repro.service.engine_pool.EnginePool`, with per-request
  counter-addressed attempt streams so any folding or interleaving releases
  bit-identical rows to serving the requests serially,
* an append-only JSON-lines audit log of every budget event.

The HTTP layer is a thin shim over the app: a stdlib
:class:`~http.server.ThreadingHTTPServer` (one thread per connection, no
third-party dependencies) exposing

====================  ======================================================
``GET  /healthz``      liveness + model count + phase-profile summary
``GET  /metrics``      Prometheus text exposition of the telemetry registry
``GET  /trace/<id>``   the span tree of one request (telemetry tracing)
``GET  /models``       published models
``POST /sessions``     open a budgeted tenant session
``GET  /budget``       a session's spend / reservations / remainder (+ledger)
``POST /generate``     budget-checked synthesis (JSON page or NDJSON stream)
``GET  /releases/<id>``paginated access to a past release's rows
====================  ======================================================

Telemetry (PR 10) is on by default and determinism-safe: spans and metrics
consume zero randomness, all timings come from the monotonic clock, and the
conformance suite proves released rows / ledgers are bit-identical with
telemetry on vs off.  Construct with ``telemetry=False`` to disable.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlparse

import numpy as np

from repro.core.engine import (
    ChunkProgress,
    EngineBrokenError,
    FoldSpec,
    SynthesisEngine,
)
from repro.core.results import SynthesisReport
from repro.core.stream import STREAM_VERSION
from repro.obs import Telemetry
from repro.obs.profile import profiled
from repro.service.engine_pool import EnginePool
from repro.service.journal import BudgetJournal, read_journal
from repro.service.registry import ModelRegistry, PublishedModel
from repro.service.scheduler import (
    DeadlineExceededError,
    GenerateRequest,
    QueueFullError,
    RequestScheduler,
    SchedulerStoppedError,
    privacy_test_totals,
)
from repro.service.session import (
    BudgetExceededError,
    Reservation,
    SessionBudget,
    TenantSession,
)

__all__ = [
    "ReleaseRecord",
    "ServiceApp",
    "ServiceError",
    "build_server",
    "derive_request_seed",
]

_MAX_BODY_BYTES = 1 << 20  # 1 MiB of JSON is far beyond any legitimate request
_DEFAULT_PAGE_LIMIT = 100


class ServiceError(Exception):
    """An API-level failure with an HTTP status and machine-readable code.

    ``retry_after`` (seconds) is surfaced as an HTTP ``Retry-After`` header —
    set on 503 admission refusals so well-behaved clients back off instead of
    hammering a full queue.
    """

    def __init__(
        self,
        status: int,
        code: str,
        message: str,
        retry_after: float | None = None,
        **payload,
    ):
        super().__init__(message)
        self.status = status
        self.code = code
        self.retry_after = retry_after
        self.payload = payload

    def to_json(self) -> dict:
        return {"error": str(self), "code": self.code, **self.payload}

    def headers(self) -> dict:
        if self.retry_after is None:
            return {}
        return {"Retry-After": str(max(1, int(round(self.retry_after))))}


def derive_request_seed(model_id: str, session_id: str, sequence: int) -> int:
    """The deterministic base seed of a session's ``sequence``-th request.

    A pure function of (model, session, per-session sequence) — independent
    of wall clock, thread scheduling and other sessions' traffic — so a
    session replayed request-by-request regenerates identical rows.  Clients
    needing cross-session determinism pass an explicit ``seed`` instead.
    """
    digest = hashlib.sha256(
        f"{model_id}:{session_id}:{sequence}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") >> 1  # non-negative int64


def _as_int(value, name: str, default: int | None = None) -> int | None:
    """Parse a client-supplied integer; malformed input is a 400, not a 500."""
    if value is None:
        return default
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServiceError(400, "bad_parameter", f"{name!r} must be an integer") from None


def _trailing_int(identifier: str) -> int:
    """The trailing decimal run of an id like ``s00012`` or ``s00001-r00002``.

    Journal replay uses this to restore session/release/sequence counters
    past the journaled history; ids without a trailing number count as 0.
    """
    digits = ""
    for char in reversed(identifier or ""):
        if not char.isdigit():
            break
        digits = char + digits
    return int(digits) if digits else 0


def _jsonable(value):
    """Recursively convert numpy scalars so payloads survive ``json.dumps``."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


@dataclass(frozen=True)
class ReleaseRecord:
    """One completed release: its identity, rows and accounting."""

    release_id: str
    request_id: str
    session_id: str
    model_id: str
    base_seed: int
    requested_rows: int
    report: SynthesisReport
    created_at: float

    @property
    def num_released(self) -> int:
        return self.report.num_released

    def decoded_rows(self, offset: int = 0, limit: int | None = None) -> list[list]:
        """A window of released rows decoded to raw attribute values.

        Only the requested window is decoded, so paginating a large release
        costs O(page), not O(total rows per page).
        """
        from repro.datasets.dataset import Dataset

        released = self.report.released_dataset()
        stop = len(released.data) if limit is None else offset + limit
        window = Dataset(released.schema, released.data[offset:stop])
        return _jsonable(window.decoded_records())

    def page(self, offset: int = 0, limit: int = _DEFAULT_PAGE_LIMIT) -> dict:
        """One page of released rows plus the offset of the next page."""
        if offset < 0 or limit < 1:
            raise ServiceError(400, "bad_page", "offset must be >= 0 and limit >= 1")
        total = self.num_released
        window = self.decoded_rows(offset, limit)
        next_offset = offset + len(window)
        return {
            "release_id": self.release_id,
            "offset": offset,
            "rows": window,
            "next_offset": next_offset if next_offset < total else None,
            "total_rows": total,
        }

    def describe(self) -> dict:
        return {
            "release_id": self.release_id,
            "request_id": self.request_id,
            "session_id": self.session_id,
            "model_id": self.model_id,
            "base_seed": self.base_seed,
            "requested_rows": self.requested_rows,
            "released_rows": self.num_released,
            "attempts": self.report.num_attempts,
            "pass_rate": self.report.pass_rate,
            "created_at": self.created_at,
        }


class ServiceApp:
    """The multi-tenant synthesis-serving application core."""

    #: Advisory client back-off, sent as ``Retry-After`` on 503 refusals.
    RETRY_AFTER_SECONDS = 1.0

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        *,
        num_workers: int = 1,
        default_budget: SessionBudget | None = None,
        audit_log: str | Path | None = None,
        audit_fsync: bool = False,
        journal: str | Path | None = None,
        store_max_bytes: int | None = None,
        max_queue_depth: int | None = None,
        deadline_ms: float | None = None,
        dispatch_hook=None,
        max_releases: int = 256,
        engines_per_model: int = 1,
        worker_budget: int | None = None,
        drain_timeout: float = 30.0,
        telemetry: "bool | Telemetry" = True,
        trace_log: str | Path | None = None,
    ):
        """``num_workers`` sizes each persistent engine's worker pool (1 = the
        in-process chunked reference path).  ``store_max_bytes`` caps the
        backing artifact store: after every publish the store is gc'd down to
        the bound with the registry's published models pinned.
        ``max_releases`` bounds the in-memory release history available to
        ``GET /releases/<id>`` — a long-running server retains the newest N
        releases and expires the rest (404 after expiry), so held reports
        can never grow without bound.  Session budget state is tiny and kept
        for the server's lifetime regardless.

        Fault-tolerance knobs: ``journal`` names an append-only JSON-lines
        budget journal replayed on startup (restoring session budgets,
        refunding reservations the previous process never settled, and
        restoring idempotency records); ``audit_fsync`` forces audit *and*
        journal lines to stable storage per event; ``max_queue_depth`` bounds
        scheduler admission (503 + ``Retry-After`` past it); ``deadline_ms``
        drops requests still queued after that many milliseconds (504, with
        the budget reservation refunded); ``dispatch_hook`` is a chaos-test
        fault point forwarded to the scheduler.

        Scaling knobs (PR 8): ``engines_per_model`` bounds the
        :class:`~repro.service.engine_pool.EnginePool` engines per model and
        sets the scheduler's long-lived dispatchers per model.  Each
        dispatcher folds at most :data:`~repro.service.scheduler.MAX_FOLD_LANES`
        queued requests into one engine job; an idle dispatcher takes the
        overflow onto a separate engine.  ``worker_budget`` globally bounds
        reserved worker processes across all engines (idle engines are
        reaped least-recently-used-first to stay under it);
        ``drain_timeout`` bounds how long :meth:`close` lets in-flight
        folded batches finish before failing still-queued requests.

        Observability knobs (PR 10): ``telemetry`` enables the in-process
        :class:`~repro.obs.Telemetry` hub (tracer + metrics registry +
        per-phase profiles; pass a pre-built instance to share one hub);
        ``trace_log`` names an append-only JSON-lines file that receives
        every finished span (torn-tail tolerant, same discipline as the
        budget journal).
        """
        if max_releases < 1:
            raise ValueError("max_releases must be at least 1")
        self._registry = registry if registry is not None else ModelRegistry()
        self._num_workers = num_workers
        self._default_budget = default_budget or SessionBudget()
        self._audit_log = (
            BudgetJournal(audit_log, fsync=audit_fsync)
            if audit_log is not None
            else None
        )
        self._journal = (
            BudgetJournal(journal, fsync=audit_fsync) if journal is not None else None
        )
        self._replaying = False
        self._store_max_bytes = store_max_bytes
        self._max_releases = max_releases
        self._deadline_ms = deadline_ms
        self._drain_timeout = drain_timeout
        self._lock = threading.Lock()
        self._sessions: dict[str, TenantSession] = {}  # repro: guarded-by[_lock]
        self._releases: "OrderedDict[str, ReleaseRecord]" = OrderedDict()  # repro: guarded-by[_lock]
        self._session_counter = 0  # repro: guarded-by[_lock]
        self._release_counter = 0  # repro: guarded-by[_lock]
        self._idempotency: dict[tuple[str, str], dict] = {}  # repro: guarded-by[_lock]
        self._closed = False  # repro: guarded-by[_lock]
        if isinstance(telemetry, Telemetry):
            self._obs: Telemetry | None = telemetry
        elif telemetry:
            self._obs = Telemetry(trace_log=trace_log)
        else:
            self._obs = None
        # Thread-local fold context: the dispatcher thread running a folded
        # batch parks its requests here so engine supervision events
        # (worker restarts, chunk retries) can be attributed to the traces
        # of the requests that were in flight.
        self._fold_ctx = threading.local()
        self._pool = EnginePool(
            self._build_engine,
            engines_per_model=engines_per_model,
            workers_per_engine=num_workers,
            worker_budget=worker_budget,
            telemetry=self._obs,
        )
        self._scheduler = RequestScheduler(
            self._execute_fold,
            max_queue_depth=max_queue_depth,
            engines_per_model=engines_per_model,
            dispatch_hook=dispatch_hook,
            drain_timeout=drain_timeout,
            telemetry=self._obs,
        )
        # Journal replay: counters and idempotency records are restored
        # immediately; each session's budget history replays through the real
        # reserve/commit protocol once its (content-hashed) model is back in
        # the registry — at construction for a pre-populated registry, or
        # after the matching publish_model() call otherwise.
        self._unreplayed: dict[str, list[dict]] = {}  # repro: guarded-by[_lock]
        if self._journal is not None:
            self._load_journal()
            self._replay_ready_sessions()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def __enter__(self) -> "ServiceApp":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drain the scheduler, retire the engine pool, close audit + journal.

        The scheduler is closed first (letting in-flight folded batches
        finish within ``drain_timeout``), so every lease is back on the
        shelf when the pool closes its engines.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._scheduler.close(self._drain_timeout)
        self._pool.close()
        if self._audit_log is not None:
            self._audit_log.close()
        if self._journal is not None:
            self._journal.close()
        if self._obs is not None:
            self._obs.close()

    @property
    def registry(self) -> ModelRegistry:
        return self._registry

    @property
    def telemetry(self) -> Telemetry | None:
        """The telemetry hub, or None when constructed with telemetry=False."""
        return self._obs

    @property
    def scheduler(self) -> RequestScheduler:
        return self._scheduler

    def _audit(self, event: dict) -> None:
        """Append one JSON-ready event to the audit log (not during replay).

        The audit log is a :class:`~repro.service.journal.BudgetJournal`:
        one lazily opened handle, a flush per line and, with
        ``audit_fsync=True``, an ``fsync`` per line.
        """
        if self._audit_log is not None and not self._replaying:
            self._audit_log.append(event)

    def _sink(self, event: dict) -> None:
        """Fan one budget event out to the audit log and the journal.

        Sessions emit their reserve/commit/cancel/refusal events through
        this sink; replayed events are suppressed (they are already in the
        journal — re-appending them would double spend on the next replay).
        """
        event = _jsonable(event)
        self._audit(event)
        if self._journal is not None and not self._replaying:
            self._journal.append(event)

    # ------------------------------------------------------------------ #
    # Models
    # ------------------------------------------------------------------ #
    def publish_model(self, name, dataset, config=None, seed: int = 0) -> dict:
        """Publish a fitted model (fit-once) and size-bound the store."""
        model = self._registry.publish(name, dataset, config, seed=seed)
        if self._store_max_bytes is not None:
            evicted = self._registry.gc_store(self._store_max_bytes)
            if evicted:
                self._audit(
                    {"event": "store_gc", "evicted": evicted, "timestamp": time.time()}
                )
        # Journaled sessions bound to this (content-hashed) model can now be
        # restored — a restart republishes the same data/config to the same
        # model id, unblocking their budget replay.
        self._replay_ready_sessions()
        return model.describe()

    def list_models(self) -> list[dict]:
        return self._registry.list_models()

    def model(self, model_id_or_name: str) -> PublishedModel:
        """A published model by id or name (404 :class:`ServiceError` if absent)."""
        try:
            return self._registry.get(model_id_or_name)
        except KeyError:
            raise ServiceError(
                404, "unknown_model", f"no published model {model_id_or_name!r}"
            ) from None

    # ------------------------------------------------------------------ #
    # Sessions
    # ------------------------------------------------------------------ #
    def create_session(
        self,
        model: str,
        tenant: str = "default",
        budget: SessionBudget | dict | None = None,
    ) -> dict:
        """Open a budgeted session against a published model."""
        published = self.model(model)
        if isinstance(budget, dict):
            unknown = set(budget) - {"epsilon", "delta", "max_rows", "min_k"}
            if unknown:
                raise ServiceError(
                    400, "bad_budget", f"unknown budget keys: {sorted(unknown)}"
                )
            try:
                budget = SessionBudget(**budget)
            except (TypeError, ValueError) as exc:
                raise ServiceError(400, "bad_budget", str(exc)) from exc
        elif budget is None:
            budget = self._default_budget
        with self._lock:
            self._session_counter += 1
            session_id = f"s{self._session_counter:05d}"
        try:
            session = TenantSession(
                session_id=session_id,
                tenant=tenant,
                model_id=published.model_id,
                budget=budget,
                per_row_cost=published.per_row_cost(),
                model_k=published.params.k,
                audit_sink=self._sink,
                spend_hook=self._spend_hook if self._obs is not None else None,
            )
        except ValueError as exc:
            raise ServiceError(409, "k_floor_violation", str(exc)) from exc
        with self._lock:
            self._sessions[session_id] = session
        self._sink(
            {
                "event": "session_created",
                "session_id": session_id,
                "tenant": tenant,
                "model_id": published.model_id,
                "budget": budget.to_dict(),
                "timestamp": time.time(),
            }
        )
        return session.describe()

    def _session(self, session_id: str) -> TenantSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ServiceError(404, "unknown_session", f"no session {session_id!r}")
        return session

    def budget(self, session_id: str, include_ledger: bool = False) -> dict:
        """A session's budget status (optionally with the full audit trail)."""
        session = self._session(session_id)
        info = session.describe()
        if include_ledger:
            info["ledger"] = _jsonable(session.ledger())
        return info

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def _build_engine(self, model_id: str) -> SynthesisEngine:
        """:class:`EnginePool` builder: a fresh engine for a published model."""
        model = self._registry.get(model_id)
        config = model.pipeline.config
        return SynthesisEngine(
            model.pipeline.model,
            model.pipeline.splits.seeds,
            config.privacy,
            num_workers=self._num_workers,
            chunk_size=config.chunk_size,
            batch_size=config.batch_size,
            max_chunk_retries=config.max_chunk_retries,
            event_sink=self._engine_event if self._obs is not None else None,
        )

    def _execute_fold(
        self, model_id: str, requests: list[GenerateRequest]
    ) -> list[SynthesisReport]:
        """Scheduler fold executor: one drain of same-model requests → reports.

        The scheduler drains at most ``MAX_FOLD_LANES`` requests, so the
        drain runs as a single fused engine job on a pooled engine.  A lease
        whose engine turns out broken mid-fold is discarded (evicted from the
        pool) and the fold retried once on a freshly built engine — every
        lane is deterministic in (base_seed, attempt index), so the retry
        releases the same rows the first attempt would have.
        """
        with self._lock:
            if self._closed:
                raise ServiceError(503, "shutting_down", "the service is closing")
        specs = [
            FoldSpec(
                num_released=request.num_rows,
                base_seed=request.base_seed,
                max_attempts=request.max_attempts,
            )
            for request in requests
        ]
        obs = self._obs
        for attempt in (0, 1):
            lease = self._pool.checkout(model_id)
            fold_start = obs.clock.monotonic() if obs is not None else 0.0
            chunk_events: list[tuple[ChunkProgress, float, float]] = []
            progress = None
            profile = None
            if obs is not None:
                last_seen: dict[int, float] = {}

                def progress(p, _last=last_seen, _start=fold_start):
                    # Called from the dispatcher thread (generate_folded is
                    # synchronous) — per-lane last-event times bound each
                    # chunk span without touching the engine's hot path.
                    now = obs.clock.monotonic()
                    chunk_events.append((p, _last.get(p.lane_index, _start), now))
                    _last[p.lane_index] = now

                profile = obs.new_profile()
            try:
                self._fold_ctx.requests = requests
                if obs is not None:
                    with profiled(profile):
                        reports = lease.engine.generate_folded(specs, progress=progress)
                else:
                    reports = lease.engine.generate_folded(specs)
            except EngineBrokenError:
                self._pool.discard(lease)
                if attempt:
                    raise
                continue
            except BaseException:
                self._pool.release(lease)
                raise
            finally:
                self._fold_ctx.requests = None
            self._pool.release(lease)
            if obs is not None:
                obs.observe_profile(profile)
                self._record_fold_telemetry(
                    model_id, requests, reports, fold_start, chunk_events, profile
                )
            return reports
        raise AssertionError("unreachable")  # pragma: no cover

    def _engine_event(self, kind: str, payload: dict) -> None:
        """Engine supervision event sink (telemetry only; never raises).

        Counts the event in the metrics registry and attaches a zero-duration
        span to every request in the fold the dispatcher thread is running —
        a worker restart or chunk retry affects the whole fused job, so each
        folded lane's trace records it.
        """
        obs = self._obs
        if obs is None:
            return
        obs.engine_event(kind, payload)
        requests = getattr(self._fold_ctx, "requests", None) or ()
        for request in requests:
            obs.tracer.event(
                request.request_id,
                kind,
                parent_id=request.trace_parent,
                attrs=dict(payload),
            )

    def _record_fold_telemetry(
        self,
        model_id: str,
        requests: list[GenerateRequest],
        reports: list[SynthesisReport],
        fold_start: float,
        chunk_events: list,
        profile,
    ) -> None:
        """Spans for one finished fold: fold → engine_job → chunks + test."""
        obs = self._obs
        assert obs is not None
        fold_end = obs.clock.monotonic()
        phases = profile.snapshot()
        for lane, (request, report) in enumerate(zip(requests, reports)):
            fold_span = obs.tracer.record_span(
                request.request_id,
                "fold",
                start=fold_start,
                end=fold_end,
                parent_id=request.trace_parent,
                attrs={
                    "engine_key": model_id,
                    "lanes": len(requests),
                    "lane_index": lane,
                    "phases": phases,
                },
            )
            engine_span = obs.tracer.record_span(
                request.request_id,
                "engine_job",
                start=fold_start,
                end=fold_end,
                parent_id=fold_span.span_id,
                attrs={
                    "attempts": report.num_attempts,
                    "released": report.num_released,
                },
            )
            for p, start, end in chunk_events:
                if p.lane_index != lane:
                    continue
                obs.tracer.record_span(
                    request.request_id,
                    "engine_chunk",
                    start=start,
                    end=end,
                    parent_id=engine_span.span_id,
                    attrs={
                        "chunk_index": p.chunk_index,
                        "attempts": p.chunk_attempts,
                        "released": p.chunk_released,
                        "from_checkpoint": p.from_checkpoint,
                    },
                )
            attempts, checked = privacy_test_totals(report)
            obs.tracer.record_span(
                request.request_id,
                "privacy_test",
                start=fold_end,
                end=fold_end,
                parent_id=engine_span.span_id,
                attrs={"test_attempts": attempts, "records_checked": checked},
            )

    def generate(
        self,
        session_id: str,
        rows: int,
        seed: int | None = None,
        max_attempts: int | None = None,
        idempotency_key: str | None = None,
    ) -> ReleaseRecord:
        """Budget-checked synthesis: reserve, dispatch, commit, never partial.

        The worst-case cost of ``rows`` rows is reserved before dispatch; a
        request that cannot fit is refused with the budget remainder
        (:class:`~repro.service.session.BudgetExceededError` →  HTTP 409).
        After generation only the rows that actually passed the privacy test
        are charged; a failed dispatch cancels the hold entirely.

        A repeated ``idempotency_key`` (scoped per session) replays the
        recorded release — same release id, same rows, zero additional
        budget spend — so a client that lost the connection mid-response can
        retry safely; a journaled release drawn under an older attempt-stream
        layout cannot be regenerated and is refused with 410
        ``release_not_regenerable``.  Admission refusal maps to 503
        (+ ``Retry-After``) and a missed dispatch deadline to 504; both
        refund the reservation.
        """
        if rows < 1:
            raise ServiceError(400, "bad_rows", "rows must be a positive integer")
        # A negative value would fail inside the engine, and with it every
        # request folded into the same job.
        for name, value in (("seed", seed), ("max_attempts", max_attempts)):
            if value is not None and value < 0:
                raise ServiceError(
                    400, "bad_parameter", f"{name!r} must be a non-negative integer"
                )
        session = self._session(session_id)
        obs = self._obs
        t_model = obs.clock.monotonic() if obs is not None else 0.0
        model = self.model(session.model_id)
        if obs is not None:
            obs.add_phase("fit_cache", obs.clock.monotonic() - t_model)
        if idempotency_key is not None:
            with self._lock:
                meta = self._idempotency.get((session_id, idempotency_key))
            if meta is not None:
                return self._replay_release(meta)
        sequence = session.next_sequence()
        request_id = f"{session_id}-r{sequence:05d}"
        base_seed = (
            int(seed)
            if seed is not None
            else derive_request_seed(model.model_id, session_id, sequence)
        )
        if obs is None:
            return self._dispatch_generate(
                session, model, request_id, rows, base_seed,
                max_attempts, idempotency_key, root=None,
            )
        root = obs.tracer.start_span(
            request_id,
            "request",
            attrs={
                "session": session_id,
                "tenant": session.tenant,
                "model": model.model_id,
                "rows": rows,
            },
        )
        try:
            return self._dispatch_generate(
                session, model, request_id, rows, base_seed,
                max_attempts, idempotency_key, root=root,
            )
        finally:
            root.end()

    def _dispatch_generate(
        self,
        session: TenantSession,
        model: PublishedModel,
        request_id: str,
        rows: int,
        base_seed: int,
        max_attempts: int | None,
        idempotency_key: str | None,
        root,
    ) -> ReleaseRecord:
        """Reserve → scheduler dispatch → commit for one admitted request.

        ``root`` is the request's root trace span (or None with telemetry
        off); reserve and commit get child spans, and the scheduler / fold
        path hang their spans off ``trace_parent``.
        """
        obs = self._obs
        session_id = session.session_id
        t_reserve = obs.clock.monotonic() if obs is not None else 0.0
        try:
            reservation = session.reserve(request_id, rows)
        except BudgetExceededError as exc:
            raise ServiceError(
                409,
                "budget_exceeded",
                str(exc),
                remaining=_jsonable(exc.remaining),
            ) from exc
        if obs is not None:
            now = obs.clock.monotonic()
            obs.tracer.record_span(
                request_id, "reserve",
                start=t_reserve, end=now, parent_id=root.span_id,
                attrs={"rows": rows},
            )
            obs.add_phase("reserve", now - t_reserve)
        deadline = (
            time.monotonic() + self._deadline_ms / 1000.0
            if self._deadline_ms is not None
            else None
        )
        request = GenerateRequest(
            request_id=request_id,
            model_id=model.model_id,
            num_rows=rows,
            base_seed=base_seed,
            max_attempts=max_attempts,
            deadline=deadline,
            trace_parent=root.span_id if root is not None else None,
        )
        try:
            report = self._scheduler.submit(request).result()
        except QueueFullError as exc:
            session.cancel(reservation, reason="queue_full")
            raise ServiceError(
                503, "queue_full", str(exc), retry_after=self.RETRY_AFTER_SECONDS
            ) from exc
        except DeadlineExceededError as exc:
            session.cancel(reservation, reason="deadline")
            raise ServiceError(504, "deadline_exceeded", str(exc)) from exc
        except SchedulerStoppedError as exc:
            session.cancel(reservation, reason="shutdown")
            raise ServiceError(503, "shutting_down", str(exc)) from exc
        except BaseException:
            session.cancel(reservation)
            raise
        t_commit = obs.clock.monotonic() if obs is not None else 0.0
        session.commit(reservation, report.num_released)
        if obs is not None:
            now = obs.clock.monotonic()
            obs.tracer.record_span(
                request_id, "commit",
                start=t_commit, end=now, parent_id=root.span_id,
                attrs={"released_rows": report.num_released},
            )
            obs.add_phase("commit", now - t_commit)
            obs.releases_total.inc()
            obs.released_rows_total.inc(report.num_released)
            root.set_attr("released_rows", report.num_released)
        with self._lock:
            self._release_counter += 1
            release_id = f"rel{self._release_counter:06d}"
            record = ReleaseRecord(
                release_id=release_id,
                request_id=request_id,
                session_id=session_id,
                model_id=model.model_id,
                base_seed=base_seed,
                requested_rows=rows,
                report=report,
                created_at=time.time(),
            )
            self._releases[release_id] = record
            while len(self._releases) > self._max_releases:
                self._releases.popitem(last=False)
            meta = {
                "event": "release",
                "release_id": release_id,
                "request_id": request_id,
                "session_id": session_id,
                "model_id": model.model_id,
                "base_seed": base_seed,
                "stream": STREAM_VERSION,
                "requested_rows": rows,
                "released_rows": report.num_released,
                "max_attempts": max_attempts,
                "idempotency_key": idempotency_key,
                "timestamp": record.created_at,
            }
            if idempotency_key is not None:
                self._idempotency[(session_id, idempotency_key)] = meta
        self._sink(meta)
        return record

    def _replay_release(self, meta: dict) -> ReleaseRecord:
        """Serve a repeated idempotent request from its recorded release.

        If the record is still in the bounded release history it is returned
        directly.  After an expiry or a restart the rows are regenerated from
        the recorded ``base_seed`` — bit-identical, because attempt i is a
        pure function of (base seed, i) — with **no** budget interaction: the
        original commit already paid for exactly these rows.  A release
        journaled under another attempt-stream layout (no ``stream`` field,
        or one other than :data:`~repro.core.stream.STREAM_VERSION`) is
        refused with 410 ``release_not_regenerable``: regenerating it would
        hand the tenant a second, different set of rows it never paid for.
        Older journals also record an ``engine_key``; it is ignored, because
        it never changed the rows.
        """
        release_id = meta["release_id"]
        with self._lock:
            record = self._releases.get(release_id)
        if record is not None:
            return record
        if meta.get("stream") != STREAM_VERSION:
            raise ServiceError(
                410,
                "release_not_regenerable",
                f"release {release_id} was drawn under attempt-stream version "
                f"{meta.get('stream', 1)} and this server draws version "
                f"{STREAM_VERSION}; its rows cannot be regenerated, and it was "
                "not charged again",
                release_id=release_id,
            )
        request = GenerateRequest(
            request_id=meta["request_id"],
            model_id=meta["model_id"],
            num_rows=int(meta["requested_rows"]),
            base_seed=int(meta["base_seed"]),
            max_attempts=meta.get("max_attempts"),
        )
        report = self._scheduler.submit(request).result()
        record = ReleaseRecord(
            release_id=release_id,
            request_id=meta["request_id"],
            session_id=meta["session_id"],
            model_id=meta["model_id"],
            base_seed=int(meta["base_seed"]),
            requested_rows=int(meta["requested_rows"]),
            report=report,
            created_at=float(meta["timestamp"]),
        )
        with self._lock:
            self._releases[release_id] = record
            self._releases.move_to_end(release_id)
            while len(self._releases) > self._max_releases:
                self._releases.popitem(last=False)
        return record

    def release(self, release_id: str) -> ReleaseRecord:
        with self._lock:
            record = self._releases.get(release_id)
        if record is None:
            raise ServiceError(
                404,
                "unknown_release",
                f"no release {release_id!r} (unknown, or expired from the "
                f"{self._max_releases}-release history)",
            )
        return record

    def healthz(self) -> dict:
        """Liveness plus scaling visibility: engine pool and fold metrics.

        ``engines`` mirrors :meth:`pool_health` (per-model engines alive,
        busy counts, worker restarts); ``scheduler`` surfaces the fold factor
        and dispatcher activity so operators see scaling behavior without
        running the benchmark.
        """
        with self._lock:
            models = len(self._registry.pinned_keys())
            sessions = len(self._sessions)
        stats = self._scheduler.stats()
        return {
            "status": "ok",
            "models": models,
            "sessions": sessions,
            "engines": self._pool.health(),
            "scheduler": {
                "fold_factor": stats.fold_factor,
                "queue_depth": self._scheduler.queue_depth(),
                "dispatchers_active": stats.dispatchers_active,
                "utilization": stats.utilization,
                "completed": stats.completed,
                "failed": stats.failed,
                "folded_lanes": stats.folded_lanes,
                "dropped_before_fold": stats.dropped_before_fold,
            },
            "privacy_test": {
                "records_checked": stats.records_checked,
                "test_attempts": stats.test_attempts,
            },
            "telemetry": (
                {"enabled": True, "phases": self._obs.phase_summary()}
                if self._obs is not None
                else {"enabled": False}
            ),
        }

    def pool_health(self) -> dict:
        """The engine pool's per-model supervision counters (see /healthz)."""
        return self._pool.health()

    # ------------------------------------------------------------------ #
    # Telemetry endpoints
    # ------------------------------------------------------------------ #
    def _spend_hook(self, tenant: str, rows: int, epsilon: float, delta: float) -> None:
        """Session commit observer → per-tenant spend counters."""
        obs = self._obs
        if obs is None:
            return
        obs.tenant_rows_spent_total.inc(rows, tenant=tenant)
        obs.tenant_epsilon_spent_total.inc(epsilon, tenant=tenant)
        obs.tenant_delta_spent_total.inc(delta, tenant=tenant)

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the metrics registry.

        Point-in-time gauges (queue depth, utilization, fit-cache hit
        counters) are refreshed from their sources at scrape time; everything
        else is event-driven.
        """
        obs = self._obs
        if obs is None:
            raise ServiceError(
                404, "telemetry_disabled", "this server runs with telemetry off"
            )
        stats = self._scheduler.stats()
        obs.queue_depth.set(self._scheduler.queue_depth())
        obs.engine_utilization.set(stats.utilization)
        hits, misses = self._registry.cache_stats
        obs.fit_cache_hits.set(hits)
        obs.fit_cache_misses.set(misses)
        return obs.metrics.render()

    def trace(self, request_id: str) -> dict:
        """The span tree of one request (``GET /trace/<request_id>``)."""
        if self._obs is None:
            raise ServiceError(
                404, "telemetry_disabled", "this server runs with telemetry off"
            )
        data = self._obs.tracer.trace(request_id)
        if data is None:
            raise ServiceError(
                404,
                "unknown_trace",
                f"no trace for request {request_id!r} (unknown, or evicted "
                "from the bounded trace history)",
            )
        return data

    # ------------------------------------------------------------------ #
    # Journal replay
    # ------------------------------------------------------------------ #
    def _load_journal(self) -> None:
        """Parse the journal: restore counters and idempotency immediately,
        stage per-session budget histories for :meth:`_replay_ready_sessions`.
        """
        events = read_journal(self._journal.path)
        unreplayed: dict[str, list[dict]] = {}
        session_max = 0
        release_max = 0
        for event in events:
            kind = event.get("event")
            session_id = event.get("session_id")
            if kind == "session_created" and session_id:
                unreplayed[session_id] = [event]
                session_max = max(session_max, _trailing_int(session_id))
            elif kind in ("reserve", "commit", "cancel") and session_id in unreplayed:
                unreplayed[session_id].append(event)
            elif kind == "release":
                release_max = max(release_max, _trailing_int(event.get("release_id", "")))
                key = event.get("idempotency_key")
                if key is not None and session_id:
                    self._idempotency[(session_id, key)] = event
        with self._lock:
            self._unreplayed = unreplayed
            self._session_counter = max(self._session_counter, session_max)
            self._release_counter = max(self._release_counter, release_max)

    def _replay_ready_sessions(self) -> None:
        """Restore every staged session whose model is back in the registry.

        The session's reserve/commit/cancel history is re-driven through the
        real :class:`TenantSession` protocol (so spend lands on its
        accountant exactly as before the crash); reservations left active at
        the end — held by requests the dead process never settled — are then
        refunded, which *is* journaled and audited as a fresh ``cancel``
        event with reason ``refund_on_replay``.
        """
        if self._journal is None:
            return
        with self._lock:
            staged = dict(self._unreplayed)
        for session_id, events in staged.items():
            created = events[0]
            try:
                published = self._registry.get(created["model_id"])
            except KeyError:
                continue  # model not republished yet; retried after publish
            session = self._replay_session(published, created, events[1:])
            with self._lock:
                self._sessions[session_id] = session
                self._unreplayed.pop(session_id, None)
            for reservation in session.outstanding_reservations():
                session.cancel(reservation, reason="refund_on_replay")

    def _replay_session(
        self,
        published: PublishedModel,
        created: dict,
        events: list[dict],
    ) -> TenantSession:
        budget_fields = dict(created.get("budget") or {})
        # Older journals store the removed privacy-test "accuracy" contract
        # in every budget; it never changed which rows were released or
        # what they cost.
        budget_fields.pop("accuracy", None)
        session = TenantSession(
            session_id=created["session_id"],
            tenant=created.get("tenant", "default"),
            model_id=published.model_id,
            budget=SessionBudget(**budget_fields),
            per_row_cost=published.per_row_cost(),
            model_k=published.params.k,
            audit_sink=self._sink,
            spend_hook=self._spend_hook if self._obs is not None else None,
        )
        self._replaying = True
        try:
            reservations: dict[str, Reservation] = {}
            max_sequence = 0
            for event in events:
                request_id = event.get("request_id", "")
                max_sequence = max(max_sequence, _trailing_int(request_id))
                kind = event["event"]
                if kind == "reserve":
                    reservations[request_id] = session.reserve(
                        request_id, int(event["rows"])
                    )
                elif kind == "commit":
                    reservation = reservations.pop(request_id, None)
                    if reservation is not None:
                        session.commit(reservation, int(event["released_rows"]))
                elif kind == "cancel":
                    reservation = reservations.pop(request_id, None)
                    if reservation is not None:
                        session.cancel(
                            reservation, reason=event.get("reason", "replayed")
                        )
            session.advance_sequence(max_sequence)
        finally:
            self._replaying = False
        return session


# --------------------------------------------------------------------------- #
# HTTP front end
# --------------------------------------------------------------------------- #
class _ServiceHandler(BaseHTTPRequestHandler):
    """Thin JSON shim over :class:`ServiceApp` (stored on the server)."""

    server_version = "repro-serve/1"

    @property
    def app(self) -> ServiceApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        if getattr(self.server, "quiet", True):
            return
        super().log_message(format, *args)

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #
    def _send_json(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(_jsonable(payload)).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, str(value))
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict:
        header = self.headers.get("Content-Length", 0) or 0
        try:
            length = int(header)
        except ValueError:
            length = -1
        if length < 0:
            # rfile.read(-1) would block until the client hangs up.
            raise ServiceError(
                400, "bad_content_length", f"invalid Content-Length {header!r}"
            )
        if length > _MAX_BODY_BYTES:
            raise ServiceError(413, "body_too_large", "request body too large")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            raise ServiceError(400, "bad_json", f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServiceError(400, "bad_json", "the request body must be a JSON object")
        return payload

    def _handle(self, method: str) -> None:
        parsed = urlparse(self.path)
        query = {key: values[-1] for key, values in parse_qs(parsed.query).items()}
        try:
            self._route(method, parsed.path.rstrip("/") or "/", query)
        except ServiceError as exc:
            self._send_json(exc.status, exc.to_json(), headers=exc.headers())
        except BrokenPipeError:
            pass  # client went away mid-response
        except Exception as exc:  # pragma: no cover - defensive 500
            self._send_json(
                500, {"error": f"{type(exc).__name__}: {exc}", "code": "internal"}
            )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._handle("POST")

    # ------------------------------------------------------------------ #
    # Routes
    # ------------------------------------------------------------------ #
    def _route(self, method: str, path: str, query: dict) -> None:
        if method == "GET" and path == "/healthz":
            self._send_json(200, self.app.healthz())
        elif method == "GET" and path == "/metrics":
            self._send_text(
                200,
                self.app.metrics_text(),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif method == "GET" and path.startswith("/trace/"):
            self._send_json(200, self.app.trace(path.removeprefix("/trace/")))
        elif method == "GET" and path == "/models":
            self._send_json(200, {"models": self.app.list_models()})
        elif method == "GET" and path.startswith("/models/"):
            model = self.app.model(path.removeprefix("/models/"))
            self._send_json(200, model.describe())
        elif method == "POST" and path == "/sessions":
            body = self._read_json()
            model = body.get("model")
            if not model:
                raise ServiceError(400, "bad_session", "a 'model' id or name is required")
            info = self.app.create_session(
                model=model,
                tenant=str(body.get("tenant", "default")),
                budget=body.get("budget"),
            )
            self._send_json(201, info)
        elif method == "GET" and (path == "/budget" or path.endswith("/budget")):
            if path == "/budget":
                session_id = query.get("session", "")
            else:  # /sessions/<id>/budget
                session_id = path.removeprefix("/sessions/").removesuffix("/budget")
            if not session_id:
                raise ServiceError(400, "bad_budget", "pass ?session=<session_id>")
            include_ledger = query.get("ledger", "") in ("1", "true", "yes")
            self._send_json(200, self.app.budget(session_id, include_ledger))
        elif method == "POST" and path == "/generate":
            self._generate()
        elif method == "GET" and path.startswith("/releases/"):
            record = self.app.release(path.removeprefix("/releases/"))
            offset = _as_int(query.get("offset"), "offset", 0)
            limit = _as_int(query.get("limit"), "limit", _DEFAULT_PAGE_LIMIT)
            page = record.page(offset, limit)
            page.update(record.describe())
            self._send_json(200, page)
        else:
            raise ServiceError(404, "not_found", f"no route {method} {path}")

    def _generate(self) -> None:
        body = self._read_json()
        session_id = body.get("session")
        if not session_id:
            raise ServiceError(400, "bad_generate", "a 'session' id is required")
        idempotency_key = self.headers.get("Idempotency-Key") or body.get(
            "idempotency_key"
        )
        record = self.app.generate(
            session_id,
            _as_int(body.get("rows"), "rows", 0),
            seed=_as_int(body.get("seed"), "seed"),
            max_attempts=_as_int(body.get("max_attempts"), "max_attempts"),
            idempotency_key=str(idempotency_key) if idempotency_key else None,
        )
        obs = self.app.telemetry
        t_serialize = obs.clock.monotonic() if obs is not None else 0.0
        if body.get("stream"):
            # NDJSON stream: one header line, then one line per released row.
            self.send_response(200)
            self.send_header("Content-Type", "application/x-ndjson")
            self.end_headers()
            header = record.describe()
            header["columns"] = record.report.schema.names
            self.wfile.write((json.dumps(_jsonable(header)) + "\n").encode())
            for row in record.decoded_rows():
                self.wfile.write((json.dumps(_jsonable(row)) + "\n").encode())
            self._serialize_span(obs, record, t_serialize, streamed=True)
            return
        limit = _as_int(body.get("limit"), "limit", _DEFAULT_PAGE_LIMIT)
        page = record.page(0, limit)
        page.update(record.describe())
        page["columns"] = record.report.schema.names
        page["budget"] = self.app.budget(record.session_id)["remaining"]
        self._send_json(200, page)
        self._serialize_span(obs, record, t_serialize, streamed=False)

    def _serialize_span(self, obs, record, start: float, streamed: bool) -> None:
        if obs is None:
            return
        now = obs.clock.monotonic()
        obs.tracer.record_span(
            record.request_id,
            "serialize",
            start=start,
            end=now,
            attrs={"streamed": streamed, "released_rows": record.num_released},
        )
        obs.add_phase("serialize", now - start)


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server carrying the :class:`ServiceApp` instance."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, app: ServiceApp, quiet: bool = True):
        super().__init__(address, _ServiceHandler)
        self.app = app
        self.quiet = quiet


def build_server(
    app: ServiceApp, host: str = "127.0.0.1", port: int = 0, quiet: bool = True
) -> ServiceHTTPServer:
    """Bind the JSON API to ``host:port`` (port 0 = ephemeral) without serving.

    Call ``serve_forever()`` on the result (or run it in a thread); the bound
    port is ``server.server_address[1]``.
    """
    return ServiceHTTPServer((host, port), app, quiet=quiet)
