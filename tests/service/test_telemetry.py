"""End-to-end telemetry (PR 10): /healthz shape, /metrics exposition,
trace-tree integrity under concurrent folds and worker SIGKILL, and the
conformance guarantee that telemetry never changes what is released.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs import Telemetry
from repro.obs.metrics import validate_exposition
from repro.service import ModelRegistry, ServiceApp, ServiceError, build_server
from repro.service.scheduler import (
    DeadlineExceededError,
    GenerateRequest,
    RequestScheduler,
)
from repro.testing import KillWorkerAtChunk
from repro.testing.invariants import assert_reports_identical
from repro.testing.scenarios import get_scenario

pytestmark = pytest.mark.service

SCENARIO = get_scenario("tiny-n")
FIT_SEED = 5

#: Metric names the scrape must always expose (the ISSUE's catalog core).
REQUIRED_METRICS = (
    "repro_requests_total",
    "repro_queue_wait_seconds",
    "repro_queue_depth",
    "repro_folds_total",
    "repro_fold_lanes",
    "repro_engine_utilization",
    "repro_chunk_retries_total",
    "repro_privacy_test_attempts_total",
    "repro_privacy_records_checked_total",
    "repro_tenant_rows_spent_total",
    "repro_phase_seconds_total",
)


def make_app(**kwargs) -> ServiceApp:
    app = ServiceApp(ModelRegistry(), num_workers=1, **kwargs)
    app.publish_model("tiny", SCENARIO.dataset(0), SCENARIO.config(), seed=FIT_SEED)
    return app


def span_index(trace: dict) -> dict:
    return {record["span"]: record for record in trace["spans"]}


def assert_single_tree(trace: dict) -> dict:
    """Every span's parent resolves inside the trace; exactly one root."""
    by_id = span_index(trace)
    roots = [r for r in trace["spans"] if r["parent"] is None]
    assert len(roots) == 1, [r["name"] for r in roots]
    for record in trace["spans"]:
        assert record["end"] >= record["start"]
        if record["parent"] is not None:
            assert record["parent"] in by_id, record
    return roots[0]


# --------------------------------------------------------------------------- #
# /healthz golden shape
# --------------------------------------------------------------------------- #
class TestHealthzShape:
    def test_golden_keys(self):
        with make_app() as app:
            session = app.create_session("tiny")["session_id"]
            app.generate(session, 2)
            payload = app.healthz()
        assert sorted(payload) == [
            "engines",
            "models",
            "privacy_test",
            "scheduler",
            "sessions",
            "status",
            "telemetry",
        ]
        assert sorted(payload["scheduler"]) == [
            "completed",
            "dispatchers_active",
            "dropped_before_fold",
            "failed",
            "fold_factor",
            "folded_lanes",
            "queue_depth",
            "utilization",
        ]
        assert payload["telemetry"]["enabled"] is True
        phases = payload["telemetry"]["phases"]
        for name in ("fit_cache", "reserve", "sample", "privacy_test", "commit"):
            assert name in phases, sorted(phases)
            assert phases[name]["calls"] >= 1
            assert phases[name]["seconds"] >= 0.0
        assert payload["scheduler"]["folded_lanes"] == 1
        assert payload["scheduler"]["dropped_before_fold"] == 0

    def test_telemetry_off_is_reported(self):
        with make_app(telemetry=False) as app:
            payload = app.healthz()
        assert payload["telemetry"] == {"enabled": False}


# --------------------------------------------------------------------------- #
# /metrics and /trace over a live HTTP server
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def live():
    app = make_app()
    server = build_server(app, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    yield app, f"http://{host}:{port}"
    server.shutdown()
    server.server_close()
    app.close()


def http_get(url):
    try:
        with urllib.request.urlopen(url, timeout=30) as response:
            return response.status, dict(response.headers), response.read().decode()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read().decode()


class TestHttpEndpoints:
    def test_metrics_is_valid_exposition_with_catalog(self, live):
        app, url = live
        session = app.create_session("tiny", tenant="acme")["session_id"]
        app.generate(session, 2)
        status, headers, body = http_get(f"{url}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert validate_exposition(body) == []
        for name in REQUIRED_METRICS:
            assert f"\n# TYPE {name} " in "\n" + body, name
        assert 'repro_tenant_rows_spent_total{tenant="acme"} 2' in body

    def test_trace_of_one_generate(self, live):
        app, url = live
        session = app.create_session("tiny")["session_id"]
        record = app.generate(session, 2)
        status, _headers, body = http_get(f"{url}/trace/{record.request_id}")
        assert status == 200
        trace = json.loads(body)
        assert trace["request_id"] == record.request_id
        names = {r["name"] for r in trace["spans"]}
        assert {
            "request",
            "reserve",
            "queue_wait",
            "fold",
            "engine_job",
            "engine_chunk",
            "privacy_test",
            "commit",
        } <= names
        root = assert_single_tree(trace)
        assert root["name"] == "request"
        test_span = next(r for r in trace["spans"] if r["name"] == "privacy_test")
        assert test_span["attrs"]["test_attempts"] > 0
        assert test_span["attrs"]["records_checked"] > 0

    def test_unknown_trace_404(self, live):
        _app, url = live
        status, _headers, body = http_get(f"{url}/trace/nope")
        assert status == 404
        assert json.loads(body)["code"] == "unknown_trace"

    def test_metrics_404_when_disabled(self):
        with make_app(telemetry=False) as app:
            with pytest.raises(ServiceError) as excinfo:
                app.metrics_text()
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError):
                app.trace("anything")


# --------------------------------------------------------------------------- #
# Queue-wait accounting and drop attribution (satellite fix)
# --------------------------------------------------------------------------- #
class TestSchedulerAccounting:
    def test_expired_request_counts_as_dropped_before_fold(self):
        telemetry = Telemetry()
        scheduler = RequestScheduler(
            lambda model_id, requests: [None] * len(requests),
            autostart=False,
            telemetry=telemetry,
        )
        late = scheduler.submit(
            GenerateRequest(
                request_id="r-late",
                model_id="m",
                num_rows=1,
                base_seed=1,
                deadline=time.monotonic() - 1.0,
            )
        )
        fresh = scheduler.submit(
            GenerateRequest(
                request_id="r-fresh",
                model_id="m",
                num_rows=1,
                base_seed=2,
                deadline=time.monotonic() + 60.0,
            )
        )
        scheduler.start()
        with pytest.raises(DeadlineExceededError):
            late.result(timeout=10)
        assert fresh.result(timeout=10) is None
        scheduler.close()
        stats = scheduler.stats()
        assert stats.dropped_before_fold == 1
        assert stats.folded_lanes == 1
        assert telemetry.fold_dropped_total.value(reason="expired") == 1
        assert telemetry.requests_total.value(status="failed") == 1
        assert telemetry.requests_total.value(status="completed") == 1
        telemetry.close()

    def test_queue_wait_measured_at_dequeue(self):
        with make_app() as app:
            session = app.create_session("tiny")["session_id"]
            record = app.generate(session, 2)
            trace = app.trace(record.request_id)
            stats = app.scheduler.stats()
        wait_span = next(r for r in trace["spans"] if r["name"] == "queue_wait")
        assert wait_span["end"] - wait_span["start"] == pytest.approx(
            stats.queue_wait_seconds, abs=1e-6
        )
        assert app.telemetry.queue_wait_seconds.count() == 1


# --------------------------------------------------------------------------- #
# Trace-tree integrity under a deterministically forced concurrent fold
# --------------------------------------------------------------------------- #
class _HoldFirstDispatch:
    def __init__(self):
        self._lock = threading.Lock()
        self._first = None
        self.first_seen = threading.Event()
        self.release = threading.Event()

    def __call__(self, request):
        with self._lock:
            if self._first is None:
                self._first = request.request_id
            first = self._first == request.request_id
        if first and not self.release.is_set():
            self.first_seen.set()
            if not self.release.wait(timeout=30):  # pragma: no cover
                raise RuntimeError("fold gate never released")


class TestConcurrentFoldTraces:
    def test_each_folded_lane_gets_a_complete_tree(self):
        seeds = (101, 202, 303)
        gate = _HoldFirstDispatch()
        with make_app(dispatch_hook=gate) as app:
            sessions = {s: app.create_session("tiny")["session_id"] for s in seeds}
            records, failures = {}, []

            def client(seed):
                try:
                    records[seed] = app.generate(sessions[seed], 2, seed=seed)
                except BaseException as exc:  # pragma: no cover
                    failures.append(exc)

            threads = [
                threading.Thread(target=client, args=(seed,)) for seed in seeds
            ]
            threads[0].start()
            assert gate.first_seen.wait(timeout=30)
            for thread in threads[1:]:
                thread.start()
            deadline = time.monotonic() + 30
            while app.scheduler.queue_depth() < len(seeds) - 1:
                assert time.monotonic() < deadline, "requests never queued"
                time.sleep(0.005)
            gate.release.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures

            lanes_seen = []
            for seed in seeds:
                trace = app.trace(records[seed].request_id)
                root = assert_single_tree(trace)
                assert root["name"] == "request"
                by_name = {}
                for record in trace["spans"]:
                    by_name.setdefault(record["name"], []).append(record)
                for required in ("queue_wait", "fold", "engine_job", "privacy_test"):
                    assert len(by_name[required]) == 1, (seed, required)
                assert len(by_name["engine_chunk"]) >= 1
                fold = by_name["fold"][0]
                lanes_seen.append(fold["attrs"]["lanes"])
                # chunk spans nest under this trace's engine_job, not a
                # sibling lane's
                engine_id = by_name["engine_job"][0]["span"]
                for chunk in by_name["engine_chunk"]:
                    assert chunk["parent"] == engine_id
            # the held-back pair demonstrably folded
            assert sorted(lanes_seen) == [1, 2, 2]
            stats = app.scheduler.stats()
            assert stats.folded_lanes == len(seeds)
            assert app.telemetry.fold_lanes.count() == 2


# --------------------------------------------------------------------------- #
# SIGKILL chaos round: the trace records the restart; rows stay identical
# --------------------------------------------------------------------------- #
class _FaultyApp(ServiceApp):
    """Injects a worker-kill fault into every engine the pool builds."""

    def set_fault(self, fault):
        self._chaos_fault = fault

    def _build_engine(self, model_id):
        engine = super()._build_engine(model_id)
        engine._fault_injector = self._chaos_fault
        return engine


@pytest.mark.chaos
class TestChaosTrace:
    def test_worker_restart_lands_in_trace_and_metrics(self, tmp_path):
        scenario = get_scenario("toy-correlated")
        rows = 24  # ~3 chunks of attempts, so chunk 1 definitely executes

        with ServiceApp(ModelRegistry(), num_workers=2) as app:
            app.publish_model(
                "toy", scenario.dataset(0), scenario.config(), seed=FIT_SEED
            )
            session = app.create_session("toy")["session_id"]
            undisturbed = app.generate(session, rows, seed=101)

        fault = KillWorkerAtChunk(chunk_index=1, marker_dir=str(tmp_path), times=1)
        app = _FaultyApp(ModelRegistry(), num_workers=2)
        app.set_fault(fault)
        try:
            app.publish_model(
                "toy", scenario.dataset(0), scenario.config(), seed=FIT_SEED
            )
            session = app.create_session("toy")["session_id"]
            record = app.generate(session, rows, seed=101)
            assert fault.kills_fired() == 1
            assert_reports_identical(undisturbed.report, record.report)
            np.testing.assert_array_equal(
                undisturbed.report.released_dataset().data,
                record.report.released_dataset().data,
            )
            trace = app.trace(record.request_id)
            assert_single_tree(trace)
            names = [r["name"] for r in trace["spans"]]
            assert "worker_restart" in names
            assert app.telemetry.worker_restarts_total.value() == 1
            assert app.telemetry.chunk_retries_total.value() >= 1
            health = app.healthz()
            assert health["status"] == "ok"
        finally:
            app.close()


# --------------------------------------------------------------------------- #
# Conformance: telemetry on vs off is bit-identical in everything released
# --------------------------------------------------------------------------- #
def _strip_timestamps(ledger):
    return [
        {key: value for key, value in event.items() if key != "timestamp"}
        for event in ledger
    ]


@pytest.mark.conformance_smoke
class TestTelemetryConformance:
    def test_rows_ledger_and_spend_identical_on_vs_off(self):
        results = {}
        for enabled in (True, False):
            with make_app(telemetry=enabled) as app:
                session_id = app.create_session("tiny")["session_id"]
                record = app.generate(session_id, 3, seed=77)
                session = app._session(session_id)
                results[enabled] = {
                    "rows": record.report.released_dataset().data,
                    "spent": session.spent(),
                    "ledger": _strip_timestamps(session.ledger()),
                    "attempts": record.report.num_attempts,
                }
        on, off = results[True], results[False]
        np.testing.assert_array_equal(on["rows"], off["rows"])
        assert on["spent"] == off["spent"]
        assert on["ledger"] == off["ledger"]
        assert on["attempts"] == off["attempts"]
