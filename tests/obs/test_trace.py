"""The tracer: span lifecycle, LRU retention, torn-tail-tolerant trace log."""

import json

import pytest

from repro.obs import (
    ManualClock,
    PhaseProfile,
    Telemetry,
    TraceCorruptionError,
    TraceLog,
    Tracer,
    phase,
    profiled,
    read_trace_log,
)
from repro.obs.profile import current_profile

pytestmark = pytest.mark.analysis


class TestSpans:
    def test_context_manager_times_with_injected_clock(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("r1", "work") as span:
            clock.advance(2.5)
        trace = tracer.trace("r1")
        assert len(trace["spans"]) == 1
        record = trace["spans"][0]
        assert record["name"] == "work"
        assert record["end"] - record["start"] == pytest.approx(2.5)
        assert span.span_id == record["span"]

    def test_span_ids_are_deterministic_counters(self):
        tracer = Tracer(clock=ManualClock())
        first = tracer.start_span("r1", "a")
        second = tracer.start_span("r1", "b")
        try:
            assert (first.span_id, second.span_id) == ("s00000001", "s00000002")
        finally:
            first.end()
            second.end()

    def test_end_is_idempotent(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        span = tracer.start_span("r1", "a")
        span.end()
        clock.advance(10)
        span.end()
        assert len(tracer.trace("r1")["spans"]) == 1

    def test_parentless_spans_reparent_to_root(self):
        tracer = Tracer(clock=ManualClock())
        root = tracer.start_span("r1", "request")
        tracer.record_span("r1", "late", start=1.0, end=2.0)
        root.end()
        trace = tracer.trace("r1")
        by_name = {record["name"]: record for record in trace["spans"]}
        assert by_name["request"]["parent"] is None
        assert by_name["late"]["parent"] == by_name["request"]["span"]

    def test_trace_lru_eviction(self):
        tracer = Tracer(clock=ManualClock(), max_traces=2)
        for rid in ("r1", "r2", "r3"):
            tracer.record_span(rid, "x", start=0.0, end=1.0)
        assert tracer.trace("r1") is None
        assert tracer.trace("r2") is not None
        assert tracer.trace("r3") is not None

    def test_span_cap_counts_dropped(self):
        tracer = Tracer(clock=ManualClock(), max_spans_per_trace=2)
        for _ in range(5):
            tracer.record_span("r1", "x", start=0.0, end=1.0)
        trace = tracer.trace("r1")
        assert len(trace["spans"]) == 2
        assert trace["dropped_spans"] == 3

    def test_unknown_trace_is_none(self):
        assert Tracer(clock=ManualClock()).trace("nope") is None


class TestTraceLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        log = TraceLog(path)
        log.append({"span": "s1", "name": "a"})
        log.append({"span": "s2", "name": "b"})
        log.close()
        assert [r["span"] for r in read_trace_log(path)] == ["s1", "s2"]

    def test_torn_final_line_dropped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        log = TraceLog(path)
        log.append({"span": "s1"})
        log.append({"span": "s2"})
        log.close()
        raw = path.read_bytes()
        path.write_bytes(raw[:-9])  # tear the final record mid-JSON
        assert [r["span"] for r in read_trace_log(path)] == ["s1"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"span": "s1"\n{"span": "s2"}\n')
        with pytest.raises(TraceCorruptionError):
            read_trace_log(path)

    def test_missing_file_is_empty(self, tmp_path):
        assert read_trace_log(tmp_path / "absent.jsonl") == []

    def test_tracer_streams_finished_spans(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(clock=ManualClock(), log=TraceLog(path))
        with tracer.span("r1", "work"):
            pass
        tracer.close()
        records = read_trace_log(path)
        assert [r["name"] for r in records] == ["work"]
        # every line is standalone JSON with sorted keys
        line = path.read_text().splitlines()[0]
        assert line == json.dumps(json.loads(line), sort_keys=True)


class TestPhaseProfile:
    def test_phase_is_noop_without_active_profile(self):
        assert current_profile() is None
        with phase("sample"):
            pass  # must not raise, must not allocate a profile
        assert current_profile() is None

    def test_profiled_collects_nested_phases(self):
        profile = PhaseProfile()
        with profiled(profile):
            with phase("sample"):
                pass
            with phase("sample"):
                pass
            with phase("merge"):
                pass
        snapshot = profile.snapshot()
        assert snapshot["sample"]["calls"] == 2
        assert snapshot["merge"]["calls"] == 1

    def test_profiled_restores_previous(self):
        outer, inner = PhaseProfile(), PhaseProfile()
        with profiled(outer):
            with profiled(inner):
                assert current_profile() is inner
            assert current_profile() is outer
        assert current_profile() is None


class TestTelemetryHub:
    def test_catalog_renders_clean(self):
        from repro.obs.metrics import validate_exposition

        hub = Telemetry()
        hub.requests_total.inc(1, status="completed")
        hub.queue_wait_seconds.observe(0.01)
        hub.add_phase("sample", 0.2)
        assert validate_exposition(hub.metrics.render()) == []
        assert hub.phase_summary()["sample"]["calls"] == 1
        hub.close()

    def test_engine_event_maps_to_counters(self):
        hub = Telemetry()
        hub.engine_event("worker_restart", {"slot": 0})
        hub.engine_event("chunk_retry", {"chunk": 3})
        assert hub.worker_restarts_total.value() == 1
        assert hub.chunk_retries_total.value() == 1
        hub.close()
