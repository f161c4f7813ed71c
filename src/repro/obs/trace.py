"""Hierarchical request tracing with deterministic span ids.

A :class:`Tracer` produces :class:`Span` records keyed by the service's
``request_id``.  Span ids come from a process-local counter — telemetry
consumes **zero** randomness — and every timestamp is a reading of the
tracer's injectable monotonic clock.  One wall-clock anchor
(:func:`repro.obs.clock.wall_anchor`) is recorded at tracer creation so
operators can convert monotonic offsets to wall time; it never feeds back
into synthesis.

Finished spans are retained in a bounded per-trace LRU (for
``GET /trace/<request_id>``) and optionally appended to a
:class:`TraceLog`, a :class:`~repro.obs.jsonlog.JsonLinesLog` like the
service's ``BudgetJournal``: one shared line-buffered writer under a lock,
one ``json.dumps(sort_keys=True)`` object per line, flushed per line, and a
reader that drops only a torn final line.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from repro.obs.clock import Clock, wall_anchor
from repro.obs.jsonlog import JsonLinesLog, read_json_lines


class TraceCorruptionError(RuntimeError):
    """A trace log line before the final one failed to parse."""


class TraceLog(JsonLinesLog):
    """Append-only JSON-lines span log (the ``BudgetJournal`` format)."""


def read_trace_log(path: str | Path) -> List[Dict]:
    """Read a trace log, dropping a torn final line (a crash mid-append)
    but refusing corruption anywhere earlier."""
    return read_json_lines(path, TraceCorruptionError)


class Span:
    """One timed operation inside a trace.  Close with :meth:`end` (in a
    ``finally``) or via ``Tracer.span(...)`` as a context manager."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end_time",
        "attrs",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        start: float,
        attrs: Optional[Dict] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end_time: Optional[float] = None
        self.attrs: Dict = dict(attrs or {})
        self._tracer = tracer

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def end(self, end: Optional[float] = None) -> None:
        if self.end_time is not None:
            return
        tracer = self._tracer
        self.end_time = (
            float(end) if end is not None else tracer.clock.monotonic()
        )
        tracer._finish(self)

    def to_dict(self) -> Dict:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end_time,
            "attrs": self.attrs,
        }


class Tracer:
    """Produces spans and retains finished ones per trace id (LRU)."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        log: Optional[TraceLog] = None,
        max_traces: int = 256,
        max_spans_per_trace: int = 4096,
    ) -> None:
        self.clock = clock or Clock()
        self.wall_anchor = wall_anchor()
        self.monotonic_anchor = self.clock.monotonic()
        self._log = log
        self._max_traces = max(1, int(max_traces))
        self._max_spans = max(1, int(max_spans_per_trace))
        self._lock = threading.Lock()
        self._counter = 0
        self._traces: "OrderedDict[str, List[Dict]]" = OrderedDict()
        self._truncated: Dict[str, int] = {}

    def _next_span_id(self) -> str:
        with self._lock:
            self._counter += 1
            return f"s{self._counter:08d}"

    def start_span(
        self,
        trace_id: str,
        name: str,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict] = None,
        start: Optional[float] = None,
    ) -> Span:
        begin = float(start) if start is not None else self.clock.monotonic()
        return Span(
            self, trace_id, self._next_span_id(), parent_id, name, begin, attrs
        )

    @contextmanager
    def span(
        self,
        trace_id: str,
        name: str,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict] = None,
    ) -> Iterator[Span]:
        active = self.start_span(trace_id, name, parent_id, attrs)
        try:
            yield active
        finally:
            active.end()

    def record_span(
        self,
        trace_id: str,
        name: str,
        start: float,
        end: float,
        parent_id: Optional[str] = None,
        attrs: Optional[Dict] = None,
    ) -> Span:
        """Record an already-elapsed operation (e.g. queue wait measured
        at dequeue) as a finished span."""
        recorded = Span(
            self,
            trace_id,
            self._next_span_id(),
            parent_id,
            name,
            float(start),
            attrs,
        )
        recorded.end(end=float(end))
        return recorded

    def event(
        self,
        trace_id: str,
        name: str,
        attrs: Optional[Dict] = None,
        parent_id: Optional[str] = None,
    ) -> Span:
        """A point-in-time marker (worker restart, chunk retry, ...)
        recorded as a zero-duration span."""
        now = self.clock.monotonic()
        return self.record_span(trace_id, name, now, now, parent_id, attrs)

    def _finish(self, span: Span) -> None:
        record = span.to_dict()
        with self._lock:
            spans = self._traces.get(span.trace_id)
            if spans is None:
                spans = []
                self._traces[span.trace_id] = spans
                while len(self._traces) > self._max_traces:
                    evicted, _ = self._traces.popitem(last=False)
                    self._truncated.pop(evicted, None)
            else:
                self._traces.move_to_end(span.trace_id)
            if len(spans) < self._max_spans:
                spans.append(record)
            else:
                self._truncated[span.trace_id] = (
                    self._truncated.get(span.trace_id, 0) + 1
                )
        if self._log is not None:
            self._log.append(record)

    def trace(self, trace_id: str) -> Optional[Dict]:
        """The finished spans of one trace, root-first, or ``None`` if the
        trace is unknown (never seen, or evicted)."""
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                return None
            snapshot = [dict(record) for record in spans]
            dropped = self._truncated.get(trace_id, 0)
        snapshot.sort(key=lambda record: (record["start"], record["span"]))
        # Spans recorded with no explicit parent attach to the trace root
        # (the earliest parentless span) so every trace has a single tree.
        root_id = None
        for record in snapshot:
            if record["parent"] is None:
                if root_id is None:
                    root_id = record["span"]
                elif record["span"] != root_id:
                    record["parent"] = root_id
        return {
            "request_id": trace_id,
            "wall_anchor": self.wall_anchor,
            "monotonic_anchor": self.monotonic_anchor,
            "dropped_spans": dropped,
            "spans": snapshot,
        }

    def trace_ids(self) -> List[str]:
        with self._lock:
            return list(self._traces)

    def close(self) -> None:
        if self._log is not None:
            self._log.close()
