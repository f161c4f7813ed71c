"""The one JSON-lines format behind the budget journal and the trace log."""

import json

import numpy as np
import pytest

from repro.obs.jsonlog import JsonLinesLog
from repro.obs.trace import TraceCorruptionError, TraceLog, read_trace_log
from repro.service.journal import BudgetJournal, JournalCorruptionError, read_journal

LOGS = pytest.mark.parametrize(
    "log_class,read,error",
    [
        (BudgetJournal, read_journal, JournalCorruptionError),
        (TraceLog, read_trace_log, TraceCorruptionError),
    ],
    ids=["journal", "trace"],
)


@LOGS
def test_both_logs_share_one_writer(log_class, read, error, tmp_path):
    assert issubclass(log_class, JsonLinesLog)
    path = tmp_path / "nested" / "log.jsonl"
    with log_class(path, fsync=True) as log:
        log.append({"b": np.int64(2), "a": np.float64(0.5)})
        log.append({"event": "second"})
    assert path.read_text().splitlines()[0] == json.dumps({"a": 0.5, "b": 2}, sort_keys=True)
    assert read(path) == [{"a": 0.5, "b": 2}, {"event": "second"}]


@LOGS
def test_blank_lines_are_skipped_wherever_they_are(log_class, read, error, tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('\n{"n": 1}\n\n  \n{"n": 2}\n\n')
    assert read(path) == [{"n": 1}, {"n": 2}]


@LOGS
def test_a_torn_last_record_is_dropped_past_blank_lines(log_class, read, error, tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 1}\n{"n": 2\n\n')
    assert read(path) == [{"n": 1}]


@LOGS
def test_a_damaged_record_before_the_last_raises(log_class, read, error, tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"n": 1\n\n{"n": 2}\n')
    with pytest.raises(error, match="line 1 is not valid JSON"):
        read(path)
    path.write_text('{"n": 1}\n[1, 2]\n{"n": 2}\n')
    with pytest.raises(error, match="line 2 is not a JSON object"):
        read(path)


@LOGS
def test_missing_and_empty_logs_read_empty(log_class, read, error, tmp_path):
    assert read(tmp_path / "absent.jsonl") == []
    (tmp_path / "empty.jsonl").write_text("\n\n")
    assert read(tmp_path / "empty.jsonl") == []
