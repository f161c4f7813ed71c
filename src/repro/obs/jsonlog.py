"""Append-only JSON-lines logs: one writer and one torn-tail-tolerant reader.

The budget journal and audit log (:mod:`repro.service.journal`) and the span
log (:mod:`repro.obs.trace`) are both one JSON object per line.  A crash
mid-append leaves at most a torn final line, which the reader drops; an
earlier line that fails to parse is corruption.  Blank lines are skipped.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np

__all__ = ["JsonLinesLog", "json_default", "read_json_lines"]


def json_default(value):
    """``json.dumps`` hook: a numpy scalar encodes as the Python value it holds."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class JsonLinesLog:
    """Append-only JSON-lines log with per-line flush.

    Thread-safe: one lazily opened line-buffered handle is shared under a
    lock (never reopened per record).  With ``fsync=True`` every line is
    forced to stable storage before :meth:`append` returns.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False):
        self._path = Path(path)
        self._fsync = fsync
        self._lock = threading.Lock()
        self._handle = None  # repro: guarded-by[_lock]

    @property
    def path(self) -> Path:
        return self._path

    def append(self, record: dict) -> None:
        """Write one record as a JSON line and flush it to the OS (or disk)."""
        line = json.dumps(record, sort_keys=True, default=json_default)
        with self._lock:
            if self._handle is None:
                self._path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self._path.open("a", encoding="utf-8", buffering=1)
            self._handle.write(line + "\n")
            self._handle.flush()
            if self._fsync:
                os.fsync(self._handle.fileno())

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "JsonLinesLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_json_lines(path: str | Path, error: type[Exception] = ValueError) -> list[dict]:
    """Parse a JSON-lines log back into its records, tolerating a torn tail.

    Returns ``[]`` for a missing or empty file.  Blank lines are skipped.  The
    last non-blank line is dropped if it fails to parse (a crash interrupted
    its write); any other line that fails to parse, or that holds something
    other than a JSON object, raises ``error``.
    """
    path = Path(path)
    if not path.exists():
        return []
    text = path.read_text(encoding="utf-8")
    lines = [(number, raw) for number, raw in enumerate(text.splitlines(), 1) if raw.strip()]
    records: list[dict] = []
    for position, (number, raw) in enumerate(lines):
        try:
            record = json.loads(raw)
        except json.JSONDecodeError as exc:
            if position == len(lines) - 1:
                break  # torn tail from a crash mid-append: drop it
            raise error(f"{path} line {number} is not valid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise error(f"{path} line {number} is not a JSON object")
        records.append(record)
    return records
