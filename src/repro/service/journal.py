"""Durable budget journal: append-only JSON-lines spend event log.

A service restart must not reset tenant privacy budgets — forgetting spent
(ε, δ) is a privacy violation, not merely an availability bug.  The journal
records every budget-relevant event (``session_created`` / ``reserve`` /
``commit`` / ``cancel`` / ``release``) as one JSON line: a single
line-buffered handle held under a lock, one ``flush()`` per line, and
optional ``fsync`` for crash-safe mode.  The service's audit log is written
through the same class.  :class:`~repro.service.api.ServiceApp` replays the
journal on startup, re-driving the events through the real
:class:`~repro.service.session.TenantSession` reserve → commit protocol so
budgets, session/release counters and idempotency records are restored
exactly; reservations that never settled (the process died between reserve
and commit) are refunded at the end of replay.

The reader tolerates a truncated final line — exactly what a crash mid-write
leaves behind — but treats a malformed line *before* the tail as corruption
and refuses to guess.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

import numpy as np

__all__ = ["BudgetJournal", "JournalCorruptionError", "json_default", "read_journal"]


def json_default(value):
    """``json.dumps`` hook: a numpy scalar encodes as the Python value it holds."""
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class JournalCorruptionError(ValueError):
    """A journal line before the final one failed to parse.

    A partial *last* line is the expected signature of a crash mid-append
    and is silently dropped; garbage earlier in the file means the journal
    was edited or damaged, and replaying a guess could misstate spend.
    """


class BudgetJournal:
    """Append-only JSON-lines event log with per-line flush.

    Thread-safe: one lazily opened line-buffered handle is shared under a
    lock (never reopened per event).  With ``fsync=True`` every line is
    forced to stable storage before :meth:`append` returns, making the
    journal crash-safe at the cost of one ``fsync`` per budget event.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False):
        self._path = Path(path)
        self._fsync = fsync
        self._lock = threading.Lock()
        self._handle = None  # repro: guarded-by[_lock]

    @property
    def path(self) -> Path:
        return self._path

    def append(self, event: dict) -> None:
        """Write one event as a JSON line and flush it to the OS (or disk)."""
        line = json.dumps(event, sort_keys=True, default=json_default)
        with self._lock:
            if self._handle is None:
                if self._path.parent != Path("."):
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

    def __enter__(self) -> "BudgetJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_journal(path: str | Path) -> list[dict]:
    """Parse a journal back into its event dicts, tolerating a torn tail.

    Returns ``[]`` for a missing or empty journal.  A final line that fails
    to parse (a crash interrupted the write) is dropped; a malformed line
    anywhere else raises :class:`JournalCorruptionError`.
    """
    path = Path(path)
    if not path.exists():
        return []
    raw_lines = path.read_text(encoding="utf-8").splitlines()
    events: list[dict] = []
    for number, raw in enumerate(raw_lines):
        if not raw.strip():
            continue
        try:
            event = json.loads(raw)
        except json.JSONDecodeError as exc:
            if number == len(raw_lines) - 1:
                break  # torn tail from a crash mid-append: drop it
            raise JournalCorruptionError(
                f"journal {path} line {number + 1} is not valid JSON "
                f"({exc}); refusing to replay a damaged journal"
            ) from exc
        if not isinstance(event, dict):
            raise JournalCorruptionError(
                f"journal {path} line {number + 1} is not a JSON object"
            )
        events.append(event)
    return events
