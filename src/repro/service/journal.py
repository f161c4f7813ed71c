"""Durable budget journal: append-only JSON-lines spend event log.

A service restart must not reset tenant privacy budgets — forgetting spent
(ε, δ) is a privacy violation, not merely an availability bug.  The journal
records every budget-relevant event (``session_created`` / ``reserve`` /
``commit`` / ``cancel`` / ``release``) as one JSON line: a single
line-buffered handle held under a lock, one ``flush()`` per line, and
optional ``fsync`` for crash-safe mode (:class:`~repro.obs.jsonlog.JsonLinesLog`,
shared with the trace log).  The service's audit log is written through the
same class.  :class:`~repro.service.api.ServiceApp` replays the
journal on startup, re-driving the events through the real
:class:`~repro.service.session.TenantSession` reserve → commit protocol so
budgets, session/release counters and idempotency records are restored
exactly; reservations that never settled (the process died between reserve
and commit) are refunded at the end of replay.

The reader tolerates a truncated final line — exactly what a crash mid-write
leaves behind — but treats a malformed line *before* the tail as corruption
and refuses to guess.  Blank lines are skipped.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.jsonlog import JsonLinesLog, json_default, read_json_lines

__all__ = ["BudgetJournal", "JournalCorruptionError", "json_default", "read_journal"]


class JournalCorruptionError(ValueError):
    """A journal line before the final one failed to parse.

    A partial *last* line is the expected signature of a crash mid-append
    and is silently dropped; garbage earlier in the file means the journal
    was edited or damaged, and replaying a guess could misstate spend.
    """


class BudgetJournal(JsonLinesLog):
    """Append-only JSON-lines budget event log with per-line flush.

    With ``fsync=True`` every line is forced to stable storage before
    :meth:`append` returns, making the journal crash-safe at the cost of one
    ``fsync`` per budget event.
    """


def read_journal(path: str | Path) -> list[dict]:
    """Parse a journal back into its event dicts, tolerating a torn tail.

    Returns ``[]`` for a missing or empty journal.  Blank lines are skipped.
    A final line that fails to parse (a crash interrupted the write) is
    dropped; a malformed line anywhere else raises
    :class:`JournalCorruptionError`.
    """
    return read_json_lines(path, JournalCorruptionError)
