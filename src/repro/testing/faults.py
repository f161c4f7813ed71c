"""Chaos harness: injectable fault points for the fault-tolerance suite.

Each fault is a small picklable object handed to the component under test
(the engine's ``fault_injector``, the scheduler's ``dispatch_hook``) so the
failure fires at a *deterministic* point in the pipeline — "SIGKILL the
worker assigned chunk 2", "delay every dispatch past the deadline" — and
the recovery path can be asserted bit-identical to the undisturbed run via
the shared :mod:`repro.testing.invariants` checkers.

Faults that kill processes coordinate through a marker directory instead of
in-memory state: a respawned worker is a *fresh* process, so "kill N times"
must survive re-pickling.  Each kill atomically claims one marker file
(``open(..., "x")``); once the markers are exhausted the fault is spent and
every retry executes normally.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "DelayChunk",
    "DispatchDelayFault",
    "KillWorkerAtChunk",
    "truncate_file_tail",
]


@dataclass(frozen=True)
class KillWorkerAtChunk:
    """SIGKILL the worker process that is assigned ``chunk_index``.

    Fired by the engine worker *after* it has received the chunk's
    assignment but *before* executing it, so the chunk is the one assignment
    the dead worker held, as when a real OOM kill loses an uncommitted chunk.  ``times`` bounds how many
    kills the fault may perform across respawns (coordinated through
    ``marker_dir``), so ``times = max_chunk_retries + 1`` forces retry
    exhaustion while ``times = 1`` exercises clean recovery.
    """

    chunk_index: int
    marker_dir: str
    times: int = 1

    def fire(self, chunk_index: int) -> None:
        if chunk_index != self.chunk_index:
            return
        for attempt in range(self.times):
            marker = Path(self.marker_dir) / f"kill.{attempt}"
            try:
                with open(marker, "x"):
                    pass
            except FileExistsError:
                continue  # this kill was already spent by an earlier process
            os.kill(os.getpid(), signal.SIGKILL)

    def kills_fired(self) -> int:
        """How many kills have been spent so far (parent-side assertion)."""
        return sum(
            1
            for attempt in range(self.times)
            if (Path(self.marker_dir) / f"kill.{attempt}").exists()
        )


@dataclass(frozen=True)
class DelayChunk:
    """Hold the worker assigned ``chunk_index`` for ``seconds`` before it runs it.

    Fixes the order in which a pool's results reach the parent, so a test can
    watch what the parent assigns while that chunk is still in flight.
    """

    chunk_index: int
    seconds: float

    def fire(self, chunk_index: int) -> None:
        if chunk_index == self.chunk_index:
            time.sleep(self.seconds)


@dataclass(frozen=True)
class DispatchDelayFault:
    """Stall the scheduler's dispatch of each request by ``seconds``.

    Installed as the scheduler's ``dispatch_hook`` (which runs *before* the
    deadline check), it deterministically expires any request whose deadline
    is shorter than the delay — the 504-refund path — without relying on
    queue-contention timing.  ``only_request_ids`` restricts the stall to
    specific requests (empty/None = all).
    """

    seconds: float
    only_request_ids: tuple[str, ...] | None = None

    def __call__(self, request) -> None:
        if (
            self.only_request_ids
            and getattr(request, "request_id", None) not in self.only_request_ids
        ):
            return
        time.sleep(self.seconds)


def truncate_file_tail(path: str | Path, drop_bytes: int) -> int:
    """Chop ``drop_bytes`` off the end of ``path``, as a crash mid-write would.

    Returns the new size.  Used to prove journal replay tolerates a torn
    final line (and *only* the final line) without misstating spend.
    """
    path = Path(path)
    size = path.stat().st_size
    new_size = max(0, size - int(drop_bytes))
    with open(path, "rb+") as handle:
        handle.truncate(new_size)
    return new_size
