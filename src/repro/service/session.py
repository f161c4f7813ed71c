"""Budget-governed tenant sessions for the synthesis service.

A tenant opens a session against one published model and receives a hard
budget: a per-session (ε, δ) release allowance (charged per released row at
the model's Theorem 1 rate), an optional released-row cap, and a
k-deniability floor (a session may only attach to models whose privacy test
requires at least ``min_k`` plausible seeds).  The serving layer reserves the
full worst-case cost of a request *before* dispatching it and commits only
the rows that were actually released afterwards — a request that would
overspend is refused up front with the remaining budget, and a refused or
failed request never produces a partial release.

Spend is recorded on a shared :class:`~repro.privacy.accountant.PrivacyAccountant`
(whose ``spend`` is thread-safe), one entry per committed request, so the
session's ledger composes with the standard accountant machinery and the
conformance suite's :func:`~repro.testing.invariants.check_accountant_conservation`.
Every budget event (reserve, commit, refusal, cancel) also goes to an audit
sink the service persists as JSON lines; the session keeps the newest ones.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.privacy.accountant import PrivacyAccountant

__all__ = [
    "BudgetExceededError",
    "LEDGER_EVENTS",
    "SessionBudget",
    "Reservation",
    "TenantSession",
]

#: Budget events a session keeps for :meth:`TenantSession.ledger`, so its state
#: stays flat; the journal and the audit log hold the whole history.
LEDGER_EVENTS = 1024


class BudgetExceededError(RuntimeError):
    """A request was refused because it would overspend the session budget.

    ``remaining`` holds the budget left *after honouring every outstanding
    reservation* — exactly what the tenant may still ask for.
    """

    def __init__(self, message: str, remaining: dict):
        super().__init__(message)
        self.remaining = remaining


@dataclass(frozen=True)
class SessionBudget:
    """The hard limits of one tenant session.

    Parameters
    ----------
    epsilon, delta:
        Total (ε, δ) the session may spend on released rows, composed
        sequentially at the model's per-row Theorem 1 rate.  ``None`` leaves
        the corresponding dimension uncapped (e.g. for deterministic-test
        models whose releases carry no DP cost).
    max_rows:
        Cap on the total rows the session may release; ``None`` = uncapped.
        This is the binding dimension for deterministic-test models, whose
        guarantee is the k-deniability of each row rather than a DP spend.
    min_k:
        k-deniability floor: the session may only be opened against a model
        whose privacy test requires at least this many plausible seeds.
    """

    epsilon: float | None = None
    delta: float | None = None
    max_rows: int | None = None
    min_k: int = 1

    def __post_init__(self) -> None:
        if self.epsilon is not None and self.epsilon < 0:
            raise ValueError("budget epsilon must be non-negative")
        if self.delta is not None and not 0.0 <= self.delta <= 1.0:
            raise ValueError("budget delta must lie in [0, 1]")
        if self.max_rows is not None and self.max_rows < 0:
            raise ValueError("budget max_rows must be non-negative")
        if self.min_k < 1:
            raise ValueError("min_k must be at least 1")

    def to_dict(self) -> dict:
        """Plain-JSON form for API responses and audit records."""
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "max_rows": self.max_rows,
            "min_k": self.min_k,
        }


@dataclass(frozen=True)
class Reservation:
    """A worst-case budget hold for one in-flight request."""

    request_id: str
    rows: int
    epsilon: float
    delta: float


@dataclass
class _Spent:
    rows: int = 0
    epsilon: float = 0.0
    delta: float = 0.0


class TenantSession:
    """One tenant's budget-governed handle on a published model.

    All budget arithmetic happens under one lock, so concurrent requests can
    never jointly overspend: each sees the sum of committed spend plus every
    outstanding reservation.
    """

    def __init__(
        self,
        session_id: str,
        tenant: str,
        model_id: str,
        budget: SessionBudget,
        per_row_cost: tuple[float, float],
        model_k: int,
        accountant: PrivacyAccountant | None = None,
        audit_sink: "Callable[[dict], None] | None" = None,
        spend_hook: "Callable[[str, int, float, float], None] | None" = None,
    ):
        if model_k < budget.min_k:
            raise ValueError(
                f"model enforces k={model_k} plausible seeds but the session "
                f"requires a k-deniability floor of min_k={budget.min_k}"
            )
        eps_row, delta_row = per_row_cost
        if eps_row < 0 or delta_row < 0:
            raise ValueError("per-row cost must be non-negative")
        self.session_id = session_id
        self.tenant = tenant
        self.model_id = model_id
        self.budget = budget
        self.per_row_cost = (float(eps_row), float(delta_row))
        self.model_k = model_k
        self.accountant = accountant if accountant is not None else PrivacyAccountant()
        self._audit_sink = audit_sink
        # Telemetry-only observer called outside budget decisions as
        # ``spend_hook(tenant, rows, epsilon, delta)`` on every commit, so
        # the service can expose per-tenant spend counters on /metrics.
        self._spend_hook = spend_hook
        self._lock = threading.Lock()
        self._spent = _Spent()  # repro: guarded-by[_lock]
        self._reserved = _Spent()  # repro: guarded-by[_lock]
        self._active: dict[str, Reservation] = {}  # repro: guarded-by[_lock]
        self._events: deque[dict] = deque(maxlen=LEDGER_EVENTS)  # repro: guarded-by[_lock]
        self._sequence = 0  # repro: guarded-by[_lock]

    def next_sequence(self) -> int:
        """The next per-session request sequence number (thread-safe).

        Per-session (not service-global) so a derived request seed never
        depends on how requests from *other* sessions interleave with ours.
        """
        with self._lock:
            self._sequence += 1
            return self._sequence

    def advance_sequence(self, floor: int) -> None:
        """Raise the sequence counter to at least ``floor`` (never lowers it).

        Journal replay uses this so a restarted service hands out request ids
        (and therefore derived request seeds) that continue *after* the
        journaled history instead of colliding with it.
        """
        with self._lock:
            self._sequence = max(self._sequence, int(floor))

    def outstanding_reservations(self) -> list[Reservation]:
        """The reservations currently held but not yet committed/cancelled.

        Journal replay refunds exactly these: a reservation still active at
        the end of replay is one the crashed process never settled.
        """
        with self._lock:
            return list(self._active.values())

    # ------------------------------------------------------------------ #
    # Budget arithmetic (call under self._lock)
    # ------------------------------------------------------------------ #
    def _remaining_locked(self) -> dict:  # repro: requires-lock[_lock]
        budget = self.budget

        def _dim(limit: float | None, used: float) -> float | None:
            return None if limit is None else max(0.0, limit - used)

        remaining_rows = _dim(budget.max_rows, self._spent.rows + self._reserved.rows)
        return {
            "epsilon": _dim(budget.epsilon, self._spent.epsilon + self._reserved.epsilon),
            "delta": _dim(budget.delta, self._spent.delta + self._reserved.delta),
            "rows": int(remaining_rows) if remaining_rows is not None else None,
        }

    def _record(self, event: str, **fields) -> dict:  # repro: requires-lock[_lock]
        entry = {
            "event": event,
            "session_id": self.session_id,
            "tenant": self.tenant,
            "model_id": self.model_id,
            "timestamp": time.time(),
            **fields,
        }
        self._events.append(entry)
        if self._audit_sink is not None:
            self._audit_sink(entry)
        return entry

    # ------------------------------------------------------------------ #
    # Reservation protocol
    # ------------------------------------------------------------------ #
    def reserve(self, request_id: str, rows: int) -> Reservation:
        """Hold the worst-case cost of releasing ``rows`` rows, or refuse.

        Raises :class:`BudgetExceededError` — with the honest post-reservation
        remainder — when the request cannot fit; nothing is held in that case.
        """
        if rows < 1:
            raise ValueError("a request must ask for at least one row")
        eps_row, delta_row = self.per_row_cost
        cost = Reservation(
            request_id=request_id,
            rows=rows,
            epsilon=rows * eps_row,
            delta=rows * delta_row,
        )
        with self._lock:
            remaining = self._remaining_locked()
            over: list[str] = []
            if remaining["rows"] is not None and rows > remaining["rows"]:
                over.append(f"rows: requested {rows}, remaining {remaining['rows']}")
            if remaining["epsilon"] is not None and cost.epsilon > remaining["epsilon"] * (1 + 1e-12):
                over.append(
                    f"epsilon: request costs {cost.epsilon:.6g}, "
                    f"remaining {remaining['epsilon']:.6g}"
                )
            if remaining["delta"] is not None and cost.delta > remaining["delta"] * (1 + 1e-12):
                over.append(
                    f"delta: request costs {cost.delta:.6g}, "
                    f"remaining {remaining['delta']:.6g}"
                )
            if over:
                self._record(
                    "refusal", request_id=request_id, rows=rows,
                    reasons=over, remaining=remaining,
                )
                raise BudgetExceededError(
                    f"request {request_id!r} would overspend the session budget "
                    f"({'; '.join(over)})",
                    remaining=remaining,
                )
            self._reserved.rows += cost.rows
            self._reserved.epsilon += cost.epsilon
            self._reserved.delta += cost.delta
            self._active[request_id] = cost
            self._record(
                "reserve", request_id=request_id, rows=rows,
                epsilon=cost.epsilon, delta=cost.delta,
                remaining=self._remaining_locked(),
            )
        return cost

    def _release_hold(self, reservation: Reservation) -> None:  # repro: requires-lock[_lock]
        self._reserved.rows -= reservation.rows
        self._reserved.epsilon -= reservation.epsilon
        self._reserved.delta -= reservation.delta
        del self._active[reservation.request_id]

    def commit(self, reservation: Reservation, released_rows: int) -> None:
        """Convert a hold into actual spend for the rows really released.

        Rows the privacy test rejected are refunded: only ``released_rows``
        (never more than reserved) are charged, as one accountant entry.
        """
        if released_rows < 0:
            raise ValueError("released_rows must be non-negative")
        if released_rows > reservation.rows:
            raise ValueError(
                f"cannot commit {released_rows} rows against a reservation "
                f"of {reservation.rows}"
            )
        eps_row, delta_row = self.per_row_cost
        with self._lock:
            if self._active.get(reservation.request_id) is not reservation:
                raise KeyError(
                    f"reservation {reservation.request_id!r} is not active"
                )
            self._release_hold(reservation)
            self._spent.rows += released_rows
            self._spent.epsilon += released_rows * eps_row
            self._spent.delta += released_rows * delta_row
            if released_rows > 0:
                self.accountant.spend(
                    f"release/{reservation.request_id}",
                    eps_row,
                    delta_row,
                    count=released_rows,
                    scope=f"session/{self.session_id}",
                )
            self._record(
                "commit", request_id=reservation.request_id,
                reserved_rows=reservation.rows, released_rows=released_rows,
                epsilon=released_rows * eps_row, delta=released_rows * delta_row,
                remaining=self._remaining_locked(),
            )
        if self._spend_hook is not None:
            self._spend_hook(
                self.tenant,
                released_rows,
                released_rows * eps_row,
                released_rows * delta_row,
            )

    def cancel(self, reservation: Reservation, reason: str = "error") -> None:
        """Drop a hold without spending anything (failed/aborted request)."""
        with self._lock:
            if self._active.get(reservation.request_id) is not reservation:
                return  # already settled
            self._release_hold(reservation)
            self._record(
                "cancel", request_id=reservation.request_id,
                rows=reservation.rows, reason=reason,
                remaining=self._remaining_locked(),
            )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def remaining(self) -> dict:
        """Budget left after committed spend and outstanding reservations."""
        with self._lock:
            return self._remaining_locked()

    def spent(self) -> dict:
        """Committed spend so far (refunded reservations excluded)."""
        with self._lock:
            return {
                "rows": self._spent.rows,
                "epsilon": self._spent.epsilon,
                "delta": self._spent.delta,
            }

    def ledger(self) -> list[dict]:
        """The newest :data:`LEDGER_EVENTS` budget events, oldest first."""
        with self._lock:
            return [dict(event) for event in self._events]

    def describe(self) -> dict:
        """Plain-JSON summary for the ``/budget`` endpoint."""
        with self._lock:
            return {
                "session_id": self.session_id,
                "tenant": self.tenant,
                "model_id": self.model_id,
                "budget": self.budget.to_dict(),
                "per_row_cost": {
                    "epsilon": self.per_row_cost[0],
                    "delta": self.per_row_cost[1],
                },
                "model_k": self.model_k,
                "spent": {
                    "rows": self._spent.rows,
                    "epsilon": self._spent.epsilon,
                    "delta": self._spent.delta,
                },
                "reserved": {
                    "rows": self._reserved.rows,
                    "epsilon": self._reserved.epsilon,
                    "delta": self._reserved.delta,
                },
                "remaining": self._remaining_locked(),
            }
