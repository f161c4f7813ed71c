"""Budget-governed tenant session semantics."""

import threading

import pytest

from repro.service.session import (
    LEDGER_EVENTS,
    BudgetExceededError,
    SessionBudget,
    TenantSession,
)

pytestmark = pytest.mark.service


def make_session(budget: SessionBudget, per_row=(0.5, 1e-6), model_k=8, **kwargs):
    return TenantSession(
        session_id="s1",
        tenant="acme",
        model_id="m" * 64,
        budget=budget,
        per_row_cost=per_row,
        model_k=model_k,
        **kwargs,
    )


class TestSessionBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SessionBudget(epsilon=-1)
        with pytest.raises(ValueError):
            SessionBudget(delta=2.0)
        with pytest.raises(ValueError):
            SessionBudget(max_rows=-1)
        with pytest.raises(ValueError):
            SessionBudget(min_k=0)

    def test_k_floor_rejects_weak_models(self):
        with pytest.raises(ValueError, match="k-deniability floor"):
            make_session(SessionBudget(min_k=50), model_k=10)

    def test_k_floor_accepts_strong_models(self):
        session = make_session(SessionBudget(min_k=8), model_k=8)
        assert session.model_k == 8


class TestReserveCommit:
    def test_reserve_holds_worst_case(self):
        session = make_session(SessionBudget(epsilon=10.0, max_rows=100))
        session.reserve("r1", 4)
        remaining = session.remaining()
        assert remaining["epsilon"] == pytest.approx(10.0 - 4 * 0.5)
        assert remaining["rows"] == 96

    def test_commit_refunds_unreleased_rows(self):
        session = make_session(SessionBudget(epsilon=10.0, max_rows=100))
        reservation = session.reserve("r1", 4)
        session.commit(reservation, 1)  # only 1 of 4 passed the privacy test
        assert session.spent() == {"rows": 1, "epsilon": pytest.approx(0.5),
                                   "delta": pytest.approx(1e-6)}
        assert session.remaining()["rows"] == 99

    def test_commit_records_one_accountant_entry(self):
        session = make_session(SessionBudget(epsilon=10.0))
        reservation = session.reserve("r1", 3)
        session.commit(reservation, 3)
        (entry,) = session.accountant.entries
        assert entry.count == 3
        assert entry.epsilon == 0.5
        assert entry.scope == "session/s1"

    def test_zero_release_commit_spends_nothing(self):
        session = make_session(SessionBudget(epsilon=1.0))
        reservation = session.reserve("r1", 2)
        session.commit(reservation, 0)
        assert session.spent()["epsilon"] == 0.0
        assert session.accountant.entries == []

    def test_cancel_releases_the_hold(self):
        session = make_session(SessionBudget(max_rows=4))
        reservation = session.reserve("r1", 4)
        session.cancel(reservation)
        assert session.remaining()["rows"] == 4
        session.reserve("r2", 4)  # the budget is free again

    def test_commit_more_than_reserved_rejected(self):
        session = make_session(SessionBudget())
        reservation = session.reserve("r1", 2)
        with pytest.raises(ValueError, match="cannot commit"):
            session.commit(reservation, 3)


class TestRefusal:
    def test_overspend_refused_with_remainder(self):
        session = make_session(SessionBudget(epsilon=1.0))
        with pytest.raises(BudgetExceededError) as info:
            session.reserve("r1", 3)  # 3 * 0.5 = 1.5 > 1.0
        assert info.value.remaining["epsilon"] == pytest.approx(1.0)
        # Nothing was held by the refused request.
        session.reserve("r2", 2)

    def test_outstanding_reservations_count_against_new_requests(self):
        session = make_session(SessionBudget(max_rows=5))
        session.reserve("r1", 4)
        with pytest.raises(BudgetExceededError) as info:
            session.reserve("r2", 2)
        assert info.value.remaining["rows"] == 1

    def test_refusal_never_partial(self):
        # A request that half-fits is refused entirely, not trimmed.
        session = make_session(SessionBudget(max_rows=3))
        with pytest.raises(BudgetExceededError):
            session.reserve("r1", 5)
        assert session.spent()["rows"] == 0
        assert session.remaining()["rows"] == 3

    def test_refusal_recorded_in_ledger(self):
        session = make_session(SessionBudget(max_rows=1))
        with pytest.raises(BudgetExceededError):
            session.reserve("r1", 2)
        events = [event["event"] for event in session.ledger()]
        assert events == ["refusal"]


class TestConcurrency:
    def test_concurrent_reservations_never_jointly_overspend(self):
        # 16 threads race to reserve 1 row each against a 5-row budget:
        # exactly 5 must win, the rest must be refused.
        session = make_session(SessionBudget(max_rows=5))
        wins, refusals = [], []
        barrier = threading.Barrier(16)

        def worker(index: int) -> None:
            barrier.wait()
            try:
                reservation = session.reserve(f"r{index}", 1)
            except BudgetExceededError:
                refusals.append(index)
            else:
                session.commit(reservation, 1)
                wins.append(index)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(wins) == 5
        assert len(refusals) == 11
        assert session.spent()["rows"] == 5
        assert session.remaining()["rows"] == 0

    def test_audit_sink_sees_every_event(self):
        events = []
        session = make_session(SessionBudget(max_rows=10), audit_sink=events.append)
        reservation = session.reserve("r1", 2)
        session.commit(reservation, 2)
        assert [event["event"] for event in events] == ["reserve", "commit"]
        assert session.ledger() == events

    def test_ledger_keeps_the_newest_events(self):
        events = []
        session = make_session(SessionBudget(), audit_sink=events.append)
        requests = LEDGER_EVENTS + 10
        for index in range(requests):
            session.commit(session.reserve(f"r{index}", 1), 1)
        ledger = session.ledger()
        assert len(ledger) == LEDGER_EVENTS
        assert ledger == events[-LEDGER_EVENTS:]
        assert ledger[-1]["event"] == "commit"
        assert ledger[-1]["request_id"] == f"r{requests - 1}"
        # The sink, like the journal behind it, still saw every event, and
        # the accountant still holds every commit.
        assert len(events) == 2 * requests
        assert session.spent()["rows"] == requests
        assert len(session.accountant.entries) == requests
