"""Durable budget journal: crash-safe spend accounting across restarts.

A service restart must restore every tenant budget *exactly* — forgetting
spent (ε, δ) would be a privacy violation, not an availability bug.  These
tests drive the real :class:`ServiceApp` against an on-disk journal, restart
it, and check budgets, counters, idempotency records and refunds through the
shared conservation checkers.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.core.stream import STREAM_VERSION
from repro.service import ModelRegistry, ServiceApp, ServiceError
from repro.service.journal import (
    BudgetJournal,
    JournalCorruptionError,
    read_journal,
)
from repro.testing import truncate_file_tail
from repro.testing.invariants import (
    assert_reports_identical,
    check_accountant_conservation,
)
from repro.testing.scenarios import get_scenario

pytestmark = pytest.mark.service

SCENARIO = get_scenario("tiny-n")


def make_app(journal_path, **kwargs) -> ServiceApp:
    """A fresh service process: same journal, same republished model."""
    app = ServiceApp(ModelRegistry(), num_workers=1, journal=journal_path, **kwargs)
    # publish_model() happens *after* construction, exactly as in `repro
    # serve`: the journaled sessions stay staged until the content-hashed
    # model id is back in the registry, then replay.
    app.publish_model("tiny", SCENARIO.dataset(0), SCENARIO.config(), seed=5)
    return app


# --------------------------------------------------------------------------- #
# The journal file format
# --------------------------------------------------------------------------- #
class TestJournalFile:
    def test_append_writes_one_sorted_json_line_per_event(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with BudgetJournal(path) as journal:
            journal.append({"event": "reserve", "rows": 3})
            journal.append({"event": "commit", "rows": 2})
        lines = path.read_text().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["reserve", "commit"]
        assert lines[0] == json.dumps({"event": "reserve", "rows": 3}, sort_keys=True)

    def test_fsync_mode_and_idempotent_close(self, tmp_path):
        journal = BudgetJournal(tmp_path / "nested" / "j.jsonl", fsync=True)
        journal.append({"event": "reserve"})
        journal.close()
        journal.close()
        assert read_journal(journal.path) == [{"event": "reserve"}]

    def test_read_missing_journal_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == []

    def test_torn_final_line_is_dropped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"event": "reserve"}\n{"event": "com')
        assert read_journal(path) == [{"event": "reserve"}]

    def test_corruption_before_the_tail_refuses_to_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('not json at all\n{"event": "reserve"}\n')
        with pytest.raises(JournalCorruptionError):
            read_journal(path)

    def test_non_object_line_refuses_to_replay(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('[1, 2]\n{"event": "reserve"}\n')
        with pytest.raises(JournalCorruptionError):
            read_journal(path)


# --------------------------------------------------------------------------- #
# Restart durability
# --------------------------------------------------------------------------- #
class TestRestartDurability:
    def test_budgets_and_counters_survive_a_restart(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            info = app.create_session("tiny", tenant="acme", budget={"max_rows": 8})
            session_id = info["session_id"]
            record = app.generate(session_id, rows=3, seed=7)
            before = app.budget(session_id)

        with make_app(journal) as app:
            after = app.budget(session_id)
            assert after["spent"] == before["spent"]
            assert after["remaining"] == before["remaining"]
            assert after["reserved"]["rows"] == 0
            assert after["tenant"] == "acme"
            # Counters continue past the journaled history instead of
            # colliding with it.
            fresh = app.create_session("tiny")
            assert fresh["session_id"] != session_id
            next_record = app.generate(session_id, rows=2, seed=9)
            assert next_record.release_id != record.release_id
            assert next_record.request_id != record.request_id
            check_accountant_conservation(app._session(session_id).accountant)

    def test_unsettled_reservation_is_refunded_on_replay(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            info = app.create_session("tiny", budget={"max_rows": 8})
            session_id = info["session_id"]
            committed = app.generate(session_id, rows=2, seed=3).num_released
            # Simulate a crash between reserve and commit: the hold is
            # journaled, the settlement never happens.
            app._session(session_id).reserve(f"{session_id}-r99999", 5)

        with make_app(journal) as app:
            budget = app.budget(session_id)
            assert budget["reserved"]["rows"] == 0
            assert budget["spent"]["rows"] == committed
            assert budget["remaining"]["rows"] == 8 - committed
            check_accountant_conservation(app._session(session_id).accountant)
        refunds = [
            event
            for event in read_journal(journal)
            if event.get("event") == "cancel"
            and event.get("reason") == "refund_on_replay"
        ]
        assert len(refunds) == 1
        assert refunds[0]["request_id"] == f"{session_id}-r99999"

    def test_replay_does_not_duplicate_journal_events(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 8})[
                "session_id"
            ]
            app.generate(session_id, rows=2, seed=3)
        baseline = [
            event
            for event in read_journal(journal)
            if event.get("event") in ("reserve", "commit")
        ]
        with make_app(journal):
            pass  # replay only
        replayed = [
            event
            for event in read_journal(journal)
            if event.get("event") in ("reserve", "commit")
        ]
        assert replayed == baseline

    def test_audit_log_records_live_events_but_not_replayed_ones(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        audit = tmp_path / "logs" / "audit.jsonl"  # the directory is created
        with make_app(journal, audit_log=audit) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 8})[
                "session_id"
            ]
            app.generate(session_id, rows=2, seed=3)
        live = read_journal(audit)
        assert [event["event"] for event in live] == [
            "session_created",
            "reserve",
            "commit",
            "release",
        ]
        with make_app(journal, audit_log=audit):
            pass  # replay only
        assert read_journal(audit) == live

    @pytest.mark.chaos
    def test_torn_journal_tail_still_restores_the_budget(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 8})[
                "session_id"
            ]
            committed = app.generate(session_id, rows=2, seed=3).num_released
        # A crash mid-append tears the final (release-meta) line; the budget
        # events before it must still replay exactly.
        truncate_file_tail(journal, drop_bytes=10)
        with make_app(journal) as app:
            budget = app.budget(session_id)
            assert budget["spent"]["rows"] == committed
            assert budget["reserved"]["rows"] == 0


# --------------------------------------------------------------------------- #
# Idempotent generate
# --------------------------------------------------------------------------- #
class TestIdempotency:
    def test_same_key_replays_without_spending(self, tmp_path):
        with make_app(tmp_path / "journal.jsonl") as app:
            session_id = app.create_session("tiny", budget={"max_rows": 10})[
                "session_id"
            ]
            first = app.generate(session_id, rows=3, seed=5, idempotency_key="k1")
            again = app.generate(session_id, rows=3, seed=5, idempotency_key="k1")
            assert again.release_id == first.release_id
            assert_reports_identical(first.report, again.report)
            assert app.budget(session_id)["spent"]["rows"] == first.num_released

    def test_idempotency_survives_a_restart_with_zero_extra_spend(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        with make_app(journal) as app:
            session_id = app.create_session("tiny", budget={"max_rows": 10})[
                "session_id"
            ]
            first = app.generate(session_id, rows=3, seed=5, idempotency_key="k1")
            spent = app.budget(session_id)["spent"]

        with make_app(journal) as app:
            replayed = app.generate(session_id, rows=3, seed=5, idempotency_key="k1")
            # The in-memory release cache died with the process; the rows are
            # regenerated from the recorded base seed — bit-identical — and
            # charged nothing.
            assert replayed.release_id == first.release_id
            assert_reports_identical(first.report, replayed.report)
            assert app.budget(session_id)["spent"] == spent
        releases = [event for event in read_journal(journal) if event["event"] == "release"]
        assert [event["stream"] for event in releases] == [STREAM_VERSION]

    def test_keys_are_scoped_per_session(self, tmp_path):
        with make_app(tmp_path / "journal.jsonl") as app:
            first_session = app.create_session("tiny")["session_id"]
            second_session = app.create_session("tiny")["session_id"]
            one = app.generate(first_session, rows=2, seed=5, idempotency_key="k")
            two = app.generate(second_session, rows=2, seed=5, idempotency_key="k")
            assert one.release_id != two.release_id


# --------------------------------------------------------------------------- #
# Journals written while sessions chose a privacy-test accuracy contract
# --------------------------------------------------------------------------- #
#: Recorded before the approximate privacy test was removed, on the
#: toy-correlated model (fit seed 5): an exact session ``s00001`` and a
#: session ``s00002`` opened with ``"accuracy": "approximate"``, each with
#: one idempotent release (keys ``e1`` and ``a1``).  The approximate
#: session's releases name that variant's engine in ``engine_key``.  Its
#: releases predate counter-addressed attempts: they carry no ``stream``.
LEGACY_JOURNAL = Path(__file__).parent / "fixtures" / "journal_with_approximate_session.jsonl"


class TestLegacyAccuracyJournal:
    """Replay of the fixture against the figures the recording server reported.

    ε and δ are compared to 1e-12 relative: they are recomputed from the
    model's per-row cost, whose last bits may differ across math libraries.
    """

    SPENT = {
        "s00001": {"rows": 3, "epsilon": 3.164424709484985, "delta": 0.0003702294122600387},
        "s00002": {"rows": 6, "epsilon": 6.32884941896997, "delta": 0.0007404588245200774},
    }
    REMAINING = {
        "s00001": {"rows": 7, "epsilon": 46.83557529051502, "delta": None},
        "s00002": {"rows": 6, "epsilon": 53.671150581030034, "delta": 0.49925954117547994},
    }
    #: (session, idempotency key, release id, seed, rows) -> the rows the
    #: recording server released (attempt-stream version 1).
    RELEASES = {
        ("s00001", "e1", "rel000001", 7, 3): [[15, 2, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0]],
        ("s00002", "a1", "rel000002", 5, 4): [
            [0, 1, 0, 0],
            [3, 0, 1, 1],
            [15, 1, 1, 0],
            [0, 1, 0, 0],
        ],
    }

    @staticmethod
    def make_app(tmp_path) -> ServiceApp:
        journal = tmp_path / "journal.jsonl"
        shutil.copyfile(LEGACY_JOURNAL, journal)
        scenario = get_scenario("toy-correlated")
        app = ServiceApp(ModelRegistry(), num_workers=1, journal=journal)
        app.publish_model("toy", scenario.dataset(0), scenario.config(), seed=5)
        return app

    def test_fixture_holds_both_contracts(self):
        events = read_journal(LEGACY_JOURNAL)
        contracts = [
            event["budget"]["accuracy"]
            for event in events
            if event["event"] == "session_created"
        ]
        assert contracts == ["exact", "approximate"]
        variants = {
            event["release_id"]: event["engine_key"].partition("#")[2]
            for event in events
            if event["event"] == "release"
        }
        assert variants == {"rel000001": "", "rel000002": "approx", "rel000003": "approx"}

    def test_budgets_replay_exactly(self, tmp_path):
        with self.make_app(tmp_path) as app:
            for session_id, spent in self.SPENT.items():
                budget = app.budget(session_id)
                assert budget["spent"] == pytest.approx(spent, rel=1e-12)
                assert budget["remaining"] == pytest.approx(
                    self.REMAINING[session_id], rel=1e-12
                )
                assert budget["reserved"]["rows"] == 0
                assert "accuracy" not in budget["budget"]
                check_accountant_conservation(app._session(session_id).accountant)

    @pytest.mark.parametrize("release", sorted(RELEASES), ids=lambda r: r[1])
    def test_idempotent_retry_of_a_version_1_release_is_refused_for_free(
        self, tmp_path, release
    ):
        # Regenerating from the journaled seed would draw other rows than the
        # ones recorded above, a second release the tenant never paid for:
        # the retry is refused, with no spend and no rows.
        session_id, key, release_id, seed, rows = release
        assert all(
            "stream" not in event
            for event in read_journal(LEGACY_JOURNAL)
            if event["event"] == "release"
        )
        with self.make_app(tmp_path) as app:
            spent = app.budget(session_id)["spent"]
            with pytest.raises(ServiceError) as refused:
                app.generate(session_id, rows=rows, seed=seed, idempotency_key=key)
            assert (refused.value.status, refused.value.code) == (410, "release_not_regenerable")
            assert refused.value.payload == {"release_id": release_id}
            assert app.budget(session_id)["spent"] == spent
            assert spent == pytest.approx(self.SPENT[session_id], rel=1e-12)
            with pytest.raises(ServiceError, match="unknown"):
                app.release(release_id)

    def test_refusal_is_an_http_410(self, tmp_path):
        import threading
        import urllib.error
        import urllib.request

        from repro.service import build_server

        with self.make_app(tmp_path) as app:
            server = build_server(app, host="127.0.0.1", port=0)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            try:
                host, port = server.server_address[:2]
                request = urllib.request.Request(
                    f"http://{host}:{port}/generate",
                    data=json.dumps(
                        {"session": "s00001", "rows": 3, "seed": 7, "idempotency_key": "e1"}
                    ).encode(),
                    headers={"Content-Type": "application/json"},
                )
                with pytest.raises(urllib.error.HTTPError) as refused:
                    urllib.request.urlopen(request, timeout=60)
                assert refused.value.code == 410
                body = json.load(refused.value)
                assert (body["code"], body["release_id"]) == (
                    "release_not_regenerable", "rel000001"
                )
            finally:
                server.shutdown()
                server.server_close()
                thread.join(timeout=10)
            assert not thread.is_alive()
