"""What a pool worker costs per chunk, with every released row unchanged.

Four costs of the 2-worker pool against the in-process engine: workers that
handed their heap back to the kernel after every chunk, chunk columns sent
as int64 over the pipe, chunks assigned past what a lane's target was
expected to need, and one assignment, proposal call and reply per chunk
where consecutive chunks of a lane could go as one range.  Each test here
checks one of them, and that the rows do not move.
"""

import dataclasses
import platform
import sys
from multiprocessing.connection import Connection
from multiprocessing.reduction import ForkingPickler

import pytest

from repro.core.engine import (
    FoldSpec,
    SynthesisEngine,
    _Assignment,
    _Job,
    _Lane,
    _LaneCursors,
    _run_chunk,
)
from repro.core.mechanism import SynthesisMechanism
from repro.core.results import COLUMNS, SynthesisReport
from repro.core.run_store import RunStore
from repro.core.stream import attempt_stream
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.testing.faults import DelayChunk
from repro.testing.invariants import assert_reports_identical

#: Pickled bytes of a worker's message for one 2,048-attempt ACS chunk when
#: every integer column travelled as int64.
WIDE_MESSAGE_BYTES = 266_858


@pytest.fixture(scope="module")
def params():
    return PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0)


def _engine(model, splits, params, **options):
    return SynthesisEngine(model, splits.seeds, params, **options)


@pytest.fixture()
def pipe_log(monkeypatch):
    """Every range the parent sends, and every result it reads, by first chunk index."""
    log = []
    send, recv = Connection.send, Connection.recv

    def logged_send(conn, obj):
        if isinstance(obj, _Assignment):
            log.append(("send", obj.index))
        return send(conn, obj)

    def logged_recv(conn):
        message = recv(conn)
        if message[0] is not None:
            log.append(("recv", message[1]))
        return message

    monkeypatch.setattr(Connection, "send", logged_send)
    monkeypatch.setattr(Connection, "recv", logged_recv)
    return log


def _sends(log):
    return sum(1 for kind, _ in log if kind == "send")


# --------------------------------------------------------------------------- #
# Narrow columns on the wire and on disk
# --------------------------------------------------------------------------- #
def test_worker_message_pickles_narrow(unnoised_model, acs_splits, params):
    mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params).prepare()
    task = _Assignment(
        job_id=1, index=0, base_seed=3, start=0, attempts=2048, batch_size=2048,
        target_released=None,
    )
    message = _run_chunk(mechanism, task)
    assert len(ForkingPickler.dumps(message)) <= 0.3 * WIDE_MESSAGE_BYTES
    wide = mechanism.run_attempts(2048, attempt_stream(3), batch_size=2048)
    assert len(ForkingPickler.dumps((1, 0, wide.num_released, wide.to_arrays()))) >= (
        WIDE_MESSAGE_BYTES - 1024
    )
    rebuilt = SynthesisReport.from_arrays(acs_splits.seeds.schema, message[3])
    assert message[2] == rebuilt.num_released
    assert_reports_identical(wide, rebuilt)
    for name, dtype in COLUMNS.items():
        assert rebuilt[name].dtype == dtype, name


@pytest.mark.parametrize(
    "writer,reader,batch_size,target",
    [
        pytest.param(2, 1, 64, 150, id="pool-then-in-process"),
        pytest.param(1, 2, 64, 150, id="in-process-then-pool"),
        # Batches of four chunks: the pool computes ranges, and still
        # checkpoints one file per grid chunk.
        pytest.param(2, 1, 256, 1500, id="pool-ranges-then-in-process"),
    ],
)
def test_checkpoints_resume_across_worker_counts(
    unnoised_model, acs_splits, params, tmp_path, pipe_log, writer, reader, batch_size, target
):
    store = RunStore(tmp_path / "store")
    options = dict(chunk_size=64, batch_size=batch_size, run_store=store)
    with _engine(unnoised_model, acs_splits, params, num_workers=writer, **options) as engine:
        written = engine.generate(target, base_seed=8, max_attempts=4000, run_id="r")
    chunks = store.load_chunks("r")
    assert len(chunks) >= 2
    for arrays in chunks.values():
        assert arrays["candidates"].dtype.itemsize == 1
        assert arrays["seed_indices"].dtype.itemsize <= 2
        assert len(arrays["passed"]) <= 64
    if batch_size > 64:
        assert _sends(pipe_log) < len(chunks)
    events = []
    with _engine(unnoised_model, acs_splits, params, num_workers=reader, **options) as engine:
        resumed = engine.generate(
            target, base_seed=8, max_attempts=4000, run_id="r", progress=events.append
        )
    assert events and all(event.from_checkpoint for event in events)
    with _engine(unnoised_model, acs_splits, params, chunk_size=64, batch_size=64) as engine:
        fresh = engine.generate(target, base_seed=8, max_attempts=4000)
    for report in (written, resumed):
        assert_reports_identical(fresh, report)
        for name, dtype in COLUMNS.items():
            assert report[name].dtype == dtype, name


# --------------------------------------------------------------------------- #
# Worker heaps that stay mapped
# --------------------------------------------------------------------------- #
def _minor_faults(pid: int) -> int:
    with open(f"/proc/{pid}/stat") as handle:
        stat = handle.read()
    return int(stat[stat.rindex(")") + 2:].split()[7])


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="page faults are read from /proc/<pid>/stat, and the heap settings are glibc's",
)
def test_workers_do_not_fault_their_heap_in_again_per_chunk(
    unnoised_model, acs_splits, params
):
    chunks = 24
    with _engine(
        unnoised_model, acs_splits, params, num_workers=2, chunk_size=2048, batch_size=2048
    ) as engine:
        engine.run_attempts(4 * 2048, base_seed=1)  # each worker's first chunks map its heap
        pids = [worker.process.pid for worker in engine._workers]
        before = sum(_minor_faults(pid) for pid in pids)
        engine.run_attempts(chunks * 2048, base_seed=2)
        faults = sum(_minor_faults(pid) for pid in pids) - before
    assert faults / chunks < 20


# --------------------------------------------------------------------------- #
# The speculation rule, on made-up counts
# --------------------------------------------------------------------------- #
def _job(*targets, limit=1000, chunk_size=100, completed=frozenset()):
    lanes = tuple(
        _Lane(limit=limit, base_seed=seed, target_released=target)
        for seed, target in enumerate(targets)
    )
    return _Job(job_id=1, chunk_size=chunk_size, batch_size=chunk_size, lanes=lanes,
                completed=completed)


def _assign_range(job, cursors, in_flight, workers=2):
    """``(first chunk index, chunks)`` of the next range, or None if no lane needs one."""
    task = cursors.next_range(in_flight, workers)
    if task is None:
        return None
    in_flight.append(task)
    return task.index, task.chunks


def _assign(job, cursors, in_flight, workers=2):
    """The first chunk index of the next range, or None."""
    assigned = _assign_range(job, cursors, in_flight, workers)
    return None if assigned is None else assigned[0]


def _arrive(job, cursors, in_flight, index, released):
    task = next(task for task in in_flight if task.index == index)
    in_flight.remove(task)
    cursors.receive(index, released, task.attempts)


class TestSpeculationRule:
    def test_a_lane_with_no_received_chunk_speculates(self):
        job = _job(300)
        cursors, in_flight = _LaneCursors(job, {}), []
        assert [_assign(job, cursors, in_flight) for _ in range(4)] == [0, 1, 2, 3]

    def test_no_chunk_while_in_flight_chunks_are_expected_to_cover_the_target(self):
        job = _job(300)
        cursors, in_flight = _LaneCursors(job, {}), []
        for _ in range(4):
            _assign(job, cursors, in_flight)
        # 80 of 100 pass: chunks 1-3 in flight are expected to bring 240 more.
        _arrive(job, cursors, in_flight, 0, released=80)
        assert _assign(job, cursors, in_flight) is None
        # 70 more: 150 of 200 pass, and chunks 2-3 in flight bring 150 more.
        _arrive(job, cursors, in_flight, 1, released=70)
        assert _assign(job, cursors, in_flight) is None

    def test_a_shortfall_gets_the_next_chunk_as_soon_as_it_arrives(self):
        job = _job(300)
        cursors, in_flight = _LaneCursors(job, {}), []
        for _ in range(4):
            _assign(job, cursors, in_flight)
        _arrive(job, cursors, in_flight, 0, released=80)
        assert _assign(job, cursors, in_flight) is None
        # Only 10 of chunk 1 pass: 90 of 200, and chunks 2-3 now promise 90.
        _arrive(job, cursors, in_flight, 1, released=10)
        assert _assign(job, cursors, in_flight) == 4
        # At 0.45 per attempt, chunks 2-6 in flight promise 225 more.
        assert [_assign(job, cursors, in_flight) for _ in range(3)] == [5, 6, None]

    def test_received_releases_at_the_target_stop_the_lane(self):
        job = _job(150)
        cursors, in_flight = _LaneCursors(job, {}), []
        _assign(job, cursors, in_flight)
        _arrive(job, cursors, in_flight, 0, released=0)
        assert _assign(job, cursors, in_flight) == 1  # nothing passed yet: keep going
        _arrive(job, cursors, in_flight, 1, released=150)
        assert _assign(job, cursors, in_flight) is None

    def test_the_other_lanes_of_a_fold_keep_getting_chunks(self):
        job = _job(150, 150, limit=500)
        lane_one = job.lane_chunks(1)
        cursors, in_flight = _LaneCursors(job, {}), []
        assert [_assign(job, cursors, in_flight) for _ in range(2)] == [0, 1]
        _arrive(job, cursors, in_flight, 0, released=90)
        # Lane 0 is covered by chunk 1 in flight, so lane 1 gets its chunks.
        assert _assign(job, cursors, in_flight) == lane_one[0]
        assert _assign(job, cursors, in_flight) == lane_one[1]
        # Chunk 1 falls short: lane 0 is revisited, in lane-local order.
        _arrive(job, cursors, in_flight, 1, released=20)
        assert _assign(job, cursors, in_flight) == 2

    def test_fixed_budget_lanes_take_every_chunk_once(self):
        job = _job(None, limit=350)
        cursors, in_flight = _LaneCursors(job, {}), []
        assert [_assign(job, cursors, in_flight) for _ in range(5)] == [0, 1, 2, 3, None]

    def test_checkpointed_chunks_are_never_assigned(self):
        job = _job(None, limit=350, completed=frozenset({0, 1}))
        cursors, in_flight = _LaneCursors(job, {}), []
        assert [_assign(job, cursors, in_flight) for _ in range(3)] == [2, 3, None]

    def test_a_zero_target_takes_no_chunk(self):
        job = _job(0)
        assert _assign(job, _LaneCursors(job, {}), []) is None


# --------------------------------------------------------------------------- #
# Ranges sized from the lane's need, on made-up counts
# --------------------------------------------------------------------------- #
def _ranged_job(*targets, limit=1000, completed=frozenset()):
    """``_job`` with batches of four 100-attempt chunks: ranges of up to 4."""
    return dataclasses.replace(
        _job(*targets, limit=limit, completed=completed), batch_size=400
    )


class TestRangeSizing:
    def test_a_lanes_first_assignments_are_one_chunk(self):
        job = _ranged_job(300, limit=10_000)
        cursors, in_flight = _LaneCursors(job, {}), []
        assert [_assign_range(job, cursors, in_flight) for _ in range(3)] == [
            (0, 1), (1, 1), (2, 1)
        ]
        assert [task.attempts for task in in_flight] == [100, 100, 100]

    def test_after_a_release_a_range_is_the_lanes_share_in_whole_chunks(self):
        job = _ranged_job(300)
        cursors, in_flight = _LaneCursors(job, {}), []
        _assign_range(job, cursors, in_flight)
        _assign_range(job, cursors, in_flight)
        # 50 of 100 pass: 500 attempts for the missing 250, less chunk 1's
        # 100 in flight, is 400; each of 2 workers takes 200, two chunks.
        _arrive(job, cursors, in_flight, 0, released=50)
        assert _assign_range(job, cursors, in_flight) == (2, 2)
        assert in_flight[-1].attempts == 200
        # 200 more needed: a 100-attempt share, one chunk; then 100, which
        # rounds down to none but is still one chunk; then covered.
        assert [_assign_range(job, cursors, in_flight) for _ in range(3)] == [
            (4, 1), (5, 1), None
        ]

    def test_a_range_is_at_most_batch_size_over_chunk_size(self):
        job = _ranged_job(5000, limit=100_000)
        cursors, in_flight = _LaneCursors(job, {}), []
        _assign_range(job, cursors, in_flight)
        _assign_range(job, cursors, in_flight)
        _arrive(job, cursors, in_flight, 0, released=50)
        # A 4,900-attempt share is 49 chunks, capped at 400 // 100.
        assert [_assign_range(job, cursors, in_flight) for _ in range(2)] == [(2, 4), (6, 4)]
        # With batches of one chunk a range is one chunk, whatever the share.
        job = _job(5000, limit=100_000)
        cursors, in_flight = _LaneCursors(job, {}), []
        _assign_range(job, cursors, in_flight)
        _arrive(job, cursors, in_flight, 0, released=50)
        assert _assign_range(job, cursors, in_flight) == (1, 1)

    def test_a_range_never_covers_a_checkpointed_chunk(self):
        job = _ranged_job(None, completed=frozenset({3}))
        cursors, in_flight = _LaneCursors(job, {}), []
        ranges = [_assign_range(job, cursors, in_flight, workers=1) for _ in range(4)]
        # Chunk 3 cuts the first range short; the last ends at the lane's end.
        assert ranges == [(0, 3), (4, 4), (8, 2), None]
        job = _ranged_job(5000, limit=100_000, completed=frozenset({4}))
        cursors, in_flight = _LaneCursors(job, {}), []
        _assign_range(job, cursors, in_flight)
        _arrive(job, cursors, in_flight, 0, released=50)
        assert _assign_range(job, cursors, in_flight) == (1, 3)
        assert _assign_range(job, cursors, in_flight) == (5, 4)

    @pytest.mark.parametrize(
        "workers,limit,expected",
        [
            (2, 800, [(0, 4), (4, 2), (6, 1), (7, 1)]),
            (3, 1200, [(0, 4), (4, 2), (6, 2), (8, 1), (9, 1), (10, 1), (11, 1)]),
            (2, 350, [(0, 1), (1, 1), (2, 1), (3, 1)]),
        ],
    )
    def test_fixed_budget_ranges_take_one_worker_share_of_what_is_left(
        self, workers, limit, expected
    ):
        # Each range is the unassigned attempts over the worker count, in
        # whole chunks; the ranges cover the budget once.
        job = _ranged_job(None, limit=limit)
        cursors, in_flight = _LaneCursors(job, {}), []
        ranges = [_assign_range(job, cursors, in_flight, workers) for _ in expected]
        assert ranges == expected
        assert _assign_range(job, cursors, in_flight, workers) is None
        assert sum(task.attempts for task in in_flight) == limit


# --------------------------------------------------------------------------- #
# The speculation rule, on a live pool
# --------------------------------------------------------------------------- #
#: How long the worker holding chunk 1 waits before running it, so chunk 0's
#: result always reaches the parent first.
DELAY_S = 1.0


class TestSpeculationOnALivePool:
    CHUNK = 16

    @pytest.fixture(scope="class")
    def params(self):
        """k = 200 rejects about a fifth of the candidates, so chunks differ."""
        return PlausibleDeniabilityParams(k=200, gamma=4.0, epsilon0=1.0)

    @pytest.fixture(scope="class")
    def pool(self, unnoised_model, acs_splits, params):
        with _engine(
            unnoised_model, acs_splits, params, num_workers=2, chunk_size=self.CHUNK,
            batch_size=self.CHUNK, fault_injector=DelayChunk(chunk_index=1, seconds=DELAY_S),
        ) as engine:
            yield engine.start()

    @pytest.fixture(scope="class")
    def release(self, unnoised_model, acs_splits, params):
        """A base seed whose chunk 1 releases fewer rows than chunk 0, and
        the two counts."""
        with _engine(unnoised_model, acs_splits, params, chunk_size=self.CHUNK) as engine:
            for seed in range(200):
                events = []
                engine.run_attempts(2 * self.CHUNK, base_seed=seed, progress=events.append)
                first, second = (event.chunk_released for event in events)
                if 1 <= second < first < self.CHUNK:
                    return seed, first, second
        pytest.fail("no base seed below 200 releases fewer rows in chunk 1 than in chunk 0")

    def _in_process(self, model, splits, params, target, seed):
        with _engine(model, splits, params, chunk_size=self.CHUNK) as engine:
            return engine.generate(target, base_seed=seed)

    def test_no_chunk_while_the_one_in_flight_is_expected_to_cover(
        self, pool, release, pipe_log, unnoised_model, acs_splits, params
    ):
        # Chunk 0 alone misses the target by one row; at its pass rate,
        # chunk 1 in flight is expected to bring the rest, and it does.
        seed, first, _ = release
        report = pool.generate(first + 1, base_seed=seed)
        assert pipe_log == [("send", 0), ("send", 1), ("recv", 0), ("recv", 1)]
        expected = self._in_process(unnoised_model, acs_splits, params, first + 1, seed)
        assert_reports_identical(expected, report)

    def test_a_shortfall_gets_the_next_chunk_as_soon_as_it_arrives(
        self, pool, release, pipe_log, unnoised_model, acs_splits, params
    ):
        # Chunk 1 is expected to bring as many rows as chunk 0, but brings
        # fewer: chunk 2 goes out the moment chunk 1 is read, not before.
        seed, first, second = release
        target = first + second + 1
        report = pool.generate(target, base_seed=seed)
        assert pipe_log[:5] == [
            ("send", 0), ("send", 1), ("recv", 0), ("recv", 1), ("send", 2)
        ]
        expected = self._in_process(unnoised_model, acs_splits, params, target, seed)
        assert_reports_identical(expected, report)
        assert report.num_released == target


class TestRangesOnALivePool:
    """16-attempt chunks in batches of 64: a worker computes up to four
    consecutive chunks of a lane as one range, with one reply, and the
    parent cuts the reply back into chunks."""

    OPTIONS = dict(chunk_size=16, batch_size=64)

    @pytest.fixture(scope="class")
    def pool(self, unnoised_model, acs_splits, params):
        with _engine(unnoised_model, acs_splits, params, num_workers=2, **self.OPTIONS) as engine:
            yield engine.start()

    def test_a_release_sends_fewer_ranges_than_it_receives_chunks(
        self, pool, pipe_log, unnoised_model, acs_splits, params
    ):
        events = []
        report = pool.generate(400, base_seed=23, progress=events.append)
        assert _sends(pipe_log) < len(events)
        assert len({event.chunk_index for event in events}) == len(events)
        with _engine(unnoised_model, acs_splits, params, **self.OPTIONS) as engine:
            assert_reports_identical(engine.generate(400, base_seed=23), report)

    def test_a_fold_sends_fewer_ranges_than_it_receives_chunks(
        self, pool, pipe_log, unnoised_model, acs_splits, params
    ):
        specs = [
            FoldSpec(num_released=300, base_seed=31),
            FoldSpec(num_released=200, base_seed=2**40 + 7),
            FoldSpec(num_released=250, base_seed=31),
        ]
        events = []
        folded = pool.generate_folded(specs, progress=events.append)
        assert _sends(pipe_log) < len(events)
        assert {event.lane_index for event in events} == {0, 1, 2}
        with _engine(unnoised_model, acs_splits, params, **self.OPTIONS) as engine:
            for lane, (spec, report) in enumerate(zip(specs, folded)):
                expected = engine.generate(spec.num_released, base_seed=spec.base_seed)
                assert_reports_identical(expected, report, context=f"lane {lane}")


# --------------------------------------------------------------------------- #
# One selector in the parent
# --------------------------------------------------------------------------- #
def test_a_release_neither_waits_through_a_fresh_selector_nor_polls(
    unnoised_model, acs_splits, params, monkeypatch
):
    # The parent watches every worker's pipe and sentinel through one
    # selector registered when the worker starts. multiprocessing's wait()
    # builds a selector per call, and poll() builds another per pipe.
    import multiprocessing.connection as connection

    from repro.core import engine as engine_module

    calls = []

    def counted(name, original):
        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        return spy

    options = dict(chunk_size=2048, batch_size=2048)
    with _engine(unnoised_model, acs_splits, params, num_workers=2, **options) as engine:
        engine.start()
        spied_wait = counted("wait", connection.wait)
        monkeypatch.setattr(connection, "wait", spied_wait)
        # Also the name, should the engine import it from the module.
        monkeypatch.setattr(engine_module, "wait", spied_wait, raising=False)
        monkeypatch.setattr(Connection, "poll", counted("poll", Connection.poll))
        reports = [engine.generate(3000, base_seed=seed) for seed in (4, 5)]
        monkeypatch.undo()
    assert calls == []
    with _engine(unnoised_model, acs_splits, params, **options) as engine:
        for seed, report in zip((4, 5), reports):
            assert_reports_identical(engine.generate(3000, base_seed=seed), report)
