"""Worker supervision: crash detection, deterministic chunk retry, pool health.

The chaos tests SIGKILL a live worker at a chosen chunk (via the
:mod:`repro.testing.faults` harness) and assert the recovered run is
*bit-identical* to the undisturbed serial reference — chunk content is a pure
function of ``(base_seed, chunk_index)``, so a retry can never change the
released output, only the wall clock.
"""

import random
import threading
import time

import pytest

from repro.core.engine import (
    ChunkRetryExhaustedError,
    EngineBrokenError,
    SynthesisEngine,
)
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.testing import KillWorkerAtChunk
from repro.testing.invariants import assert_reports_identical

pytestmark = pytest.mark.chaos


@pytest.fixture(scope="module")
def params():
    return PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0)


def serial_report(unnoised_model, acs_splits, params, **run):
    with SynthesisEngine(
        unnoised_model, acs_splits.seeds, params, chunk_size=16, batch_size=8
    ) as engine:
        if "num_released" in run:
            return engine.generate(
                run["num_released"],
                base_seed=run["base_seed"],
                max_attempts=run.get("max_attempts"),
            )
        return engine.run_attempts(run["num_attempts"], base_seed=run["base_seed"])


class TestCrashRecovery:
    def test_sigkilled_worker_is_respawned_and_run_is_bit_identical(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        fault = KillWorkerAtChunk(chunk_index=1, marker_dir=str(tmp_path), times=1)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=fault,
        ) as engine:
            report = engine.run_attempts(48, base_seed=11)
            health = engine.pool_health()
        assert fault.kills_fired() == 1
        assert health["worker_restarts"] == 1
        assert health["chunk_retries"] == {1: 1}
        assert health["workers_alive"] == health["num_workers"] == 2
        assert not health["broken"]
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=48, base_seed=11
        )
        assert_reports_identical(expected, report)

    def test_until_n_run_survives_a_crash_and_matches_serial(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        fault = KillWorkerAtChunk(chunk_index=0, marker_dir=str(tmp_path), times=1)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=fault,
        ) as engine:
            report = engine.generate(10, base_seed=3, max_attempts=2000)
        assert fault.kills_fired() == 1
        assert report.num_released == 10
        expected = serial_report(
            unnoised_model,
            acs_splits,
            params,
            num_released=10,
            base_seed=3,
            max_attempts=2000,
        )
        assert_reports_identical(expected, report)

    def test_pool_stays_usable_across_jobs_after_a_crash(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        fault = KillWorkerAtChunk(chunk_index=2, marker_dir=str(tmp_path), times=1)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            fault_injector=fault,
        ) as engine:
            first = engine.run_attempts(48, base_seed=7)
            second = engine.run_attempts(48, base_seed=7)
        assert fault.kills_fired() == 1  # only the first job saw the fault
        assert_reports_identical(first, second)


class TestRetryExhaustion:
    def test_repeated_crashes_fail_the_job_but_not_the_engine(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # times = max_chunk_retries + 1 kills the original execution and every
        # allowed retry of chunk 1; the job must fail cleanly and name the
        # chunk, and the repaired pool must serve the next job bit-exactly.
        fault = KillWorkerAtChunk(chunk_index=1, marker_dir=str(tmp_path), times=2)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            max_chunk_retries=1,
            fault_injector=fault,
        ) as engine:
            with pytest.raises(ChunkRetryExhaustedError) as excinfo:
                engine.run_attempts(48, base_seed=11)
            assert excinfo.value.chunk_indices == (1,)
            health = engine.pool_health()
            assert health["worker_restarts"] == 2
            assert not health["broken"]
            # Fault markers are spent: the same job now runs to completion.
            report = engine.run_attempts(48, base_seed=11)
        assert fault.kills_fired() == 2
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=48, base_seed=11
        )
        assert_reports_identical(expected, report)

    def test_zero_retries_means_any_crash_fails_the_job(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        fault = KillWorkerAtChunk(chunk_index=0, marker_dir=str(tmp_path), times=1)
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            max_chunk_retries=0,
            fault_injector=fault,
        ) as engine:
            with pytest.raises(ChunkRetryExhaustedError):
                engine.run_attempts(32, base_seed=5)


class TestLostRanges:
    """A worker killed inside a multi-chunk range loses the whole range.

    With 16-attempt chunks in batches of 64, the first range after a lane's
    first release is chunks 2-5 (its share of a 400-row target is capped at
    four chunks), so the kill at chunk 5 lands inside it.
    """

    SIZES = dict(chunk_size=16, batch_size=64)

    def _pool(self, unnoised_model, acs_splits, params, fault, **options):
        return SynthesisEngine(
            unnoised_model, acs_splits.seeds, params,
            num_workers=2, fault_injector=fault, **self.SIZES, **options,
        )

    def test_every_chunk_of_a_lost_range_is_requeued_and_charged_once(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        fault = KillWorkerAtChunk(chunk_index=5, marker_dir=str(tmp_path), times=1)
        with self._pool(unnoised_model, acs_splits, params, fault) as engine:
            report = engine.generate(400, base_seed=3)
            health = engine.pool_health()
        assert fault.kills_fired() == 1
        assert health["worker_restarts"] == 1
        assert health["chunk_retries"] == {2: 1, 3: 1, 4: 1, 5: 1}
        with SynthesisEngine(unnoised_model, acs_splits.seeds, params, **self.SIZES) as engine:
            assert_reports_identical(engine.generate(400, base_seed=3), report)

    def test_a_chunk_of_a_lost_range_still_exhausts_its_retries(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # The range's kill charges chunks 2-5 once; chunk 5 alone is killed
        # again and runs out of its one retry.
        fault = KillWorkerAtChunk(chunk_index=5, marker_dir=str(tmp_path), times=2)
        with self._pool(
            unnoised_model, acs_splits, params, fault, max_chunk_retries=1
        ) as engine:
            with pytest.raises(ChunkRetryExhaustedError) as excinfo:
                engine.generate(400, base_seed=3)
            assert excinfo.value.chunk_indices == (5,)
            health = engine.pool_health()
            assert health["worker_restarts"] == 2
            assert health["chunk_retries"] == {2: 1, 3: 1, 4: 1, 5: 1}
            assert not health["broken"]


class TestBrokenEngine:
    def test_unstartable_pool_raises_engine_broken(
        self, unnoised_model, acs_splits, params
    ):
        # A spawn failure (here: an unpicklable fault injector) has no chunk
        # to retry deterministically — the pool is marked broken for good.
        engine = SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            fault_injector=lambda index: None,
        )
        try:
            with pytest.raises(EngineBrokenError):
                engine.run_attempts(16, base_seed=1)
            assert engine.pool_health()["broken"]
            with pytest.raises(EngineBrokenError):
                engine.run_attempts(16, base_seed=1)
            with pytest.raises(EngineBrokenError):
                engine.start()
        finally:
            engine.close()

    def test_validation_and_serial_health(self, unnoised_model, acs_splits, params):
        with pytest.raises(ValueError):
            SynthesisEngine(
                unnoised_model, acs_splits.seeds, params, max_chunk_retries=-1
            )
        with SynthesisEngine(unnoised_model, acs_splits.seeds, params) as engine:
            engine.run_attempts(8, base_seed=0)
            health = engine.pool_health()
        assert health["workers_alive"] == 0  # serial path has no pool
        assert health["worker_restarts"] == 0
        assert not health["broken"]


class TestInterruptedJob:
    def test_raising_progress_callback_leaves_a_usable_pool(
        self, unnoised_model, acs_splits, params
    ):
        # The callback raises at the first chunk it sees, while the other
        # worker is still running a chunk of the abandoned job.
        class Interrupted(Exception):
            pass

        def interrupt(event):
            raise Interrupted

        engine = SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=2048,
            batch_size=2048,
        )
        try:
            with pytest.raises(Interrupted):
                engine.generate(20 * 2048, base_seed=5, progress=interrupt)
            report = engine.generate(2048 + 100, base_seed=9)
        finally:
            began = time.monotonic()
            engine.close()
            closing = time.monotonic() - began
        assert closing < 5
        expected = serial_report(
            unnoised_model, acs_splits, params, num_released=2048 + 100, base_seed=9
        )
        assert_reports_identical(expected, report)


class TestRandomKills:
    """SIGKILLs at random moments, including while a worker writes a ~270 KB
    chunk report to its pipe, cost at most a retry: a kill truncates only the
    dead worker's own pipe, so no job can wait on a lost message or lock."""

    def test_every_job_ends_within_seconds_and_never_rebuilds(
        self, unnoised_model, acs_splits, params
    ):
        # About 0.2 s of work per job; the killer strikes every 0.1-0.5 s of
        # job time, often before a respawned worker is even ready.
        jobs = [
            (kind, 96 * 2048, seed)
            for seed, kind in enumerate(["run_attempts", "generate"] * 4)
        ]
        sizes = dict(chunk_size=2048, batch_size=2048)
        rng = random.Random(19)
        running = threading.Event()
        stop = threading.Event()
        kills = []

        def kill_random_workers(engine):
            while not stop.wait(rng.uniform(0.1, 0.5)):
                if running.is_set():
                    rng.choice(engine._workers).process.kill()
                    kills.append(time.monotonic())

        durations = []
        local = SynthesisEngine(unnoised_model, acs_splits.seeds, params, **sizes)
        engine = SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, num_workers=2, **sizes
        )
        killer = threading.Thread(target=kill_random_workers, args=(engine,))
        try:
            engine.start()
            killer.start()
            for kind, n, seed in jobs:
                running.set()
                began = time.monotonic()
                try:
                    report = getattr(engine, kind)(n, base_seed=seed)
                except ChunkRetryExhaustedError:
                    report = None
                durations.append(time.monotonic() - began)
                running.clear()
                if report is not None:
                    assert_reports_identical(getattr(local, kind)(n, base_seed=seed), report)
            stop.set()
            killer.join(timeout=5)
            health = engine.pool_health()
            # The repaired pool serves the first job again, bit-identically.
            kind, n, seed = jobs[0]
            assert_reports_identical(
                local.run_attempts(n, base_seed=seed), engine.run_attempts(n, base_seed=seed)
            )
        finally:
            stop.set()
            engine.close()
            local.close()
        assert not killer.is_alive()
        assert max(durations) < 10, durations
        assert kills and health["worker_restarts"] >= 1
        assert health["pool_rebuilds"] == 0
        assert not health["broken"]


class TestKillFaultHarness:
    def test_fault_only_fires_on_its_chunk(self, tmp_path):
        fault = KillWorkerAtChunk(chunk_index=3, marker_dir=str(tmp_path), times=1)
        fault.fire(0)  # wrong chunk: no kill, no marker
        assert fault.kills_fired() == 0

    def test_marker_claims_are_exclusive(self, tmp_path):
        fault = KillWorkerAtChunk(chunk_index=0, marker_dir=str(tmp_path), times=2)
        (tmp_path / "kill.0").touch()
        (tmp_path / "kill.1").touch()
        fault.fire(0)  # both kills already spent elsewhere: survives
        assert fault.kills_fired() == 2
