"""Worker supervision: crash detection, deterministic chunk retry, pool health.

The chaos tests SIGKILL a live worker at a chosen chunk (via the
:mod:`repro.testing.faults` harness) and assert the recovered run is
*bit-identical* to the undisturbed serial reference — chunk content is a pure
function of ``(base_seed, chunk_index)``, so a retry can never change the
released output, only the wall clock.
"""

import numpy as np
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


class TestSwallowedChunkRequeue:
    """A SIGKILL can lose *already-sent* chunk messages with the dead
    worker's queue feeder thread, not just the chunk in its inflight slot.
    Supervision must requeue every claimed-but-undelivered hole."""

    def test_holes_requeued_inflight_and_delivered_skipped(
        self, unnoised_model, acs_splits, params
    ):
        from queue import Empty

        from repro.core.engine import _Job, _Lane

        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
        ) as engine:
            engine.run_attempts(16, base_seed=0)  # spin the pool up
            job = _Job(
                job_id=99,
                chunk_size=16,
                batch_size=8,
                lanes=(_Lane(limit=80, base_seed=3, target_released=None),),
            )
            # Chunks 0-3 claimed; 0 and 2 delivered, 3 executing on a live
            # worker, 1 swallowed by a crash; 4 never claimed.
            engine._next_chunk.value = 4
            engine._inflight[0] = 3
            engine._chunk_retries = {}
            engine._retry_pending = set()
            engine._requeue_swallowed_chunks(job, {0: object(), 2: object()})
            engine._inflight[0] = -1
            requeued = []
            while True:
                try:
                    requeued.append(engine._retry_queue.get(timeout=1.0))
                except Empty:
                    break
            assert requeued == [1]
            assert engine._retry_pending == {1}
            # Holes are victims of someone else's crash, never charged.
            assert engine._chunk_retries == {}

    def test_hole_requeue_ignores_the_crash_retry_budget(
        self, unnoised_model, acs_splits, params
    ):
        # A hole is requeued even when its own budget is spent: the chunk
        # did not cause this crash, only its delivery was collateral damage.
        from repro.core.engine import _Job, _Lane

        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
            max_chunk_retries=1,
        ) as engine:
            engine.run_attempts(16, base_seed=0)
            job = _Job(
                job_id=99,
                chunk_size=16,
                batch_size=8,
                lanes=(_Lane(limit=48, base_seed=3, target_released=None),),
            )
            engine._next_chunk.value = 2
            engine._chunk_retries = {1: 1}  # already crash-retried once
            engine._retry_pending = set()
            engine._requeue_swallowed_chunks(job, {0: object()})
            assert engine._retry_queue.get(timeout=1.0) == 1
            assert engine._chunk_retries == {1: 1}  # unchanged, not exhausted


class TestPoolRebuild:
    """Recovery from a wedged pool: a SIGKILL landing inside the shared
    results queue's feeder lock silences every surviving worker, so the
    engine rebuilds the whole pool on fresh queues and resumes the job
    from the chunks already delivered."""

    def test_rebuild_pool_recovers_a_usable_pool(
        self, unnoised_model, acs_splits, params
    ):
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
        ) as engine:
            first = engine.run_attempts(48, base_seed=7)
            engine._rebuild_pool()
            second = engine.run_attempts(48, base_seed=7)
            health = engine.pool_health()
        assert health["pool_rebuilds"] == 1
        assert health["workers_alive"] == 2
        assert not health["broken"]
        assert_reports_identical(first, second)

    def test_wedged_job_resumes_bit_identically_after_rebuild(
        self, unnoised_model, acs_splits, params
    ):
        from repro.core.engine import _PoolStuckError

        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
        ) as engine:
            real = engine._run_on_pool
            calls = {"n": 0}

            def flaky(job, reports, tracker, run_id):
                calls["n"] += 1
                if calls["n"] == 1:
                    # Chunk 0 was delivered before the pool wedged.
                    lane = job.lanes[0]
                    reports[0] = engine._mechanism().run_attempts(
                        job.chunk_attempts(0),
                        lane.stream.at(0),
                        batch_size=job.batch_size,
                    )
                    raise _PoolStuckError("simulated wedge")
                # The resumed job adopted the delivered prefix as completed.
                assert 0 in job.completed
                return real(job, reports, tracker, run_id)

            engine._run_on_pool = flaky
            report = engine.run_attempts(48, base_seed=11)
            health = engine.pool_health()
        assert calls["n"] == 2
        assert health["pool_rebuilds"] == 1
        expected = serial_report(
            unnoised_model, acs_splits, params, num_attempts=48, base_seed=11
        )
        assert_reports_identical(expected, report)

    def test_repeatedly_wedged_job_breaks_the_engine(
        self, unnoised_model, acs_splits, params
    ):
        from repro.core.engine import _PoolStuckError

        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
        ) as engine:

            def always_wedged(job, reports, tracker, run_id):
                raise _PoolStuckError("simulated wedge")

            engine._run_on_pool = always_wedged
            with pytest.raises(EngineBrokenError):
                engine.run_attempts(48, base_seed=11)
            assert engine.pool_health()["broken"]
            assert (
                engine.pool_health()["pool_rebuilds"]
                == engine._MAX_POOL_REBUILDS
            )


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
