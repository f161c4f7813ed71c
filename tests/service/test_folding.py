"""Folding conformance: fused concurrent requests are bit-identical to serial.

The PR 8 scale-out path has three moving parts, each proven here against the
serial unfolded ground truth with the shared :mod:`repro.testing.invariants`
checkers:

* :meth:`~repro.core.engine.SynthesisEngine.generate_folded` — K fold lanes
  in one fused job release exactly what K separate ``generate`` calls
  release, on the in-process path and on the multiprocess pool, including
  under a mid-fold worker SIGKILL (the PR 7 retry path);
* :class:`~repro.service.engine_pool.EnginePool` — bounded build/checkout,
  LRU reaping under a worker budget, broken-engine eviction;
* the folding :class:`~repro.service.scheduler.RequestScheduler` and the
  service's fold executor — a deterministically forced fold of concurrent
  ``/generate`` requests yields rows, ledgers and accountant spend
  bit-identical to the same requests served serially unfolded.
"""

import threading
import time
from collections import deque
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.engine import (
    MAX_FOLD_LANES,
    EngineBrokenError,
    FoldSpec,
    SynthesisEngine,
)
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.service import (
    EnginePool,
    GenerateRequest,
    ModelRegistry,
    RequestScheduler,
    ServiceApp,
    WorkerBudgetError,
)
from repro.service.scheduler import SchedulerStoppedError
from repro.testing import KillWorkerAtChunk
from repro.testing.invariants import (
    assert_reports_identical,
    check_accountant_conservation,
    check_theorem1_bounds,
)
from repro.testing.scenarios import get_scenario

pytestmark = pytest.mark.service

FIT_SEED = 17
REQUEST_SEEDS = (101, 202, 303)

#: Lane mixes for the engine-level parity tests: different sizes, an explicit
#: attempt budget, and a repeated base seed (two tenants asking for the same
#: rows must both get them).
FOLD_SPECS = (
    FoldSpec(num_released=6, base_seed=101),
    FoldSpec(num_released=3, base_seed=202),
    FoldSpec(num_released=9, base_seed=303, max_attempts=500),
    FoldSpec(num_released=4, base_seed=101),
)


@pytest.fixture(scope="module")
def params():
    return PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0)


def _engine(unnoised_model, acs_splits, params, **kwargs):
    return SynthesisEngine(
        unnoised_model,
        acs_splits.seeds,
        params,
        chunk_size=16,
        batch_size=8,
        **kwargs,
    )


def _serial_reports(unnoised_model, acs_splits, params, specs):
    """The unfolded ground truth: one serial ``generate`` per spec."""
    with _engine(unnoised_model, acs_splits, params) as engine:
        return [
            engine.generate(
                spec.num_released,
                base_seed=spec.base_seed,
                max_attempts=spec.max_attempts,
            )
            for spec in specs
        ]


# --------------------------------------------------------------------------- #
# Engine level: generate_folded == K serial generates
# --------------------------------------------------------------------------- #
class TestGenerateFolded:
    def test_fold_matches_serial_in_process(self, unnoised_model, acs_splits, params):
        expected = _serial_reports(unnoised_model, acs_splits, params, FOLD_SPECS)
        with _engine(unnoised_model, acs_splits, params) as engine:
            folded = engine.generate_folded(list(FOLD_SPECS))
        assert len(folded) == len(FOLD_SPECS)
        for i, (want, got) in enumerate(zip(expected, folded)):
            assert_reports_identical(want, got, context=f"lane {i}")

    def test_fold_matches_serial_on_worker_pool(
        self, unnoised_model, acs_splits, params
    ):
        expected = _serial_reports(unnoised_model, acs_splits, params, FOLD_SPECS)
        with _engine(
            unnoised_model, acs_splits, params, num_workers=2
        ) as engine:
            folded = engine.generate_folded(list(FOLD_SPECS))
            # The same engine keeps serving correctly after a fold.
            after = engine.generate(6, base_seed=101)
        for i, (want, got) in enumerate(zip(expected, folded)):
            assert_reports_identical(want, got, context=f"pooled lane {i}")
        assert_reports_identical(expected[0], after, context="post-fold generate")

    def test_single_lane_fold_is_plain_generate(
        self, unnoised_model, acs_splits, params
    ):
        spec = FOLD_SPECS[0]
        with _engine(unnoised_model, acs_splits, params) as engine:
            [folded] = engine.generate_folded([spec])
            plain = engine.generate(spec.num_released, base_seed=spec.base_seed)
        assert_reports_identical(plain, folded, context="single-lane fold")

    def test_empty_fold_returns_nothing(self, unnoised_model, acs_splits, params):
        with _engine(unnoised_model, acs_splits, params) as engine:
            assert engine.generate_folded([]) == []

    @pytest.mark.chaos
    def test_sigkill_mid_fold_recovers_bit_identical(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        """A worker SIGKILLed mid-folded-batch: the retry path keeps every
        lane bit-identical to its serial unfolded ground truth."""
        expected = _serial_reports(unnoised_model, acs_splits, params, FOLD_SPECS)
        # A fold dispatches its lanes' chunks one lane after the other, so
        # lane 1's first chunk (always executed) follows lane 0's 100-per-row
        # attempt budget in 16-attempt chunks.
        lane_1_first_chunk = -(-100 * FOLD_SPECS[0].num_released // 16)
        fault = KillWorkerAtChunk(
            chunk_index=lane_1_first_chunk, marker_dir=str(tmp_path), times=1
        )
        with _engine(
            unnoised_model,
            acs_splits,
            params,
            num_workers=2,
            fault_injector=fault,
        ) as engine:
            folded = engine.generate_folded(list(FOLD_SPECS))
            health = engine.pool_health()
        assert fault.kills_fired() == 1
        assert health["worker_restarts"] == 1
        assert not health["broken"]
        for i, (want, got) in enumerate(zip(expected, folded)):
            assert_reports_identical(want, got, context=f"post-crash lane {i}")


# --------------------------------------------------------------------------- #
# Engine pool
# --------------------------------------------------------------------------- #
class _FakeEngine:
    """Duck-typed engine for pool tests: just health + close."""

    def __init__(self, model_id):
        self.model_id = model_id
        self.closed = False
        self.broken = False

    def pool_health(self):
        return {
            "broken": self.broken,
            "workers_alive": 0 if self.closed else 1,
            "worker_restarts": 0,
            "pool_rebuilds": 0,
        }

    def close(self):
        self.closed = True


class TestEnginePool:
    def test_release_reuses_the_built_engine(self):
        built = []

        def builder(model_id):
            engine = _FakeEngine(model_id)
            built.append(engine)
            return engine

        with EnginePool(builder) as pool:
            first = pool.checkout("m")
            pool.release(first)
            second = pool.checkout("m")
            pool.release(second)
        assert len(built) == 1
        assert first.engine is second.engine
        assert pool.health()["builds"] == 1

    def test_engines_per_model_bound_blocks_checkout(self):
        with EnginePool(_FakeEngine, engines_per_model=1) as pool:
            lease = pool.checkout("m")
            with pytest.raises(TimeoutError):
                pool.checkout("m", timeout=0.05)
            # A release unblocks a waiting checkout.
            waiter_result = []

            def waiter():
                waiter_result.append(pool.checkout("m", timeout=5.0))

            thread = threading.Thread(target=waiter)
            thread.start()
            pool.release(lease)
            thread.join(timeout=5.0)
            assert not thread.is_alive()
            assert waiter_result[0].engine is lease.engine
            pool.release(waiter_result[0])

    def test_discard_evicts_and_rebuilds(self):
        with EnginePool(_FakeEngine) as pool:
            first = pool.checkout("m")
            pool.discard(first)
            assert first.engine.closed
            second = pool.checkout("m")
            assert second.engine is not first.engine
            pool.release(second)
            health = pool.health()
        assert health["builds"] == 2
        assert health["evictions"] == 1

    def test_broken_engine_is_evicted_on_release(self):
        with EnginePool(_FakeEngine) as pool:
            lease = pool.checkout("m")
            lease.engine.broken = True
            pool.release(lease)  # must route through eviction, not reshelve
            assert lease.engine.closed
            replacement = pool.checkout("m")
            assert replacement.engine is not lease.engine
            pool.release(replacement)
            assert pool.health()["evictions"] == 1

    def test_broken_idle_engine_is_evicted_on_checkout(self):
        with EnginePool(_FakeEngine) as pool:
            lease = pool.checkout("m")
            engine = lease.engine
            pool.release(lease)
            engine.broken = True  # breaks while shelved
            fresh = pool.checkout("m")
            assert fresh.engine is not engine
            assert engine.closed
            pool.release(fresh)
            assert pool.health()["evictions"] == 1

    def test_worker_budget_reaps_lru_idle_engines(self):
        with EnginePool(_FakeEngine, worker_budget=2) as pool:
            lease_a = pool.checkout("a")
            pool.release(lease_a)
            time.sleep(0.01)  # make last_used strictly ordered
            lease_b = pool.checkout("b")
            pool.release(lease_b)
            lease_c = pool.checkout("c")  # budget full: reaps the LRU idle (a)
            health = pool.health()
            assert lease_a.engine.closed
            assert not lease_b.engine.closed
            assert health["reaped"] == 1
            assert health["workers_reserved"] == 2
            pool.release(lease_c)

    def test_worker_budget_smaller_than_one_engine_raises(self):
        with EnginePool(
            _FakeEngine, workers_per_engine=2, worker_budget=1
        ) as pool:
            with pytest.raises(WorkerBudgetError):
                pool.checkout("m")

    def test_release_after_close_closes_the_engine(self):
        pool = EnginePool(_FakeEngine)
        lease = pool.checkout("m")
        pool.close()
        assert not lease.engine.closed  # leased engines survive pool close
        pool.release(lease)
        assert lease.engine.closed
        with pytest.raises(RuntimeError):
            pool.checkout("m")

    def test_health_reports_per_model_and_global_counters(self):
        with EnginePool(_FakeEngine, engines_per_model=2, worker_budget=8) as pool:
            lease = pool.checkout("m")
            health = pool.health()
            pool.release(lease)
        assert health["models"]["m"] == {
            "engines": 1,
            "busy": 1,
            "workers_alive": 1,
            "worker_restarts": 0,
            "pool_rebuilds": 0,
            "broken": 0,
        }
        assert health["worker_budget"] == 8
        assert health["engines_per_model"] == 2
        assert health["workers_per_engine"] == 1


# --------------------------------------------------------------------------- #
# Scheduler folding
# --------------------------------------------------------------------------- #
def _request(i, model_id="model"):
    return GenerateRequest(
        request_id=f"r{i}", model_id=model_id, num_rows=1, base_seed=i
    )


class TestSchedulerFolding:
    def test_fold_executor_receives_the_whole_batch(self):
        folds = []

        def fold(model_id, requests):
            folds.append((model_id, [r.request_id for r in requests]))
            return [f"report-{r.request_id}" for r in requests]

        with RequestScheduler(fold_executor=fold, autostart=False) as scheduler:
            futures = [scheduler.submit(_request(i)) for i in range(3)]
            scheduler.start()
            results = [future.result(timeout=10) for future in futures]
            stats = scheduler.stats()
        assert folds == [("model", ["r0", "r1", "r2"])]
        assert results == ["report-r0", "report-r1", "report-r2"]
        assert stats.fold_factor == 3.0
        assert stats.coalesced == 3
        assert stats.queue_wait_seconds >= 0.0
        assert stats.utilization >= 0.0

    def test_exception_outcome_fails_only_that_request(self):
        def fold(model_id, requests):
            return [
                ValueError("lane refused") if r.request_id == "r1" else "ok"
                for r in requests
            ]

        with RequestScheduler(fold_executor=fold, autostart=False) as scheduler:
            futures = [scheduler.submit(_request(i)) for i in range(3)]
            scheduler.start()
            assert futures[0].result(timeout=10) == "ok"
            with pytest.raises(ValueError):
                futures[1].result(timeout=10)
            assert futures[2].result(timeout=10) == "ok"
            stats = scheduler.stats()
        assert stats.completed == 2
        assert stats.failed == 1

    def test_outcome_count_mismatch_fails_the_batch(self):
        with RequestScheduler(
            fold_executor=lambda model_id, requests: ["only-one"],
            autostart=False,
        ) as scheduler:
            futures = [scheduler.submit(_request(i)) for i in range(2)]
            scheduler.start()
            for future in futures:
                with pytest.raises(RuntimeError, match="outcome"):
                    future.result(timeout=10)

    def test_close_drains_the_in_flight_fold(self):
        entered = threading.Event()

        def fold(model_id, requests):
            entered.set()
            time.sleep(0.3)
            return ["done"] * len(requests)

        scheduler = RequestScheduler(fold_executor=fold)
        future = scheduler.submit(_request(0))
        assert entered.wait(timeout=5.0)
        scheduler.close(drain_timeout=10.0)
        # The in-flight fold finished inside close(); its future is resolved.
        assert future.done()
        assert future.result() == "done"

    def test_drain_timeout_abandons_stuck_folds_and_fails_queued(self):
        entered = threading.Event()
        release = threading.Event()

        def fold(model_id, requests):
            entered.set()
            assert release.wait(timeout=30)
            return ["late"] * len(requests)

        scheduler = RequestScheduler(fold_executor=fold)
        in_flight = scheduler.submit(_request(0))
        assert entered.wait(timeout=5.0)
        queued = scheduler.submit(_request(1))  # dispatcher busy: stays queued
        scheduler.close(drain_timeout=0.1)
        with pytest.raises(SchedulerStoppedError):
            queued.result(timeout=5.0)
        release.set()  # the abandoned fold still resolves its own future
        assert in_flight.result(timeout=5.0) == "late"

    def test_overflow_past_max_fold_lanes_runs_on_a_second_dispatcher(self):
        barrier = threading.Barrier(2)
        folds = []

        def fold(model_id, requests):
            folds.append(len(requests))
            barrier.wait(timeout=10)  # both dispatchers must be folding at once
            return ["ok"] * len(requests)

        with RequestScheduler(
            fold_executor=fold,
            engines_per_model=2,
            autostart=False,
        ) as scheduler:
            futures = [
                scheduler.submit(_request(i)) for i in range(MAX_FOLD_LANES + 1)
            ]
            scheduler.start()
            for future in futures:
                assert future.result(timeout=10) == "ok"
            stats = scheduler.stats()
        assert sorted(folds) == [1, MAX_FOLD_LANES]
        assert stats.batches == 2
        assert stats.max_batch == MAX_FOLD_LANES


# --------------------------------------------------------------------------- #
# Service level: a forced fold is bit-identical to serial unfolded service
# --------------------------------------------------------------------------- #
class _HoldFirstDispatch:
    """Dispatch hook that parks the first dispatched request until released.

    While the single dispatcher is parked, the remaining concurrent requests
    pile up in the model's fold queue — so releasing the gate makes the
    dispatcher drain them as ONE fused fold, deterministically.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._first = None
        self.first_seen = threading.Event()
        self.release = threading.Event()

    def __call__(self, request):
        with self._lock:
            if self._first is None:
                self._first = request.request_id
            first = self._first == request.request_id
        if first and not self.release.is_set():
            self.first_seen.set()
            if not self.release.wait(timeout=30):  # pragma: no cover
                raise RuntimeError("fold gate never released")


def _strip_timestamps(ledger):
    return [
        {key: value for key, value in event.items() if key != "timestamp"}
        for event in ledger
    ]


def test_folded_service_is_bit_identical_to_serial_unfolded():
    scenario = get_scenario("toy-correlated")
    rows = scenario.target_released

    # Ground truth: the same requests served one at a time, never folded.
    serial = {}
    with ServiceApp(ModelRegistry(), num_workers=1) as app:
        app.publish_model("toy", scenario.dataset(0), scenario.config(), seed=FIT_SEED)
        sessions = {
            seed: app.create_session("toy")["session_id"] for seed in REQUEST_SEEDS
        }
        for seed in REQUEST_SEEDS:
            record = app.generate(sessions[seed], rows, seed=seed)
            session = app._session(sessions[seed])
            serial[seed] = {
                "report": record.report,
                "spent": session.spent(),
                "ledger": _strip_timestamps(session.ledger()),
            }

    gate = _HoldFirstDispatch()
    with ServiceApp(ModelRegistry(), num_workers=1, dispatch_hook=gate) as app:
        app.publish_model("toy", scenario.dataset(0), scenario.config(), seed=FIT_SEED)
        published = app.model("toy")
        sessions = {
            seed: app.create_session("toy")["session_id"] for seed in REQUEST_SEEDS
        }
        records = {}
        failures = []

        def client(seed):
            try:
                records[seed] = app.generate(sessions[seed], rows, seed=seed)
            except BaseException as exc:  # pragma: no cover - surfaced below
                failures.append(exc)

        threads = [
            threading.Thread(target=client, args=(seed,)) for seed in REQUEST_SEEDS
        ]
        # Start one client alone and wait for its dispatch to park in the
        # gate, so it is a batch of exactly one; the other two then queue
        # behind it and MUST fold into one fused batch.
        threads[0].start()
        assert gate.first_seen.wait(timeout=30)
        for thread in threads[1:]:
            thread.start()
        deadline = time.monotonic() + 30
        while app.scheduler.queue_depth() < len(REQUEST_SEEDS) - 1:
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.005)
        gate.release.set()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures

        stats = app.scheduler.stats()
        health = app.healthz()

        for seed in REQUEST_SEEDS:
            session = app._session(sessions[seed])
            assert_reports_identical(
                serial[seed]["report"], records[seed].report, context=f"seed {seed}"
            )
            np.testing.assert_array_equal(
                serial[seed]["report"].released_dataset().data,
                records[seed].report.released_dataset().data,
            )
            assert session.spent() == serial[seed]["spent"]
            assert _strip_timestamps(session.ledger()) == serial[seed]["ledger"]
            check_theorem1_bounds(
                records[seed].report,
                published.params,
                num_seed_records=len(published.pipeline.splits.seeds),
            )
            check_accountant_conservation(session.accountant)

    # The fold demonstrably happened: the held-back pair shared one batch.
    assert stats.batches == 2
    assert stats.max_batch == 2
    assert stats.coalesced == 2
    assert stats.fold_factor == 1.5
    # ... and /healthz surfaces the scaling metrics operators need.
    assert health["scheduler"]["fold_factor"] == stats.fold_factor
    assert health["scheduler"]["completed"] == len(REQUEST_SEEDS)
    model_health = health["engines"]["models"][published.model_id]
    assert model_health["engines"] == 1
    assert model_health["broken"] == 0
    assert health["engines"]["builds"] == 1


def test_fold_discards_broken_engine_and_retries_once():
    scenario = get_scenario("toy-correlated")

    class _BrokenOnceEngine:
        def generate_folded(self, specs):
            raise EngineBrokenError("engine gave up")

    class _GoodEngine:
        def generate_folded(self, specs):
            return [f"report-{spec.base_seed}" for spec in specs]

    class _StubPool:
        def __init__(self, engines):
            self.engines = deque(engines)
            self.discarded = []
            self.released = []

        def checkout(self, model_id, timeout=None):
            return SimpleNamespace(model_id=model_id, engine=self.engines.popleft())

        def discard(self, lease):
            self.discarded.append(lease.engine)

        def release(self, lease):
            self.released.append(lease.engine)

        def close(self):
            pass

        def health(self):
            return {"models": {}}

    # telemetry off: the stub engines return placeholder reports that the
    # fold-telemetry recorder could not introspect
    with ServiceApp(ModelRegistry(), num_workers=1, telemetry=False) as app:
        app.publish_model("toy", scenario.dataset(0), scenario.config(), seed=FIT_SEED)
        model_id = app.model("toy").model_id
        broken, good = _BrokenOnceEngine(), _GoodEngine()
        app._pool = _StubPool([broken, good])
        requests = [
            GenerateRequest(
                request_id=f"r{i}", model_id=model_id, num_rows=2, base_seed=seed
            )
            for i, seed in enumerate(REQUEST_SEEDS)
        ]
        reports = app._execute_fold(model_id, requests)
        assert reports == [f"report-{seed}" for seed in REQUEST_SEEDS]
        assert app._pool.discarded == [broken]  # evicted, not reshelved
        assert app._pool.released == [good]

        # Two broken engines in a row: the error surfaces after one retry.
        app._pool = _StubPool([_BrokenOnceEngine(), _BrokenOnceEngine()])
        with pytest.raises(EngineBrokenError):
            app._execute_fold(model_id, requests)
        assert len(app._pool.discarded) == 2
        app._pool = SimpleNamespace(close=lambda: None, health=lambda: {})
