"""Folding request scheduler: batching, ordering, error propagation, dispatch."""

import dataclasses
import threading
import time

import pytest

from repro.service.scheduler import (
    MAX_FOLD_LANES,
    GenerateRequest,
    RequestScheduler,
    SchedulerStats,
)

pytestmark = pytest.mark.service


def request(index: int, model_id: str = "m") -> GenerateRequest:
    return GenerateRequest(
        request_id=f"r{index}", model_id=model_id, num_rows=1, base_seed=index
    )


def noop_fold(model_id, requests):
    return [None] * len(requests)


def scheduler_threads(prefix: str) -> list[threading.Thread]:
    return [
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(f"repro-scheduler-{prefix}")
    ]


class TestCoalescing:
    def test_queued_burst_coalesces_into_one_batch(self):
        executed = []

        def fold(model_id, requests):
            executed.extend(req.request_id for req in requests)
            return [None] * len(requests)

        with RequestScheduler(fold_executor=fold, autostart=False) as scheduler:
            futures = [scheduler.submit(request(index)) for index in range(4)]
            scheduler.start()
            for future in futures:
                future.result(timeout=10)
            stats = scheduler.stats()
        assert executed == ["r0", "r1", "r2", "r3"]  # submission order preserved
        assert stats.batches == 1
        assert stats.max_batch == 4
        assert stats.coalesced == 4

    def test_overflow_past_max_fold_lanes_folds_as_64_plus_1(self):
        folds = []

        def fold(model_id, requests):
            folds.append([req.base_seed for req in requests])
            return [req.base_seed for req in requests]

        count = MAX_FOLD_LANES + 1
        with RequestScheduler(fold_executor=fold, autostart=False) as scheduler:
            futures = [scheduler.submit(request(index)) for index in range(count)]
            scheduler.start()
            results = [future.result(timeout=10) for future in futures]
            stats = scheduler.stats()
        assert results == list(range(count))
        assert folds == [list(range(MAX_FOLD_LANES)), [MAX_FOLD_LANES]]
        assert stats.batches == 2
        assert stats.max_batch == MAX_FOLD_LANES
        assert stats.completed == count
        assert stats.fold_factor == count / 2

    def test_concurrent_submitters_all_complete(self):
        def slowish(model_id, requests):
            time.sleep(0.002)
            return [req.base_seed * 10 for req in requests]

        results = {}
        with RequestScheduler(fold_executor=slowish) as scheduler:

            def client(index):
                results[index] = scheduler.submit(request(index)).result(timeout=30)

            threads = [threading.Thread(target=client, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert results == {index: index * 10 for index in range(8)}


class TestFailures:
    def test_executor_error_reaches_the_caller_only(self):
        def explode_on_two(model_id, requests):
            return [
                RuntimeError("boom") if req.base_seed == 2 else req.base_seed
                for req in requests
            ]

        with RequestScheduler(
            fold_executor=explode_on_two, autostart=False
        ) as scheduler:
            futures = [scheduler.submit(request(index)) for index in range(4)]
            scheduler.start()
            assert futures[0].result(timeout=10) == 0
            with pytest.raises(RuntimeError, match="boom"):
                futures[2].result(timeout=10)
            assert futures[3].result(timeout=10) == 3
            stats = scheduler.stats()
        assert stats.failed == 1
        assert stats.completed == 3

    def test_submit_after_close_rejected(self):
        scheduler = RequestScheduler(fold_executor=noop_fold)
        scheduler.close()
        with pytest.raises(RuntimeError, match="closed"):
            scheduler.submit(request(0))

    def test_close_is_idempotent(self):
        scheduler = RequestScheduler(fold_executor=noop_fold)
        scheduler.close()
        scheduler.close()


class TestDispatchModel:
    def test_sequential_requests_share_one_dispatcher_thread(self):
        seen = []

        def fold(model_id, requests):
            # Keep the Thread objects: an exited thread's ident may be reused.
            seen.append(threading.current_thread())
            return [None] * len(requests)

        with RequestScheduler(fold_executor=fold, engines_per_model=1) as scheduler:
            for index in range(3000):
                scheduler.submit(request(index)).result(timeout=10)
        assert len(seen) == 3000
        assert len(set(seen)) == 1

    def test_stats_hold_no_lists_or_dicts(self):
        with RequestScheduler(
            fold_executor=noop_fold, engines_per_model=2
        ) as scheduler:
            for index in range(50):
                scheduler.submit(request(index, model_id=f"m{index % 3}")).result(
                    timeout=10
                )
            stats = scheduler.stats()
        assert stats.completed == 50
        for spec in dataclasses.fields(SchedulerStats):
            value = getattr(stats, spec.name)
            assert not isinstance(value, (list, dict)), spec.name

    def test_close_with_parked_dispatchers_returns_promptly(self):
        scheduler = RequestScheduler(
            fold_executor=noop_fold, engines_per_model=2, drain_timeout=30.0
        )
        for model_id in ("parked-a", "parked-b"):
            scheduler.submit(request(0, model_id=model_id)).result(timeout=10)
        assert len(scheduler_threads("parked-")) == 4
        started = time.monotonic()
        scheduler.close()
        elapsed = time.monotonic() - started
        assert elapsed < 2.0, f"close() took {elapsed:.2f}s with idle dispatchers"
        assert scheduler_threads("parked-") == []
        assert scheduler.stats().dispatchers_active == 0

    def test_interleaved_submits_to_two_models_all_resolve(self):
        folds = []

        def fold(model_id, requests):
            folds.append((model_id, {req.model_id for req in requests}))
            return [(model_id, req.base_seed) for req in requests]

        models = ("left", "right")
        with RequestScheduler(fold_executor=fold) as scheduler:
            # One at a time, in runs of two per model, so the model order
            # differs from the order the dispatchers parked in: each request
            # must still wake its own model's dispatcher.
            for index in range(200):
                model_id = models[(index // 2) % 2]
                future = scheduler.submit(request(index, model_id=model_id))
                assert future.result(timeout=10) == (model_id, index)
            # And a burst from concurrent clients on both models.
            futures = {}

            def client(offset):
                for index in range(offset, 1000, 4):
                    model_id = models[index % 2]
                    futures[index] = scheduler.submit(
                        request(index, model_id=model_id)
                    )

            clients = [
                threading.Thread(target=client, args=(offset,))
                for offset in range(200, 204)
            ]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join()
            for index, future in sorted(futures.items()):
                assert future.result(timeout=10) == (models[index % 2], index)
            stats = scheduler.stats()
        assert all({model_id} == lanes for model_id, lanes in folds)
        assert stats.completed == 1000
        assert stats.failed == 0
