"""Tests for the shared-memory parallel synthesis engine.

Parity and reproducibility assertions go through the shared conformance
checkers (:mod:`repro.testing.invariants`); this module keeps the
engine-specific lifecycle, progress and checkpointing coverage.
"""

import numpy as np
import pytest

from repro.core.engine import ChunkProgress, SynthesisEngine
from repro.core.run_store import RunStore, RunStoreCorruptionError
from repro.core.stream import STREAM_VERSION, attempt_stream
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.testing.invariants import (
    assert_reports_identical,
    check_engine_parity,
    report_accounting as _accounting,
)


@pytest.fixture(scope="module")
def params():
    return PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0)


class TestSerialEngine:
    def test_chunk_oracle_equivalence(self, unnoised_model, acs_splits, params):
        # The engine's chunks are exactly mechanism.run_attempts calls on the
        # chunks' attempt ranges — and so is one run over all 40 attempts.
        from repro.core.mechanism import SynthesisMechanism

        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, batch_size=8
        ) as engine:
            report = engine.run_attempts(40, base_seed=9)
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        oracle = [
            mechanism.run_attempts(size, attempt_stream(9, start=16 * index), batch_size=8)
            for index, size in enumerate((16, 16, 8))
        ]
        merged = oracle[0].merge(*oracle[1:])
        assert_reports_identical(merged, report)
        assert_reports_identical(mechanism.run_attempts(40, attempt_stream(9)), report)

    def test_run_attempts_counts(self, unnoised_model, acs_splits, params):
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=8
        ) as engine:
            assert engine.run_attempts(0).num_attempts == 0
            assert engine.run_attempts(21).num_attempts == 21

    def test_generate_until_n_stops_within_a_chunk(
        self, unnoised_model, acs_splits, params
    ):
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=32
        ) as engine:
            report = engine.generate(10, base_seed=3, max_attempts=5000)
        assert report.num_released == 10
        # Truncation at the Nth release: the final recorded attempt is it.
        assert report["passed"][-1]
        assert report.num_attempts <= 2 * engine.chunk_size

    def test_retained_release_owns_only_its_rows(self, unnoised_model, acs_splits, params):
        # A 16-row release cut from a 512-attempt chunk must not keep the
        # whole chunk alive: the service holds many releases in memory.
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=512
        ) as engine:
            report = engine.generate(16, base_seed=4)
        assert report.num_released == 16
        assert report.num_attempts < 512
        for name, column in report.to_arrays().items():
            assert len(column) == report.num_attempts, name
            assert column.base is None or column.base.nbytes == column.nbytes, name

    def test_generate_respects_attempt_budget(self, unnoised_model, acs_splits):
        # k equal to the whole seed split: a candidate passes only if every
        # seed record shares its probability bucket, which the zero-probability
        # non-matching records make impossible — the budget must stop the run.
        strict = PlausibleDeniabilityParams(k=len(acs_splits.seeds), gamma=4.0)
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, strict, chunk_size=16
        ) as engine:
            report = engine.generate(5, base_seed=1, max_attempts=64)
        assert report.num_attempts == 64
        assert report.num_released < 5

    def test_progress_events_stream(self, unnoised_model, acs_splits, params):
        events: list[ChunkProgress] = []
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16
        ) as engine:
            report = engine.run_attempts(40, base_seed=2, progress=events.append)
        assert [event.chunk_index for event in events] == [0, 1, 2]
        assert [event.chunk_attempts for event in events] == [16, 16, 8]
        assert events[-1].total_attempts == report.num_attempts
        assert events[-1].total_released == report.num_released

    def test_validation(self, unnoised_model, acs_splits, params):
        with pytest.raises(ValueError):
            SynthesisEngine(unnoised_model, acs_splits.seeds, params, num_workers=0)
        with pytest.raises(ValueError):
            SynthesisEngine(unnoised_model, acs_splits.seeds, params, chunk_size=0)
        with pytest.raises(ValueError):
            SynthesisEngine(unnoised_model, acs_splits.seeds, params, batch_size=0)
        with SynthesisEngine(unnoised_model, acs_splits.seeds, params) as engine:
            with pytest.raises(ValueError):
                engine.run_attempts(-1)
            with pytest.raises(ValueError):
                engine.generate(-1)

    def test_closed_engine_rejects_runs(self, unnoised_model, acs_splits, params):
        engine = SynthesisEngine(unnoised_model, acs_splits.seeds, params)
        engine.close()
        with pytest.raises(RuntimeError):
            engine.run_attempts(1)

    def test_non_network_model_rejected(self, marginal_model, acs_splits, params):
        # Workers rebuild a Bayesian network from shared-memory tables; no
        # other model has a worker-side form.
        with pytest.raises(TypeError, match="Bayesian-network"):
            SynthesisEngine(marginal_model, acs_splits.seeds, params)

    def test_none_batch_size_rejected(self, unnoised_model, acs_splits, params):
        with pytest.raises(TypeError):
            SynthesisEngine(unnoised_model, acs_splits.seeds, params, batch_size=None)


class TestFixedBudgetRuns:
    """``run_attempts`` on the in-process engine: Section 5's parallel tool
    instances as one engine call with a fixed attempt budget."""

    def test_single_worker_in_process(self, unnoised_model, acs_splits, params):
        with SynthesisEngine(unnoised_model, acs_splits.seeds, params) as engine:
            report = engine.run_attempts(12)
            assert engine.pool_health()["workers_alive"] == 0
        assert report.num_attempts == 12

    def test_zero_attempts(self, unnoised_model, acs_splits, params):
        with SynthesisEngine(unnoised_model, acs_splits.seeds, params) as engine:
            assert engine.run_attempts(0).num_attempts == 0

    def test_validation(self, unnoised_model, acs_splits, params):
        with SynthesisEngine(unnoised_model, acs_splits.seeds, params) as engine:
            with pytest.raises(ValueError):
                engine.run_attempts(-1)
        with pytest.raises(ValueError):
            SynthesisEngine(unnoised_model, acs_splits.seeds, params, num_workers=0)

    def test_reproducible_for_fixed_base_seed(self, unnoised_model, acs_splits, params):
        with SynthesisEngine(unnoised_model, acs_splits.seeds, params) as engine:
            first = engine.run_attempts(10, base_seed=3)
            second = engine.run_attempts(10, base_seed=3)
        assert np.array_equal(
            first.all_candidates_dataset().data, second.all_candidates_dataset().data
        )

    def test_adjacent_base_seeds_use_distinct_streams(
        self, unnoised_model, acs_splits, params
    ):
        # Chunk streams are SeedSequence children of the base seed, so
        # adjacent base seeds never share a stream (as base_seed + chunk
        # index would).
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=4
        ) as engine:
            first = engine.run_attempts(8, base_seed=0)
            second = engine.run_attempts(8, base_seed=1)
        assert not np.array_equal(
            first.all_candidates_dataset().data[4:8],
            second.all_candidates_dataset().data[0:4],
        )

    @pytest.mark.parametrize("batch_size", [1, 8])
    def test_batched_path_runs_requested_attempts(
        self, unnoised_model, acs_splits, params, batch_size
    ):
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, batch_size=batch_size
        ) as engine:
            assert engine.run_attempts(25).num_attempts == 25


class TestWorkerPoolParity:
    """Spawn-context multi-worker runs must match the serial reference exactly.

    The comparisons go through :func:`repro.testing.invariants.check_engine_parity`;
    one persistent 2-worker pool is shared by the whole class so the suite
    pays the spawn startup cost once.
    """

    @pytest.fixture(scope="class")
    def pool_engine(self, unnoised_model, acs_splits, params):
        with SynthesisEngine(
            unnoised_model,
            acs_splits.seeds,
            params,
            num_workers=2,
            chunk_size=16,
            batch_size=8,
        ) as engine:
            yield engine.start()

    def test_run_attempts_parity(self, pool_engine, unnoised_model, acs_splits, params):
        check_engine_parity(
            unnoised_model,
            acs_splits.seeds,
            params,
            base_seed=11,
            num_attempts=60,
            chunk_size=16,
            batch_size=8,
            engines=[pool_engine],
        )

    def test_until_n_released_parity(self, pool_engine, unnoised_model, acs_splits, params):
        serial = check_engine_parity(
            unnoised_model,
            acs_splits.seeds,
            params,
            base_seed=13,
            num_released=12,
            max_attempts=4000,
            chunk_size=16,
            batch_size=8,
            engines=[pool_engine],
        )
        assert serial.num_released == 12

    def test_pool_persists_across_calls(self, pool_engine):
        first = pool_engine.run_attempts(20, base_seed=1)
        second = pool_engine.run_attempts(20, base_seed=1)
        assert_reports_identical(first, second)

    def test_in_process_lane_stops_at_the_batch_of_its_last_release(
        self, pool_engine, unnoised_model, acs_splits, params, monkeypatch
    ):
        # The in-process engine computes no attempt past the proposal batch
        # that holds the N-th release (pool workers run whole chunks and the
        # parent cuts them), and still releases exactly what the pool does.
        from repro.core.mechanism import SynthesisMechanism

        proposed = []
        propose_batch = SynthesisMechanism.propose_batch

        def counting_propose_batch(mechanism, batch_size, stream):
            proposed.append(batch_size)
            return propose_batch(mechanism, batch_size, stream)

        monkeypatch.setattr(SynthesisMechanism, "propose_batch", counting_propose_batch)
        for base_seed, target in ((13, 12), (17, 5), (19, 21)):
            proposed.clear()
            events: list[ChunkProgress] = []
            with SynthesisEngine(
                unnoised_model, acs_splits.seeds, params, chunk_size=16, batch_size=8
            ) as engine:
                report = engine.generate(
                    target, base_seed=base_seed, max_attempts=4000, progress=events.append
                )
            assert report.num_released == target
            assert sum(event.chunk_attempts for event in events) == report.num_attempts
            assert report.num_attempts <= sum(proposed) < report.num_attempts + 8
            pooled = pool_engine.generate(target, base_seed=base_seed, max_attempts=4000)
            assert_reports_identical(report, pooled, context=f"seed {base_seed}")


class TestCheckpointing:
    def test_resume_skips_completed_chunks(
        self, unnoised_model, acs_splits, params, tmp_path, monkeypatch
    ):
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            original = engine.generate(
                10, base_seed=21, max_attempts=2000, run_id="resume-test"
            )
        assert store.completed_chunks("resume-test")

        # A fresh engine with the same store must replay from the checkpoints
        # without proposing a single new candidate.
        from repro.core import mechanism as mechanism_module

        def _boom(*args, **kwargs):
            raise AssertionError("resumed run must not regenerate chunks")

        monkeypatch.setattr(
            mechanism_module.SynthesisMechanism, "run_attempts", _boom
        )
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            resumed = engine.generate(
                10, base_seed=21, max_attempts=2000, run_id="resume-test"
            )
        assert _accounting(resumed) == _accounting(original)

    def test_chunk_stored_cut_at_the_target_resumes_on_a_pool(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # The in-process engine stores its last chunk cut at the release
        # target; a 2-worker pool resuming the run id adopts it as is.
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params,
            chunk_size=16, batch_size=8, run_store=store,
        ) as engine:
            original = engine.generate(12, base_seed=13, max_attempts=4000, run_id="cut")
        chunks = store.load_chunks("cut")
        assert len(chunks[max(chunks)]["passed"]) < 16
        events = []
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params,
            num_workers=2, chunk_size=16, batch_size=8, run_store=store,
        ) as pool:
            resumed = pool.generate(
                12, base_seed=13, max_attempts=4000, run_id="cut", progress=events.append
            )
        assert events and all(event.from_checkpoint for event in events)
        assert_reports_identical(original, resumed)

    def test_partial_resume_completes_the_run(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            full = engine.run_attempts(48, base_seed=5, run_id="partial")
        # Simulate a crash after the first chunk: drop the later checkpoints.
        run_dir = store.root / "runs" / "partial"
        for index in (1, 2):
            (run_dir / f"chunk_{index:08d}.npz").unlink()
        events = []
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            resumed = engine.run_attempts(
                48, base_seed=5, run_id="partial", progress=events.append
            )
        assert _accounting(resumed) == _accounting(full)
        assert [event.from_checkpoint for event in events] == [True, False, False]

    def test_gap_in_checkpoints_regenerates_from_the_gap(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # Only the contiguous prefix of checkpoints may be adopted: presets
        # derived from post-gap chunks could stop an until-N pool before the
        # gap is filled.  With chunk 0 missing, everything is regenerated —
        # bit-identically, since chunks are pure functions of their index.
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            full = engine.run_attempts(48, base_seed=5, run_id="gap")
        (store.root / "runs" / "gap" / "chunk_00000000.npz").unlink()
        events = []
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            resumed = engine.run_attempts(
                48, base_seed=5, run_id="gap", progress=events.append
            )
        assert _accounting(resumed) == _accounting(full)
        assert all(not event.from_checkpoint for event in events)

    def test_mismatched_signature_rejected(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            engine.run_attempts(32, base_seed=5, run_id="sig")
            with pytest.raises(ValueError):
                engine.run_attempts(32, base_seed=6, run_id="sig")

    def test_changed_chunk_grid_rejects_resume(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # The chunk size is the grid of a run's checkpoint files; resuming a
        # run id under another grid would adopt chunk files as the wrong
        # attempt ranges, so the signature check must reject it.
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params,
            chunk_size=16, batch_size=8, run_store=store,
        ) as engine:
            engine.run_attempts(32, base_seed=5, run_id="layout")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, run_store=store,
            chunk_size=8, batch_size=8,
        ) as engine:
            with pytest.raises(ValueError, match="different job signature"):
                engine.run_attempts(32, base_seed=5, run_id="layout")

    def test_changed_batch_size_resumes_bit_identically(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # The batch size never changes an attempt, so it is not part of the
        # signature: a resume under another batch size finishes the same run.
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params,
            chunk_size=16, batch_size=8, run_store=store,
        ) as engine:
            full = engine.run_attempts(48, base_seed=5, run_id="batch")
        # A crash after the first chunk: the resume regenerates the other two.
        for index in (1, 2):
            (store.root / "runs" / "batch" / f"chunk_{index:08d}.npz").unlink()
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, run_store=store,
            chunk_size=16, batch_size=3,
        ) as engine:
            resumed = engine.run_attempts(48, base_seed=5, run_id="batch")
        assert_reports_identical(full, resumed)

    def test_checkpoint_of_the_previous_stream_is_rejected(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # A run id checkpointed before attempts were counter-addressed carries
        # a batch size and no stream version; its chunks hold other rows.
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            engine.run_attempts(32, base_seed=5, run_id="v1")
        meta = store.load_run_meta("v1")
        assert meta["stream"] == STREAM_VERSION
        legacy = {key: value for key, value in meta.items() if key != "stream"}
        store.save_run_meta("v1", {**legacy, "batch_size": 256})
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            with pytest.raises(ValueError, match="different job signature"):
                engine.run_attempts(32, base_seed=5, run_id="v1")

    def test_checkpoint_with_removed_approximate_key_rejected(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # Checkpoints written while the signature still carried the removed
        # approximate-test key ("approximate": null for exact runs) must be
        # refused rather than adopted under a signature they never had.
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            engine.run_attempts(32, base_seed=5, run_id="legacy")
        meta = store.load_run_meta("legacy")
        store.save_run_meta("legacy", {**meta, "approximate": None})
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            with pytest.raises(ValueError, match="different job signature"):
                engine.run_attempts(32, base_seed=5, run_id="legacy")

    def test_corrupted_chunk_fails_loudly_on_resume(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            engine.run_attempts(48, base_seed=5, run_id="corrupt")
        chunk_path = store.root / "runs" / "corrupt" / "chunk_00000001.npz"
        chunk_path.write_bytes(chunk_path.read_bytes()[: 40])
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            with pytest.raises(RunStoreCorruptionError, match="chunk_00000001"):
                engine.run_attempts(48, base_seed=5, run_id="corrupt")

    @pytest.mark.parametrize(
        "tamper",
        [
            pytest.param(
                lambda arrays: {**arrays, "passed": np.append(arrays["passed"], True)},
                id="overlong-column",
            ),
            pytest.param(
                lambda arrays: {k: v for k, v in arrays.items() if k != "passed"},
                id="missing-column",
            ),
            pytest.param(
                lambda arrays: {**arrays, "seed_indices": arrays["seed_indices"][:-1]},
                id="short-column",
            ),
        ],
    )
    def test_malformed_chunk_columns_fail_loudly_on_resume(
        self, unnoised_model, acs_splits, params, tmp_path, tamper
    ):
        # A well-formed archive whose columns disagree must not resume: an
        # overlong pass mask would silently change the released count.
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            engine.run_attempts(64, base_seed=5, run_id="malformed")
        store.save_chunk("malformed", 1, tamper(store.load_chunks("malformed")[1]))
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            with pytest.raises(RunStoreCorruptionError, match="chunk_00000001"):
                engine.run_attempts(64, base_seed=5, run_id="malformed")

    def test_partial_final_chunk_write_is_ignored(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        # Atomic writes leave a *.tmp file behind only if the process dies
        # mid-write; resume must skip it and regenerate the chunk instead of
        # treating the partial file as a checkpoint.
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            full = engine.run_attempts(48, base_seed=5, run_id="partial-write")
        run_dir = store.root / "runs" / "partial-write"
        final = run_dir / "chunk_00000002.npz"
        (run_dir / "chunk_00000002.npz.tmp").write_bytes(final.read_bytes()[: 40])
        final.unlink()
        assert store.completed_chunks("partial-write") == {0, 1}
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            resumed = engine.run_attempts(48, base_seed=5, run_id="partial-write")
        assert_reports_identical(full, resumed)

    def test_changed_privacy_knobs_reject_resume(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            engine.run_attempts(32, base_seed=5, run_id="knobs")
        relaxed = PlausibleDeniabilityParams(
            k=params.k, gamma=params.gamma, epsilon0=params.epsilon0,
            max_plausible=params.k,
        )
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, relaxed, chunk_size=16, run_store=store
        ) as engine:
            with pytest.raises(ValueError):
                engine.run_attempts(32, base_seed=5, run_id="knobs")

    def test_changed_seed_split_rejects_resume(
        self, unnoised_model, acs_splits, params, tmp_path
    ):
        from repro.datasets.dataset import Dataset

        store = RunStore(tmp_path / "store")
        with SynthesisEngine(
            unnoised_model, acs_splits.seeds, params, chunk_size=16, run_store=store
        ) as engine:
            engine.run_attempts(32, base_seed=5, run_id="data")
        truncated = Dataset(
            acs_splits.seeds.schema, acs_splits.seeds.data[:-1]
        )
        with SynthesisEngine(
            unnoised_model, truncated, params, chunk_size=16, run_store=store
        ) as engine:
            with pytest.raises(ValueError):
                engine.run_attempts(32, base_seed=5, run_id="data")
