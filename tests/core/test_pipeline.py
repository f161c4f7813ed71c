"""Tests for the end-to-end synthesis pipeline."""

import copy

import numpy as np
import pytest

from repro.core.config import GenerationConfig
from repro.core.engine import SynthesisEngine
from repro.core.pipeline import SynthesisPipeline
from repro.generative.builder import GenerativeModelSpec
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.testing.invariants import assert_reports_identical


@pytest.fixture(scope="module")
def fitted_pipeline(acs_dataset):
    config = GenerationConfig(
        privacy=PlausibleDeniabilityParams(k=20, gamma=4.0, epsilon0=1.0),
        model=GenerativeModelSpec.with_total_epsilon(1.0, num_attributes=11, omega=9),
    )
    return SynthesisPipeline(acs_dataset, config, rng=np.random.default_rng(0)).fit()


class TestLifecycle:
    def test_explicit_rng_required(self, acs_dataset):
        # Same policy as the learners and the builder: no silent
        # default_rng(0) fallback.
        with pytest.raises(ValueError, match="rng"):
            SynthesisPipeline(acs_dataset)
        with pytest.raises(ValueError, match="rng"):
            SynthesisPipeline(acs_dataset, GenerationConfig(), rng=None)

    def test_accessors_require_fit(self, acs_dataset):
        pipeline = SynthesisPipeline(acs_dataset, rng=np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            _ = pipeline.model
        with pytest.raises(RuntimeError):
            _ = pipeline.splits
        with pytest.raises(RuntimeError):
            _ = pipeline.mechanism
        with pytest.raises(RuntimeError):
            _ = pipeline.marginal_model

    def test_fit_populates_components(self, fitted_pipeline):
        assert len(fitted_pipeline.model.tables) == 11
        assert len(fitted_pipeline.marginal_model.marginals) == 11
        assert fitted_pipeline.splits.total_records > 0
        assert fitted_pipeline.timings.model_learning_seconds > 0

    def test_generate_releases_requested_records(self, fitted_pipeline):
        report = fitted_pipeline.generate(20)
        assert report.num_released == 20
        released = report.released_dataset()
        assert released.schema == fitted_pipeline.splits.seeds.schema
        assert fitted_pipeline.timings.synthesis_seconds > 0

    def test_generate_marginals(self, fitted_pipeline):
        dataset = fitted_pipeline.generate_marginals(100)
        assert len(dataset) == 100

    def test_generate_without_fit_triggers_fit(self, acs_dataset):
        pipeline = SynthesisPipeline(
            acs_dataset,
            GenerationConfig(
                privacy=PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0),
                model=GenerativeModelSpec(omega=9, epsilon_structure=None, epsilon_parameters=None),
            ),
            rng=np.random.default_rng(1),
        )
        report = pipeline.generate(5)
        assert report.num_released == 5


class TestPrivacyReporting:
    def test_model_guarantee_respects_configured_budget(self, fitted_pipeline):
        epsilon, delta = fitted_pipeline.model_privacy_guarantee()
        assert epsilon <= 1.0 + 1e-6
        assert delta <= 1e-8

    def test_release_guarantee_matches_theorem1(self, fitted_pipeline):
        epsilon, delta, t = fitted_pipeline.release_privacy_guarantee()
        params = fitted_pipeline.config.privacy
        from repro.privacy.plausible_deniability import theorem1_delta, theorem1_epsilon

        assert epsilon == pytest.approx(theorem1_epsilon(params.epsilon0, params.gamma, t))
        assert delta == pytest.approx(theorem1_delta(params.epsilon0, params.k, t))

    def test_release_guarantee_requires_randomized_test(self, acs_dataset):
        config = GenerationConfig(
            privacy=PlausibleDeniabilityParams(k=10, gamma=4.0),
            model=GenerativeModelSpec(omega=9, epsilon_structure=None, epsilon_parameters=None),
        )
        pipeline = SynthesisPipeline(acs_dataset, config, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            pipeline.release_privacy_guarantee()

    def test_baseline_budget_tracked_separately(self, fitted_pipeline):
        # The marginals baseline must not inflate the main model's ledger.
        labels = fitted_pipeline.accountant.labels()
        assert "marginals/counts" not in labels


class TestEnginePath:
    def test_generate_equals_a_two_worker_engine_run(self, acs_dataset):
        # The pipeline's release is the engine's until-N release on the next
        # base seed of the pipeline RNG, whatever the worker count.
        config = GenerationConfig(
            privacy=PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0),
            model=GenerativeModelSpec(omega=9, epsilon_structure=None, epsilon_parameters=None),
            chunk_size=64,
            batch_size=16,
        )
        rng = np.random.default_rng(2)
        pipeline = SynthesisPipeline(acs_dataset, config, rng=rng).fit()
        base_seed = int(copy.deepcopy(rng).integers(2**63))
        report = pipeline.generate(12)
        with SynthesisEngine(
            pipeline.model,
            pipeline.splits.seeds,
            config.privacy,
            num_workers=2,
            chunk_size=64,
            batch_size=16,
        ) as pool:
            pooled = pool.generate(
                12,
                base_seed=base_seed,
                max_attempts=config.max_attempts_per_release * 12,
            )
        assert report.num_released == 12
        assert_reports_identical(pooled, report)

    def test_generate_runs_the_engine_with_the_config_knobs(self, acs_dataset, monkeypatch):
        config = GenerationConfig(
            privacy=PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0),
            model=GenerativeModelSpec(omega=9, epsilon_structure=None, epsilon_parameters=None),
            chunk_size=64,
            batch_size=32,
        )
        pipeline = SynthesisPipeline(acs_dataset, config, rng=np.random.default_rng(2))
        calls = []
        from repro.core import pipeline as pipeline_module

        original = pipeline_module.SynthesisEngine

        def _tracking(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "SynthesisEngine", _tracking)
        report = pipeline.generate(5)
        assert report.num_released == 5
        assert len(calls) == 1
        assert calls[0]["num_workers"] == 1
        assert calls[0]["chunk_size"] == 64
        assert calls[0]["batch_size"] == 32


class TestRunStoreCaching:
    def test_fit_cached_across_pipelines(self, acs_dataset, tmp_path):
        from repro.core.run_store import RunStore

        store = RunStore(tmp_path / "store")
        config = GenerationConfig(
            privacy=PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0),
            model=GenerativeModelSpec.with_total_epsilon(1.0, num_attributes=11, omega=9),
        )
        first = SynthesisPipeline(
            acs_dataset, config, rng=np.random.default_rng(5), run_store=store
        ).fit()
        report_first = first.generate(5)

        # Same dataset/config/seed: the second pipeline loads the artifact
        # (no refit) and, because the RNG is restored to its post-fit state,
        # generates bit-identical synthetics.
        import repro.core.pipeline as pipeline_module

        def _boom(*args, **kwargs):
            raise AssertionError("cached fit must not refit the model")

        original = pipeline_module.fit_bayesian_network
        pipeline_module.fit_bayesian_network = _boom
        try:
            second = SynthesisPipeline(
                acs_dataset, config, rng=np.random.default_rng(5), run_store=store
            ).fit()
        finally:
            pipeline_module.fit_bayesian_network = original
        report_second = second.generate(5)
        assert np.array_equal(
            report_first.all_candidates_dataset().data,
            report_second.all_candidates_dataset().data,
        )
        assert first.model_privacy_guarantee() == second.model_privacy_guarantee()

    def test_generation_knobs_do_not_invalidate_the_fit_key(self, acs_dataset):
        def key_for(**overrides):
            config = GenerationConfig(
                privacy=PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0),
                model=GenerativeModelSpec(
                    omega=9, epsilon_structure=None, epsilon_parameters=None
                ),
                **overrides,
            )
            return SynthesisPipeline(
                acs_dataset, config, rng=np.random.default_rng(5)
            ).fit_artifact_key()

        base = key_for()
        assert key_for(num_workers=2, batch_size=64, chunk_size=128) == base
        assert key_for(seed_fraction=0.5, structure_fraction=0.2) != base

    def test_different_seed_is_a_different_artifact(self, acs_dataset, tmp_path):
        from repro.core.run_store import RunStore

        store = RunStore(tmp_path / "store")
        config = GenerationConfig(
            privacy=PlausibleDeniabilityParams(k=10, gamma=4.0, epsilon0=1.0),
            model=GenerativeModelSpec(omega=9, epsilon_structure=None, epsilon_parameters=None),
        )
        SynthesisPipeline(
            acs_dataset, config, rng=np.random.default_rng(5), run_store=store
        ).fit()
        artifacts = list((store.root / "artifacts").iterdir())
        SynthesisPipeline(
            acs_dataset, config, rng=np.random.default_rng(6), run_store=store
        ).fit()
        assert len(list((store.root / "artifacts").iterdir())) == len(artifacts) + 1
