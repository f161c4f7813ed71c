"""Tests for the conformance scenario registry."""

import numpy as np
import pytest

from repro.testing.scenarios import (
    Scenario,
    correlated_toy_matrix,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
    toy_schema,
)


class TestRegistry:
    def test_at_least_six_scenarios_registered(self):
        assert len(scenario_names()) >= 6

    def test_lookup_by_name(self):
        for name in scenario_names():
            assert get_scenario(name).name == name

    def test_unknown_name_rejected_with_candidates(self):
        with pytest.raises(KeyError, match="tiny-n"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        existing = get_scenario("tiny-n")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(existing)

    def test_tag_filtering(self):
        dp_names = scenario_names(tags={"dp"})
        assert dp_names
        assert all("dp" in get_scenario(name).tags for name in dp_names)
        assert scenario_names(tags={"no-such-tag"}) == []

    def test_smoke_subset_is_nonempty_and_proper(self):
        smoke = scenario_names(tags={"smoke"})
        assert smoke
        assert len(smoke) < len(scenario_names())

    def test_family_diversity(self):
        """The registry spans the schema families the roadmap asks for."""
        attribute_counts = {len(s.schema()) for s in iter_scenarios()}
        assert min(attribute_counts) <= 2  # narrow
        assert max(attribute_counts) >= 8  # wide
        max_cardinality = max(
            max(s.schema().cardinalities) for s in iter_scenarios()
        )
        assert max_cardinality >= 40  # high-cardinality
        assert any(s.num_records <= 100 for s in iter_scenarios())  # tiny-n
        assert any(s.epsilon0 is None for s in iter_scenarios())
        assert any(s.epsilon0 is not None for s in iter_scenarios())
        assert any(s.max_check_plausible is not None for s in iter_scenarios())


class TestScenarioDatasets:
    @pytest.mark.parametrize("name", scenario_names())
    def test_dataset_is_pure_function_of_seed(self, name):
        scenario = get_scenario(name)
        first = scenario.dataset(seed=3)
        second = scenario.dataset(seed=3)
        other = scenario.dataset(seed=4)
        assert np.array_equal(first.data, second.data)
        assert not np.array_equal(first.data, other.data)

    @pytest.mark.parametrize("name", scenario_names())
    def test_dataset_matches_declared_shape(self, name):
        scenario = get_scenario(name)
        dataset = scenario.dataset(seed=0)
        assert len(dataset) == scenario.num_records
        assert dataset.num_attributes == len(scenario.schema())

    def test_datasets_differ_across_scenarios_for_one_seed(self):
        fingerprints = set()
        for scenario in iter_scenarios():
            fingerprints.add(scenario.dataset(seed=0).data.tobytes())
        assert len(fingerprints) == len(scenario_names())

    @pytest.mark.parametrize("name", scenario_names())
    def test_seed_split_supports_k(self, name):
        scenario = get_scenario(name)
        fit = scenario.fit(seed=0)
        assert len(fit.seeds) >= scenario.k


class TestScenarioFit:
    def test_fit_exposes_pipeline_state(self):
        fit = get_scenario("tiny-n").fit(seed=0)
        assert fit.model is fit.pipeline.model
        assert fit.params.k == get_scenario("tiny-n").k
        assert fit.splits.total_records == get_scenario("tiny-n").num_records

    def test_dp_scenarios_record_spend_and_non_dp_do_not(self):
        dp_fit = get_scenario("toy-correlated").fit(seed=0)
        assert dp_fit.accountant.entries
        free_fit = get_scenario("tiny-n").fit(seed=0)
        assert free_fit.accountant.entries == []

    def test_engine_knob_reaches_the_learner(self):
        scenario = get_scenario("narrow-uniform")
        assert scenario.config("reference").model.structure.engine == "reference"
        assert scenario.config("vectorized").model.structure.engine == "vectorized"

    def test_experiment_context_uses_scenario_dataset(self):
        scenario = get_scenario("tiny-n")
        context = scenario.experiment_context(seed=0)
        assert np.array_equal(context.dataset.data, scenario.dataset(0).data)
        assert context.k == scenario.k
        # A deterministic-test scenario stays deterministic in the bridge.
        assert scenario.epsilon0 is None
        assert context.epsilon0 is None
        assert not context.privacy_params().is_randomized
        # The injected dataset's fingerprint keys the context's artifacts.
        from repro.core.run_store import dataset_fingerprint

        payload = context._artifact_payload()
        assert payload["dataset"] == dataset_fingerprint(scenario.dataset(0))


class TestHoistedBuilders:
    def test_toy_schema_shape(self):
        schema = toy_schema()
        assert schema.names == ["age", "color", "size", "label"]
        assert schema.cardinalities == [20, 3, 2, 2]

    def test_correlated_toy_matrix_is_deterministic_per_rng_seed(self):
        first = correlated_toy_matrix(100, np.random.default_rng(0))
        second = correlated_toy_matrix(100, np.random.default_rng(0))
        assert np.array_equal(first, second)

    def test_correlated_toy_matrix_has_the_planted_correlation(self):
        matrix = correlated_toy_matrix(2000, np.random.default_rng(0))
        agreement = np.mean((matrix[:, 0] >= 10) == matrix[:, 2].astype(bool))
        assert agreement > 0.7


class TestAtScale:
    def test_native_scale_is_identity(self):
        scenario = get_scenario("toy-correlated")
        assert scenario.at_scale(scenario.num_records) is scenario

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ValueError, match="positive"):
            get_scenario("toy-correlated").at_scale(0)

    def test_k_capped_by_bucket_population(self):
        scenario = get_scenario("toy-correlated")
        scaled = scenario.at_scale(2000)
        assert scaled.num_records == 2000
        # seeds = 1100, max cardinality 20: cap = 1100 // 40 = 27, well below
        # the linear rescaling 80 * 2000 / 600 = 267.
        assert scaled.k == 27
        assert scaled.k < round(scenario.k * 2000 / scenario.num_records)

    def test_k_never_below_floor(self):
        scaled = get_scenario("toy-correlated").at_scale(20)
        assert scaled.k == 2

    def test_privacy_test_releases_at_2000_records(self):
        """Regression: the native k = 80 rejected every candidate at n = 2000
        (the learned chain turns near-deterministic and every plausible-seed
        count lands near seeds / 20 = 55); the retuned k must keep the
        service benchmark releasing rows."""
        from repro.core.pipeline import SynthesisPipeline
        from repro.core.stream import attempt_stream
        from repro.datasets.dataset import Dataset

        scenario = get_scenario("toy-correlated").at_scale(2000)
        dataset = Dataset(
            toy_schema(), correlated_toy_matrix(2000, np.random.default_rng(11))
        )
        pipeline = SynthesisPipeline(
            dataset, config=scenario.config(), rng=np.random.default_rng(2)
        )
        pipeline.fit()
        report = pipeline.mechanism.run_attempts(64, attempt_stream(5), batch_size=16)
        assert report["passed"].sum() > 0


class TestScenarioValidation:
    def test_custom_scenario_round_trip_without_registration(self):
        scenario = Scenario(
            name="ad-hoc",
            description="unregistered scratch scenario",
            num_records=80,
            schema_builder=toy_schema,
            matrix_builder=correlated_toy_matrix,
            k=4,
            epsilon0=None,
            omega=2,
            total_epsilon=None,
        )
        fit = scenario.fit(seed=0)
        report = fit.pipeline.generate(num_records=2, max_attempts=64)
        assert report.num_attempts <= 64
