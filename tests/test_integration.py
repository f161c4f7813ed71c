"""End-to-end integration tests exercising the public API exactly as a user would."""

import numpy as np
import pytest

import repro
from repro.core import GenerationConfig, SynthesisPipeline
from repro.core.stream import attempt_stream
from repro.datasets import load_acs
from repro.generative import GenerativeModelSpec
from repro.privacy import PlausibleDeniabilityParams


class TestPublicApi:
    def test_top_level_exports(self):
        assert repro.__version__
        for name in (
            "Dataset",
            "Schema",
            "load_acs",
            "SynthesisPipeline",
            "GenerationConfig",
            "PlausibleDeniabilityParams",
            "theorem1_guarantee",
        ):
            assert hasattr(repro, name)


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def pipeline(self):
        data = load_acs(num_records=6000, seed=21)
        config = GenerationConfig(
            privacy=PlausibleDeniabilityParams(k=15, gamma=4.0, epsilon0=1.0),
            model=GenerativeModelSpec.with_total_epsilon(1.0, num_attributes=11, omega=9),
        )
        return SynthesisPipeline(data, config, rng=np.random.default_rng(1)).fit()

    def test_released_records_share_the_input_format(self, pipeline):
        report = pipeline.generate(num_records=30)
        released = report.released_dataset()
        assert released.schema == pipeline.splits.seeds.schema
        decoded = released.decoded_records()
        assert len(decoded) == len(released)
        # Decoded values come from the original domains (e.g. income classes).
        income_values = {record[-1] for record in decoded}
        assert income_values <= {"<=50K", ">50K"}

    def test_released_records_are_not_verbatim_copies_only(self, pipeline):
        report = pipeline.generate(num_records=50)
        released = report.released_dataset()
        seeds = {tuple(row) for row in pipeline.splits.seeds.data}
        novel = sum(1 for row in released.data if tuple(row) not in seeds)
        # With omega=9, nine attributes are re-sampled, so the released data
        # cannot be dominated by exact copies of input records.
        assert novel >= len(released) * 0.5

    def test_privacy_accounting_is_consistent(self, pipeline):
        model_epsilon, model_delta = pipeline.model_privacy_guarantee()
        release_epsilon, release_delta, _ = pipeline.release_privacy_guarantee()
        assert model_epsilon <= 1.0 + 1e-6
        assert 0 < release_delta < 1
        assert release_epsilon > 0

    def test_csv_round_trip_of_released_data(self, pipeline, tmp_path):
        from repro.datasets import Dataset

        report = pipeline.generate(num_records=10)
        released = report.released_dataset()
        path = tmp_path / "synthetic.csv"
        released.to_csv(path)
        reloaded = Dataset.from_csv(released.schema, path)
        assert reloaded == released

    def test_marginal_baseline_generation(self, pipeline):
        marginals = pipeline.generate_marginals(200)
        assert len(marginals) == 200
        assert marginals.schema == pipeline.splits.seeds.schema


class TestUtilityTrends:
    """Coarse utility checks on a mid-sized unnoised run (fast but meaningful)."""

    @pytest.fixture(scope="class")
    def setup(self):
        from repro.datasets.splits import split_dataset
        from repro.generative import fit_bayesian_network, fit_marginal_model

        data = load_acs(num_records=30_000, seed=23)
        splits = split_dataset(data, rng=np.random.default_rng(0))
        model = fit_bayesian_network(
            splits.structure,
            splits.parameters,
            spec=GenerativeModelSpec(omega=11, epsilon_structure=None, epsilon_parameters=None),
            rng=np.random.default_rng(1),
        )
        marginal = fit_marginal_model(splits.parameters, epsilon=None)
        # Ancestral sampling: every attribute re-sampled, whatever the seed rows.
        m = len(data.schema)
        synthetic = model.generate_batch(
            np.zeros((2500, m), dtype=np.int64),
            attempt_stream(2).take(2500, m),
            omegas=np.full(2500, m),
        )
        rng = np.random.default_rng(2)
        marginals_data = marginal.generate_many(2500, rng)
        reference = splits.seeds.sample(2500, rng).data
        return data.schema, reference, synthetic, marginals_data

    def test_synthetics_preserve_pairwise_structure_better_than_marginals(self, setup):
        from repro.stats.distance import pairwise_attribute_distances

        schema, reference, synthetic, marginals_data = setup
        synth_distances = pairwise_attribute_distances(reference, synthetic, schema.cardinalities)
        marg_distances = pairwise_attribute_distances(
            reference, marginals_data, schema.cardinalities
        )
        assert np.mean(list(synth_distances.values())) < np.mean(list(marg_distances.values()))

    def test_synthetics_match_single_attribute_marginals_reasonably(self, setup):
        from repro.stats.distance import single_attribute_distances

        schema, reference, synthetic, _ = setup
        distances = single_attribute_distances(reference, synthetic, schema.cardinalities)
        assert np.mean(distances) < 0.12
