"""Tests for the marginal-synthesis baseline."""

import numpy as np
import pytest

from repro.generative.marginal import MarginalSynthesizer
from repro.privacy.accountant import PrivacyAccountant
from repro.stats.contingency import marginal_distribution


class TestFit:
    def test_marginals_match_empirical_distribution(self, toy_dataset):
        model = MarginalSynthesizer.fit(toy_dataset, epsilon=None, alpha=1e-9)
        for index, attribute in enumerate(toy_dataset.schema):
            empirical = marginal_distribution(toy_dataset.column(index), attribute.cardinality)
            assert np.allclose(model.marginals[index], empirical, atol=1e-3)

    def test_dp_fit_perturbs_marginals(self, toy_dataset):
        exact = MarginalSynthesizer.fit(toy_dataset, epsilon=None, rng=np.random.default_rng(0))
        noisy = MarginalSynthesizer.fit(toy_dataset, epsilon=0.05, rng=np.random.default_rng(0))
        assert not np.allclose(exact.marginals[0], noisy.marginals[0])

    def test_dp_fit_records_budget(self, toy_dataset):
        accountant = PrivacyAccountant()
        MarginalSynthesizer.fit(
            toy_dataset, epsilon=0.5, accountant=accountant, rng=np.random.default_rng(0)
        )
        entry = accountant.entries[0]
        assert entry.label == "marginals/counts"
        assert entry.count == 4

    def test_empty_dataset_rejected(self, toy_schema):
        from repro.datasets.dataset import Dataset

        empty = Dataset(toy_schema, np.empty((0, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            MarginalSynthesizer.fit(empty)

    def test_invalid_epsilon_rejected(self, toy_dataset):
        with pytest.raises(ValueError):
            MarginalSynthesizer.fit(toy_dataset, epsilon=0.0)

    def test_constructor_validates_marginals(self, toy_schema):
        bad = [np.array([0.5, 0.5])] * 4
        with pytest.raises(ValueError):
            MarginalSynthesizer(toy_schema, bad)
        with pytest.raises(ValueError):
            MarginalSynthesizer(toy_schema, [np.full(c, 0.5) for c in toy_schema.cardinalities])


class TestGeneration:
    def test_generate_many_shape_and_domain(self, marginal_model, rng):
        records = marginal_model.generate_many(500, rng)
        assert records.shape == (500, len(marginal_model.schema))
        for col, attribute in enumerate(marginal_model.schema):
            assert records[:, col].max() < attribute.cardinality

    def test_generate_many_zero(self, marginal_model, rng):
        assert marginal_model.generate_many(0, rng).shape == (0, len(marginal_model.schema))

    def test_generate_many_negative_rejected(self, marginal_model, rng):
        with pytest.raises(ValueError):
            marginal_model.generate_many(-1, rng)

    def test_generated_marginals_converge_to_model_marginals(self, toy_dataset):
        model = MarginalSynthesizer.fit(toy_dataset, epsilon=None)
        records = model.generate_many(20_000, np.random.default_rng(0))
        empirical = marginal_distribution(records[:, 1], 3)
        assert np.allclose(empirical, model.marginals[1], atol=0.02)


class TestSeedProbabilities:
    def test_probability_is_product_of_marginals(self, marginal_model):
        candidate = np.zeros(len(marginal_model.schema), dtype=np.int64)
        expected = np.prod([m[0] for m in marginal_model.marginals])
        assert marginal_model.seed_probability(candidate, candidate) == pytest.approx(expected)

    def test_every_seed_is_equally_plausible(self, marginal_model, acs_dataset, rng):
        candidate = marginal_model.generate_many(1, rng)[0]
        probabilities = marginal_model.batch_seed_probabilities(acs_dataset.data[:200], candidate)
        assert np.allclose(probabilities, probabilities[0])

    def test_privacy_test_always_passes_for_marginal_model(self, marginal_model, acs_splits, rng):
        # Because the model ignores its seed, every record of the dataset is a
        # plausible seed and the deterministic test passes whenever |D| >= k
        # (Section 8 of the paper).
        from repro.privacy.plausible_deniability import (
            DeterministicPrivacyTest,
            PlausibleDeniabilityParams,
        )

        seeds = acs_splits.seeds
        candidate = marginal_model.generate_many(1, rng)[0]
        probabilities = marginal_model.batch_seed_probabilities(seeds.data, candidate)
        test = DeterministicPrivacyTest(PlausibleDeniabilityParams(k=len(seeds), gamma=2.0))
        assert test.run_batch(probabilities[:1], probabilities[None, :])["passed"][0]

    def test_most_likely_value_is_marginal_mode(self, marginal_model):
        for index, marginal in enumerate(marginal_model.marginals):
            assert marginal_model.most_likely_value(np.empty(0), index) == int(np.argmax(marginal))
