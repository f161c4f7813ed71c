"""Tests for the seed-based Bayesian-network synthesizer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stream import attempt_stream
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.parameters import ConditionalParameters


@pytest.fixture(scope="module")
def toy_model(toy_dataset):
    spec = GenerativeModelSpec(omega=2, epsilon_structure=None, epsilon_parameters=None)
    return fit_bayesian_network(toy_dataset, toy_dataset, spec=spec, rng=np.random.default_rng(0))


class TestConstruction:
    def test_omega_validation(self, toy_model):
        with pytest.raises(ValueError):
            BayesianNetworkSynthesizer(
                toy_model.schema, toy_model.structure, toy_model.tables, omega=99
            )
        with pytest.raises(ValueError):
            BayesianNetworkSynthesizer(
                toy_model.schema, toy_model.structure, toy_model.tables, omega=()
            )

    def test_omega_accepts_iterable(self, toy_model):
        model = BayesianNetworkSynthesizer(
            toy_model.schema, toy_model.structure, toy_model.tables, omega=(1, 2, 3)
        )
        assert model.omegas == (1, 2, 3)

    def test_table_count_must_match_schema(self, toy_model):
        with pytest.raises(ValueError):
            BayesianNetworkSynthesizer(
                toy_model.schema, toy_model.structure, toy_model.tables[:-1], omega=2
            )

    def test_tables_must_match_structure_parents(self, toy_model):
        reordered = list(toy_model.tables)
        reordered[0], reordered[1] = reordered[1], reordered[0]
        with pytest.raises(ValueError):
            BayesianNetworkSynthesizer(
                toy_model.schema, toy_model.structure, reordered, omega=2
            )


def _assert_refused(model, attribute, table, match):
    """A network whose ``attribute`` has ``table`` is refused, built or unpickled."""
    tables = list(model.tables)
    tables[attribute] = table
    with pytest.raises(ValueError, match=match):
        BayesianNetworkSynthesizer(model.schema, model.structure, tables, model.omegas)
    state = {**model.__getstate__(), "_tables": tuple(tables)}
    with pytest.raises(ValueError, match=match):
        BayesianNetworkSynthesizer.__new__(BayesianNetworkSynthesizer).__setstate__(state)


class TestTablesMatchTheSchema:
    """The batch kernels index tables by the schema's domains, so a table that
    disagrees with them would silently read another configuration's row."""

    def test_parent_radices_must_be_the_bucketized_cardinalities(self, unnoised_model):
        # WKHP (100 values) has two parents; declare its last parent one
        # bucket short and keep the rows the shorter radix asks for.
        attribute = unnoised_model.schema.index_of("WKHP")
        original = unnoised_model.tables[attribute]
        assert len(original.parents) == 2
        radices = (*original.parent_cardinalities[:-1], original.parent_cardinalities[-1] - 1)
        rows = int(np.prod(radices))
        table = ConditionalParameters(
            attribute_index=attribute,
            parents=original.parents,
            parent_cardinalities=radices,
            table=original.table[:rows],
            counts=original.counts[:rows],
            prior=original.prior,
        )
        _assert_refused(unnoised_model, attribute, table, "parent radices")

    def test_table_width_must_be_the_attribute_cardinality(self, unnoised_model):
        attribute = unnoised_model.schema.index_of("WKHP")
        original = unnoised_model.tables[attribute]
        narrow = original.table[:, :-1]
        table = ConditionalParameters(
            attribute_index=attribute,
            parents=original.parents,
            parent_cardinalities=original.parent_cardinalities,
            table=narrow / narrow.sum(axis=1, keepdims=True),
            counts=original.counts[:, :-1],
            prior=original.prior[:-1],
        )
        assert table.cardinality == unnoised_model.schema[attribute].cardinality - 1
        _assert_refused(unnoised_model, attribute, table, "has 99 values")


def _generate(model, seeds, omega=None, base_seed=0):
    """One candidate per seed row from the attempts of ``attempt_stream(base_seed)``.

    ``omega`` fixes every row's ω; by default each attempt draws its own.
    """
    seeds = np.atleast_2d(seeds)
    words = attempt_stream(base_seed).take(len(seeds), len(model.schema))
    omegas = None if omega is None else np.full(len(seeds), omega)
    return model.generate_batch(seeds, words, omegas=omegas)


class TestGeneration:
    def test_generated_record_is_in_domain(self, toy_model, toy_dataset):
        candidates = _generate(toy_model, toy_dataset.data[:50])
        assert candidates.shape == (50, len(toy_model.schema))
        for column, attribute in enumerate(toy_model.schema):
            assert 0 <= candidates[:, column].min()
            assert candidates[:, column].max() < attribute.cardinality

    def test_omega_zero_copies_the_seed(self, toy_model, toy_dataset):
        seeds = toy_dataset.data[:20]
        assert np.array_equal(_generate(toy_model, seeds, omega=0), seeds)

    def test_fixed_attributes_are_copied(self, toy_model, toy_dataset):
        seeds = np.tile(toy_dataset.record(3), (10, 1))
        omega = 2
        fixed = list(toy_model.structure.order[: len(toy_model.schema) - omega])
        candidates = _generate(toy_model, seeds, omega=omega)
        assert np.array_equal(candidates[:, fixed], seeds[:, fixed])

    def test_generate_does_not_mutate_seed(self, toy_model, toy_dataset):
        seeds = toy_dataset.data[:20].copy()
        _generate(toy_model, seeds)
        assert np.array_equal(seeds, toy_dataset.data[:20])

    def test_invalid_omega_rejected(self, toy_model, toy_dataset):
        with pytest.raises(ValueError):
            _generate(toy_model, toy_dataset.record(0), omega=9)

    def test_invalid_seed_shape_rejected(self, toy_model):
        with pytest.raises(ValueError):
            _generate(toy_model, np.array([0, 1]))

    def test_full_resample_ignores_the_seed_rows(self, toy_model, toy_dataset):
        # Ancestral sampling is ω = m on any in-domain seed rows: the rows
        # cannot change what the attempts' words draw.
        m = len(toy_model.schema)
        from_data = _generate(toy_model, toy_dataset.data[:30], omega=m)
        from_zeros = _generate(toy_model, np.zeros((30, m), dtype=np.int64), omega=m)
        assert np.array_equal(from_data, from_zeros)

    def test_generation_is_a_function_of_the_attempt_words(self, toy_model, toy_dataset):
        seeds = np.tile(toy_dataset.record(7), (40, 1))
        first = _generate(toy_model, seeds, base_seed=42)
        assert np.array_equal(first, _generate(toy_model, seeds, base_seed=42))
        assert not np.array_equal(first, _generate(toy_model, seeds, base_seed=43))


class TestSeedProbabilities:
    def test_seed_probability_zero_when_fixed_attributes_differ(self, toy_model, toy_dataset):
        omega = 1
        seed = toy_dataset.record(0)
        candidate = _generate(toy_model, seed, omega=omega)[0]
        fixed = list(toy_model.structure.order[:-1])
        other = candidate.copy()
        other[fixed[0]] = (other[fixed[0]] + 1) % toy_model.schema[fixed[0]].cardinality
        assert toy_model.seed_probability_with_omega(other, candidate, omega) == 0.0

    def test_seed_probability_positive_for_true_seed(self, toy_model, toy_dataset):
        seed = toy_dataset.record(1)
        candidate = _generate(toy_model, seed, omega=2)[0]
        assert toy_model.seed_probability_with_omega(seed, candidate, 2) > 0.0

    def test_matching_seeds_share_the_same_probability(self, toy_model, toy_dataset):
        # All plausible seeds of a candidate have identical generation
        # probability under the seed-based synthesizer (the key efficiency
        # property the paper exploits).
        omega = 2
        seed = toy_dataset.record(2)
        candidate = _generate(toy_model, seed, omega=omega)[0]
        probabilities = toy_model.batch_seed_probabilities_with_omega(
            toy_dataset.data, candidate, omega
        )
        positive = probabilities[probabilities > 0]
        assert positive.size >= 1
        assert np.allclose(positive, positive[0])

    def test_batch_matches_scalar(self, toy_model, toy_dataset):
        candidate = _generate(toy_model, toy_dataset.record(0))[0]
        batch = toy_model.batch_seed_probabilities(toy_dataset.data[:50], candidate)
        scalar = [
            toy_model.seed_probability(toy_dataset.record(row), candidate) for row in range(50)
        ]
        assert np.allclose(batch, scalar)

    def test_omega_equal_to_m_makes_every_record_a_plausible_seed(self, toy_model, toy_dataset):
        full_resample = BayesianNetworkSynthesizer(
            toy_model.schema, toy_model.structure, toy_model.tables, omega=len(toy_model.schema)
        )
        candidate = _generate(full_resample, toy_dataset.record(0))[0]
        probabilities = full_resample.batch_seed_probabilities(toy_dataset.data[:100], candidate)
        assert np.all(probabilities > 0)
        assert np.allclose(probabilities, probabilities[0])

    def test_omega_mixture_probability_is_average(self, toy_model, toy_dataset):
        mixture = BayesianNetworkSynthesizer(
            toy_model.schema, toy_model.structure, toy_model.tables, omega=(1, 3)
        )
        seed = toy_dataset.record(0)
        candidate = _generate(mixture, seed)[0]
        expected = 0.5 * (
            mixture.seed_probability_with_omega(seed, candidate, 1)
            + mixture.seed_probability_with_omega(seed, candidate, 3)
        )
        assert mixture.seed_probability(seed, candidate) == pytest.approx(expected)

    def test_candidate_factor_is_product_of_resampled_conditionals(self, toy_model, toy_dataset):
        seed = toy_dataset.record(0)
        candidate = _generate(toy_model, seed, omega=2)[0]
        factor = toy_model.candidate_factor(candidate, 2)
        assert 0.0 < factor <= 1.0
        assert toy_model.seed_probability_with_omega(seed, candidate, 2) == pytest.approx(factor)

    @pytest.mark.parametrize("omega", [-1, 5])
    def test_scalar_oracle_rejects_omega_outside_zero_to_m(self, toy_model, toy_dataset, omega):
        # Slicing σ at m − ω would wrap around instead of failing; the batch
        # kernels reject the same values.
        seed = toy_dataset.record(0)
        with pytest.raises(ValueError, match="omega"):
            toy_model.candidate_factor(seed, omega)
        with pytest.raises(ValueError, match="omega"):
            toy_model.seed_probability_with_omega(seed, seed, omega)
        with pytest.raises(ValueError, match="omega"):
            toy_model.batch_seed_probabilities_with_omega(toy_dataset.data[:5], seed, omega)

    @given(omega=st.integers(min_value=0, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_probabilities_always_in_unit_interval(self, toy_model, toy_dataset, omega):
        rng = np.random.default_rng(omega)
        seed = toy_dataset.record(int(rng.integers(len(toy_dataset))))
        candidate = _generate(toy_model, seed, omega=omega, base_seed=omega)[0]
        probabilities = toy_model.batch_seed_probabilities_with_omega(
            toy_dataset.data[:100], candidate, omega
        )
        assert np.all(probabilities >= 0.0)
        assert np.all(probabilities <= 1.0 + 1e-12)


class TestPrediction:
    def test_most_likely_value_in_domain(self, toy_model, toy_dataset):
        for attribute in range(len(toy_model.schema)):
            value = toy_model.most_likely_value(toy_dataset.record(0), attribute)
            assert 0 <= value < toy_model.schema[attribute].cardinality

    def test_prediction_uses_the_evidence(self, toy_model, toy_schema):
        # size (attribute 2) strongly depends on age (attribute 0) in the toy
        # data: young -> small (0), old -> large (1).
        young_record = np.array([2, 0, 0, 0])
        old_record = np.array([18, 0, 0, 0])
        assert toy_model.most_likely_value(young_record, 2) == 0
        assert toy_model.most_likely_value(old_record, 2) == 1

    def test_conditional_scores_shape(self, toy_model, toy_dataset):
        scores = toy_model.conditional_scores(toy_dataset.record(0), 0)
        assert scores.shape == (toy_model.schema[0].cardinality,)
        assert np.all(scores >= 0)

    def test_acs_model_predicts_better_than_chance(self, unnoised_model, acs_splits):
        test = acs_splits.test
        schema = unnoised_model.schema
        income_index = schema.index_of("WAGP")
        correct = 0
        total = 150
        for row in range(total):
            record = test.record(row)
            if unnoised_model.most_likely_value(record, income_index) == record[income_index]:
                correct += 1
        majority_rate = max(
            np.mean(test.data[:total, income_index] == 0),
            np.mean(test.data[:total, income_index] == 1),
        )
        assert correct / total >= majority_rate - 0.05
