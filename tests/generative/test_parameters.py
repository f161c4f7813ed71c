"""Tests for Dirichlet-multinomial parameter learning."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generative.parameters import (
    SEARCH_MIN_ROWS,
    ConditionalParameters,
    ParameterLearner,
    sample_dirichlet_rows,
)
from repro.generative.structure import DependencyStructure
from repro.privacy.accountant import PrivacyAccountant


@st.composite
def _zero_run_tables(draw):
    """A table whose rows have zero-probability runs, with uniforms to invert.

    Each row has a leading and a trailing run of zeros (possibly empty) and
    zeros scattered between positive weights.  The uniforms are 0, the
    largest double below 1, uniforms u with ``u * total`` equal to a CDF
    entry of their row, and arbitrary draws, each with its row index.
    """
    k = draw(st.integers(1, 24))
    num_rows = draw(st.integers(1, 3))
    table = np.zeros((num_rows, k))
    for row in table:
        lead = draw(st.integers(0, k - 1))
        trail = draw(st.integers(0, k - 1 - lead))
        weights = draw(
            st.lists(
                st.one_of(st.just(0.0), st.integers(1, 9).map(float), st.floats(1e-9, 1.0)),
                min_size=k - lead - trail,
                max_size=k - lead - trail,
            )
        )
        weights[draw(st.integers(0, len(weights) - 1))] = draw(st.floats(1e-3, 1.0))
        row[lead : k - trail] = weights
        row /= row.sum()
    uniforms, configs = [], []
    for config, row in enumerate(table):
        cdf = np.cumsum(row)
        candidates = [0.0, 1.0 - 2.0**-53]
        for entry in cdf:
            guess = entry / cdf[-1]
            for u in (np.nextafter(guess, 0.0), guess, np.nextafter(guess, 1.0)):
                if u < 1.0 and u * cdf[-1] == entry:
                    candidates.append(float(u))
        candidates += draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=8))
        uniforms += candidates
        configs += [config] * len(candidates)
    return table, np.array(uniforms), np.array(configs, dtype=np.int64)


@pytest.fixture()
def toy_structure():
    # size (2) depends on age (0); label (3) depends on size (2) and color (1).
    return DependencyStructure.from_parent_map({2: (0,), 3: (2, 1)}, 4)


@pytest.fixture()
def learned_tables(toy_dataset, toy_structure):
    return ParameterLearner().learn(toy_dataset, toy_structure, np.random.default_rng(0))


class TestConditionalParameters:
    def test_root_attribute_has_single_configuration(self, learned_tables):
        age_table = learned_tables[0]
        assert age_table.parents == ()
        assert age_table.num_configurations == 1
        assert age_table.cardinality == 20

    def test_child_configuration_count(self, learned_tables):
        label_table = learned_tables[3]
        assert label_table.parents == (2, 1)
        assert label_table.num_configurations == 2 * 3

    def test_rows_are_distributions(self, learned_tables):
        for table in learned_tables:
            assert np.allclose(table.table.sum(axis=1), 1.0)
            assert np.all(table.table >= 0)

    def test_configuration_index_round_trip(self, learned_tables):
        label_table = learned_tables[3]
        seen = set()
        for size in range(2):
            for color in range(3):
                seen.add(label_table.configuration_index(np.array([size, color])))
        assert seen == set(range(6))

    def test_configuration_index_validation(self, learned_tables):
        label_table = learned_tables[3]
        with pytest.raises(ValueError):
            label_table.configuration_index(np.array([0]))
        with pytest.raises(ValueError):
            label_table.configuration_index(np.array([5, 0]))

    def test_configuration_indices_vectorized(self, learned_tables):
        label_table = learned_tables[3]
        matrix = np.array([[0, 0], [1, 2], [0, 1]])
        # Mixed radix over (size: 2 buckets, color: 3 values).
        expected = [size * 3 + color for size, color in matrix]
        assert label_table.configuration_indices(matrix).tolist() == expected
        assert [label_table.configuration_index(row) for row in matrix] == expected

    def test_distribution_requires_parents_for_child(self, learned_tables):
        with pytest.raises(ValueError):
            learned_tables[3].distribution(None)

    def test_probability_lookup(self, learned_tables):
        label_table = learned_tables[3]
        distribution = label_table.distribution(np.array([1, 0]))
        assert label_table.probability(1, np.array([1, 0])) == pytest.approx(distribution[1])
        with pytest.raises(ValueError):
            label_table.probability(9, np.array([1, 0]))

    def test_sample_stays_in_domain(self, learned_tables, rng):
        label_table = learned_tables[3]
        samples = [label_table.sample(rng, np.array([1, 2])) for _ in range(100)]
        assert set(samples) <= {0, 1}

    def test_sample_batch_matches_sample_distribution(self, learned_tables, rng):
        label_table = learned_tables[3]
        configs = np.full(4000, label_table.configuration_index(np.array([1, 2])))
        batch = label_table.sample_batch(rng, configs)
        scalar = np.array(
            [label_table.sample(rng, np.array([1, 2])) for _ in range(4000)]
        )
        assert set(batch.tolist()) <= {0, 1}
        assert abs(batch.mean() - scalar.mean()) < 0.05

    @pytest.mark.parametrize("batch", [SEARCH_MIN_ROWS - 1, 20000])
    def test_sample_batch_never_emits_zero_probability_values(self, rng, batch):
        # Regression: a cumulative total that rounds below 1.0 must not let a
        # uniform draw land past the last positive-probability value (the
        # generated record would later fail the privacy test's positive-
        # seed-probability invariant).  20,000 rows, in batches below and
        # above the kernel's switch to the binary search.
        table = ConditionalParameters(
            attribute_index=0,
            parents=(),
            parent_cardinalities=(),
            table=np.array([[1.0 - 3e-7, 3e-7 - 1e-9, 0.0, 0.0]]),
            counts=np.zeros((1, 4)),
        )
        samples = np.concatenate(
            [
                table.sample_batch(rng, np.zeros(batch, dtype=np.int64))
                for _ in range(-(-20000 // batch))
            ]
        )
        assert set(samples.tolist()) <= {0, 1}

    @pytest.mark.parametrize("batch", [5, SEARCH_MIN_ROWS])
    def test_sample_batch_zero_draw_skips_leading_zero_probability(self, batch):
        # Regression: a uniform draw of exactly 0.0 must not select a leading
        # zero-probability value (strict `<` counting used to pick index 0).
        table = ConditionalParameters(
            attribute_index=0,
            parents=(),
            parent_cardinalities=(),
            table=np.array([[0.0, 0.0, 0.4, 0.6]]),
            counts=np.zeros((1, 4)),
        )

        class ZeroRng:
            def random(self, size):
                return np.zeros(size)

        samples = table.sample_batch(ZeroRng(), np.zeros(batch, dtype=np.int64))
        assert samples.tolist() == [2] * batch

    @pytest.mark.parametrize("batch", [SEARCH_MIN_ROWS - 1, 2 * SEARCH_MIN_ROWS])
    @given(case=_zero_run_tables())
    @settings(max_examples=60, deadline=None)
    def test_sample_batch_equals_row_by_row_count(self, batch, case):
        # Both strategies (broadcast below SEARCH_MIN_ROWS rows, binary
        # search from it up) must return min(count(cdf <= u * total), k - 1)
        # for every row, on the uniforms where they could differ: 0, the
        # largest uniform below 1, and uniforms that scale exactly onto a CDF
        # entry, with zero-probability runs at the start, middle and end.
        table, uniforms, configs = case
        k = table.shape[1]
        params = ConditionalParameters(
            attribute_index=0,
            parents=(1,),
            parent_cardinalities=(table.shape[0],),
            table=table,
            counts=np.zeros_like(table),
        )
        repeats = -(-batch // len(uniforms))
        uniforms = np.tile(uniforms, repeats)[:batch]
        configs = np.tile(configs, repeats)[:batch]
        expected = []
        for u, c in zip(uniforms, configs):
            cdf = np.cumsum(table[c])
            expected.append(min(int(np.count_nonzero(cdf <= u * cdf[-1])), k - 1))
        values = params._sample_batch(uniforms, configs)
        assert values.dtype == np.int64
        assert values.tolist() == expected
        assert np.all(table[configs, values] > 0)

    def test_probabilities_batch_matches_scalar(self, learned_tables):
        label_table = learned_tables[3]
        configs = np.array([0, 3, 5, 1])
        values = np.array([0, 1, 0, 1])
        batched = label_table.probabilities_batch(values, configs)
        for index in range(4):
            row = label_table.table[configs[index]]
            assert batched[index] == pytest.approx(row[values[index]])

    def test_probabilities_batch_validation(self, learned_tables):
        label_table = learned_tables[3]
        with pytest.raises(ValueError):
            label_table.probabilities_batch(np.array([0, 1]), np.array([0]))
        with pytest.raises(ValueError):
            label_table.probabilities_batch(np.array([9]), np.array([0]))
        with pytest.raises(ValueError):
            label_table.sample_batch(np.random.default_rng(0), np.array([99]))

    def test_resample_table_produces_valid_distributions(self, learned_tables, rng):
        resampled = learned_tables[3].resample_table(rng)
        assert np.allclose(resampled.table.sum(axis=1), 1.0)
        assert resampled.table.shape == learned_tables[3].table.shape

    def test_resample_table_is_deterministic_given_rng(self, learned_tables):
        first = learned_tables[3].resample_table(np.random.default_rng(9))
        second = learned_tables[3].resample_table(np.random.default_rng(9))
        assert np.array_equal(first.table, second.table)

    def test_resample_table_concentrates_around_posterior_mean(self, learned_tables):
        # With many posterior draws the sample mean approaches the posterior
        # mean, confirming the batched gamma sampler draws from the right
        # Dirichlet (distribution-level check; the RNG stream intentionally
        # differs from the old per-row ``rng.dirichlet`` loop).
        base = learned_tables[3]
        posterior = base.counts + np.asarray(base.prior)[None, :]
        expected = posterior / posterior.sum(axis=1, keepdims=True)
        rng = np.random.default_rng(17)
        mean = np.mean([base.resample_table(rng).table for _ in range(400)], axis=0)
        assert np.allclose(mean, expected, atol=0.05)

    def test_table_shape_validation(self):
        with pytest.raises(ValueError):
            ConditionalParameters(
                attribute_index=0,
                parents=(1,),
                parent_cardinalities=(3,),
                table=np.full((2, 2), 0.5),
                counts=np.zeros((2, 2)),
            )

    def test_list_table_is_stored_as_the_validated_array(self):
        table = ConditionalParameters(
            attribute_index=0,
            parents=(),
            parent_cardinalities=(),
            table=[[0.25, 0.75]],
            counts=np.zeros((1, 2)),
        )
        assert isinstance(table.table, np.ndarray) and table.table.dtype == np.float64
        assert table.cardinality == 2
        samples = table.sample_batch(np.random.default_rng(0), np.zeros(50, dtype=np.int64))
        assert set(samples.tolist()) <= {0, 1}

    def test_float32_table_is_stored_as_float64(self):
        values32 = np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4]], dtype=np.float32)
        table = ConditionalParameters(
            attribute_index=0,
            parents=(1,),
            parent_cardinalities=(2,),
            table=values32,
            counts=np.zeros((2, 3)),
        )
        assert table.table.dtype == np.float64
        probabilities = table.probabilities_batch(np.array([2, 0]), np.array([0, 1]))
        assert probabilities.dtype == np.float64
        assert probabilities.tolist() == [float(values32[0, 2]), float(values32[1, 0])]

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ConditionalParameters(
                attribute_index=0,
                parents=(),
                parent_cardinalities=(),
                table=np.array([[0.5, 0.4]]),
                counts=np.zeros((1, 2)),
            )

    def test_negative_entries_are_rejected(self):
        # The row sums to 1, but its CDF [1.5, 0.8, 1.0] is not monotone:
        # sampling it drew value 1 (probability -0.7) and never value 2.
        with pytest.raises(ValueError, match="non-negative"):
            ConditionalParameters(
                attribute_index=0,
                parents=(),
                parent_cardinalities=(),
                table=[[1.5, -0.7, 0.2]],
                counts=np.zeros((1, 3)),
            )


class TestParameterLearner:
    def test_learned_conditionals_reflect_planted_dependence(self, toy_dataset, toy_structure):
        tables = ParameterLearner().learn(toy_dataset, toy_structure, np.random.default_rng(0))
        size_table = tables[2]
        # In the toy data, size is almost always 0 for young ages and 1 for old
        # ages; the conditional table must capture that switch.
        young_bucket = np.array([0])
        old_bucket = np.array([3])
        assert size_table.probability(0, young_bucket) > 0.7
        assert size_table.probability(1, old_bucket) > 0.7

    def test_marginal_prior_used_for_unseen_configurations(self, toy_schema, toy_structure):
        # Build a dataset where one parent configuration never occurs; its
        # conditional must fall back to the attribute's marginal, not uniform.
        from repro.datasets.dataset import Dataset

        rng = np.random.default_rng(0)
        age = rng.integers(0, 5, size=500)  # only the first age bucket occurs
        color = rng.integers(0, 3, size=500)
        size = np.zeros(500, dtype=np.int64)
        size[:50] = 1  # marginal strongly favours size=0
        label = rng.integers(0, 2, size=500)
        dataset = Dataset(toy_schema, np.column_stack([age, color, size, label]))
        tables = ParameterLearner(alpha=1.0).learn(dataset, toy_structure, rng)
        unseen_configuration = np.array([3])  # age bucket 3 never appears
        distribution = tables[2].distribution(unseen_configuration)
        assert distribution[0] > 0.8

    def test_dp_noise_changes_counts(self, toy_dataset, toy_structure):
        exact = ParameterLearner().learn(toy_dataset, toy_structure, np.random.default_rng(1))
        noisy = ParameterLearner(epsilon=0.5).learn(
            toy_dataset, toy_structure, np.random.default_rng(1)
        )
        assert not np.allclose(exact[3].table, noisy[3].table)

    def test_dp_with_huge_epsilon_matches_exact(self, toy_dataset, toy_structure):
        exact = ParameterLearner(truncation_multiplier=0.0).learn(
            toy_dataset, toy_structure, np.random.default_rng(1)
        )
        nearly_exact = ParameterLearner(epsilon=1e7, truncation_multiplier=0.0).learn(
            toy_dataset, toy_structure, np.random.default_rng(1)
        )
        for first, second in zip(exact, nearly_exact):
            assert np.allclose(first.table, second.table, atol=1e-3)

    def test_dp_learning_records_budget_per_attribute(self, toy_dataset, toy_structure):
        accountant = PrivacyAccountant()
        ParameterLearner(epsilon=0.5, accountant=accountant).learn(
            toy_dataset, toy_structure, np.random.default_rng(0)
        )
        entry = accountant.entries[0]
        assert entry.label == "parameters/counts"
        assert entry.count == 4
        assert entry.scope == "parameter-data"

    def test_non_dp_learning_spends_nothing(self, toy_dataset, toy_structure):
        accountant = PrivacyAccountant()
        ParameterLearner(accountant=accountant).learn(
            toy_dataset, toy_structure, np.random.default_rng(0)
        )
        assert accountant.entries == []

    def test_sampled_parameters_are_valid_distributions(self, toy_dataset, toy_structure):
        tables = ParameterLearner(sample_parameters=True).learn(
            toy_dataset, toy_structure, np.random.default_rng(0)
        )
        for table in tables:
            assert np.allclose(table.table.sum(axis=1), 1.0)

    def test_empty_dataset_rejected(self, toy_schema, toy_structure):
        from repro.datasets.dataset import Dataset

        empty = Dataset(toy_schema, np.empty((0, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            ParameterLearner().learn(empty, toy_structure)

    def test_structure_size_mismatch_rejected(self, toy_dataset):
        wrong_structure = DependencyStructure.empty(3)
        with pytest.raises(ValueError):
            ParameterLearner().learn(toy_dataset, wrong_structure)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            ParameterLearner(epsilon=0.0)
        with pytest.raises(ValueError):
            ParameterLearner(alpha=0.0)
        with pytest.raises(ValueError):
            ParameterLearner(truncation_multiplier=-1.0)

    def test_dp_learning_requires_explicit_rng(self, toy_dataset, toy_structure):
        with pytest.raises(ValueError, match="requires"):
            ParameterLearner(epsilon=0.5).learn(toy_dataset, toy_structure)

    def test_posterior_sampling_requires_explicit_rng(self, toy_dataset, toy_structure):
        with pytest.raises(ValueError, match="requires"):
            ParameterLearner(sample_parameters=True).learn(toy_dataset, toy_structure)

    def test_deterministic_learning_accepts_no_rng(self, toy_dataset, toy_structure):
        tables = ParameterLearner().learn(toy_dataset, toy_structure)
        assert len(tables) == 4


class TestSampleDirichletRows:
    def test_rows_are_distributions(self, rng):
        alphas = np.array([[5.0, 2.0, 1.0], [0.5, 0.5, 0.5], [100.0, 1.0, 1.0]])
        sample = sample_dirichlet_rows(rng, alphas)
        assert sample.shape == alphas.shape
        assert np.allclose(sample.sum(axis=1), 1.0)
        assert np.all(sample >= 0)

    def test_mean_matches_dirichlet_mean(self):
        rng = np.random.default_rng(3)
        alphas = np.array([[4.0, 2.0, 2.0]])
        draws = np.vstack([sample_dirichlet_rows(rng, alphas) for _ in range(8000)])
        assert np.allclose(draws.mean(axis=0), [0.5, 0.25, 0.25], atol=0.02)

    def test_degenerate_rows_fall_back_to_normalized_alphas(self):
        # Alphas this small underflow every gamma draw to zero; the row must
        # still come back as a valid distribution.
        sample = sample_dirichlet_rows(
            np.random.default_rng(0), np.full((3, 4), 1e-300)
        )
        assert np.allclose(sample.sum(axis=1), 1.0)

    def test_batched_sampling_consumes_one_gamma_block(self, learned_tables):
        # The whole posterior matrix is drawn with a single standard_gamma
        # call: the generator must advance exactly as one batched call does.
        base = learned_tables[3]
        posterior = np.maximum(
            base.counts + np.asarray(base.prior)[None, :], 1e-9
        )
        consumed = np.random.default_rng(21)
        base.resample_table(consumed)
        expected = np.random.default_rng(21)
        expected.standard_gamma(posterior)
        assert consumed.bit_generator.state == expected.bit_generator.state

    @given(alpha=st.floats(min_value=0.1, max_value=50.0))
    @settings(max_examples=20, deadline=None)
    def test_tables_always_normalized_for_any_alpha(self, toy_dataset_small, alpha):
        structure = DependencyStructure.from_parent_map({2: (0,)}, 4)
        tables = ParameterLearner(alpha=alpha).learn(
            toy_dataset_small, structure, np.random.default_rng(0)
        )
        for table in tables:
            assert np.allclose(table.table.sum(axis=1), 1.0)
