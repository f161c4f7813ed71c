"""Smoke and shape tests for every table / figure experiment.

These run on a deliberately tiny context so they verify wiring, table shapes
and basic sanity (not the paper's quantitative trends, which the benchmarks
regenerate at a larger scale).
"""

import numpy as np
import pytest

from repro.core.stream import attempt_stream
from repro.experiments import (
    ExperimentContext,
    run_classifier_comparison,
    run_dataset_summary,
    run_distinguishing_game,
    run_dp_classifier_comparison,
    run_model_accuracy,
    run_model_improvement,
    run_pairwise_distance,
    run_pass_rate_sweep,
    run_performance_measurement,
    run_single_attribute_distance,
)
from repro.experiments.dataset_summary import run_attribute_table
from repro.experiments.pass_rate import plausible_seed_counts
from repro.privacy.plausible_deniability import partition_numbers


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(num_raw_records=5000, synthetic_records=150, k=10, seed=5)


VARIANTS = ["omega=11", "omega=9"]


class TestDatasetSummary:
    def test_attribute_table_lists_all_attributes(self, context):
        result = run_attribute_table(context)
        assert len(result.rows) == 11
        assert result.row_by_key("WAGP")[2] == 2

    def test_cleaning_summary(self, context):
        result = run_dataset_summary(context)
        raw = result.row_by_key("raw records")[1]
        clean = result.row_by_key("clean records")[1]
        assert clean < raw
        assert result.row_by_key("attributes")[1] == 11


class TestModelAccuracy:
    def test_figure2_rows_and_ranges(self, context):
        result = run_model_accuracy(context, num_eval_records=60, forest_train_records=800)
        assert len(result.rows) == 11
        for row in result.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 1.0

    def test_figure1_improvement_table(self, context):
        result = run_model_improvement(
            context, num_eval_records=60, epsilons=(None, 1.0), repeats=1
        )
        assert result.headers == ["attribute", "no noise", "epsilon=1.0"]
        assert len(result.rows) == 11
        for row in result.rows:
            for value in row[1:]:
                assert value <= 1.0  # improvement can be negative, never above 100%


class TestStatisticalDistance:
    def test_figure3_rows(self, context):
        result = run_single_attribute_distance(context, variants=VARIANTS)
        names = result.column("dataset")
        assert "reals" in names and "marginals" in names and "omega=11" in names
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0

    def test_figure4_rows(self, context):
        result = run_pairwise_distance(context, variants=["omega=11"])
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0


class TestClassifierComparisons:
    def test_table3_shape(self, context):
        result = run_classifier_comparison(context, variants=["omega=11"])
        assert "reals" in result.column("train dataset")
        for row in result.rows:
            for value in row[1:]:
                assert 0.0 <= value <= 1.0

    def test_table4_shape(self, context):
        result = run_dp_classifier_comparison(context, variants=["omega=11"])
        labels = result.column("training")
        assert "non-private (reals)" in labels
        assert "objective perturbation (reals)" in labels
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0
            assert 0.0 <= row[2] <= 1.0


class TestDistinguishingGame:
    def test_table5_shape(self, context):
        result = run_distinguishing_game(context, variants=["omega=11"])
        assert len(result.rows) >= 1
        for row in result.rows:
            assert 0.0 <= row[1] <= 1.0
            assert 0.0 <= row[2] <= 1.0


class TestPerformanceAndPassRate:
    def test_figure5_rows_are_cumulative(self, context):
        result = run_performance_measurement(context, checkpoints=(20, 40))
        produced = result.column("synthetics produced")
        assert produced == sorted(produced)
        totals = result.column("total (s)")
        assert all(later >= earlier for earlier, later in zip(totals, totals[1:]))

    def test_figure5_times_no_index_build_as_synthesis(self, monkeypatch):
        # The prefix-key index is part of preparing the mechanism: built
        # inside the timed run_attempts calls, it made the first checkpoint's
        # rate several times lower than the later ones'.
        from repro.core import mechanism as mechanism_module

        timed = []
        built_while_timed = []
        run_attempts = mechanism_module.SynthesisMechanism.run_attempts
        index_class = mechanism_module._SeedMatchIndex

        def spied_run_attempts(mechanism, *args, **kwargs):
            timed.append(True)
            try:
                return run_attempts(mechanism, *args, **kwargs)
            finally:
                timed.pop()

        def spied_index(*args, **kwargs):
            built_while_timed.append(bool(timed))
            return index_class(*args, **kwargs)

        monkeypatch.setattr(
            mechanism_module.SynthesisMechanism, "run_attempts", spied_run_attempts
        )
        monkeypatch.setattr(mechanism_module, "_SeedMatchIndex", spied_index)
        fresh = ExperimentContext(num_raw_records=2000, synthetic_records=50, k=10, seed=6)
        run_performance_measurement(fresh, checkpoints=(20, 40))
        assert built_while_timed == [False]

    def test_figure6_pass_rate_decreases_with_k(self, context):
        result = run_pass_rate_sweep(
            context, k_values=(5, 200), omegas=(9,), num_candidates=40
        )
        high_k_rate = result.rows[-1][1]
        low_k_rate = result.rows[0][1]
        assert low_k_rate >= high_k_rate
        assert 0.0 <= high_k_rate <= 1.0

    @pytest.mark.parametrize(
        "omega", [7, 9, (5, 6, 7, 8, 9, 10, 11)], ids=["omega=7", "omega=9", "omega=5-11"]
    )
    def test_figure6_counts_equal_a_dense_matrix_count(self, context, omega):
        # The sweep reads Mechanism 1's own counts; recount the same attempts
        # over the dense (candidates x seeds) probability matrix.
        model = context.model_for_omega(omega)
        seeds = context.splits.seeds
        counts = plausible_seed_counts(
            model, seeds, 300, 2.0, np.random.default_rng(3), batch_size=64
        )
        base_seed = int(np.random.default_rng(3).integers(2**63))
        words = attempt_stream(base_seed).take(300, len(seeds.schema))
        seed_indices = words.seed_indices(len(seeds))
        candidates = model.generate_batch(seeds.data[seed_indices], words)
        matrix = model.batch_probability_matrix(seeds.data, candidates)
        partitions = partition_numbers(matrix, 2.0)
        own = partitions[np.arange(300), seed_indices]
        assert counts.tolist() == np.sum(partitions == own[:, None], axis=1).tolist()
