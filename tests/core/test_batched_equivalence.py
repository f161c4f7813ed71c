"""Equivalence of batched Mechanism 1 and the scalar oracle.

Batching must be a pure performance optimization: probability computations
agree exactly with the per-record oracle
(:func:`repro.testing.invariants.reference_attempt`), release decisions for a
given candidate are identical under the deterministic test, and the sampled
candidates equal the record-by-record oracle's
(:func:`repro.testing.invariants.reference_candidate`) on the same attempt
words.  Decision-level comparisons go through the shared conformance checker
(:func:`repro.testing.invariants.check_batched_mechanism_parity`).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.mechanism import SynthesisMechanism
from repro.core.results import SynthesisReport
from repro.core.stream import attempt_stream
from repro.generative.parameters import SEARCH_MIN_ROWS
from repro.privacy.plausible_deniability import (
    PlausibleDeniabilityParams,
    batch_plausible_seed_counts,
    plausible_seed_count,
)
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.testing.invariants import (
    assert_reports_identical,
    check_batched_mechanism_parity,
    reference_candidate,
    reference_propose,
)
from repro.testing.scenarios import get_scenario


def _words(model, count, seed=1234):
    """The words of attempts 0..count-1 of the stream keyed by ``seed``."""
    return attempt_stream(seed).take(count, len(model.schema))


@pytest.fixture()
def stream():
    """A fresh attempt stream per test."""
    return attempt_stream(1234)


@pytest.fixture(scope="module")
def det_mechanism(unnoised_model, acs_splits):
    """Mechanism with the deterministic test (decisions are candidate-pure)."""
    params = PlausibleDeniabilityParams(k=20, gamma=4.0)
    return SynthesisMechanism(unnoised_model, acs_splits.seeds, params)


@pytest.fixture(scope="module")
def omega_set_model(unnoised_model):
    """The fitted network re-wrapped with an ω *set* ("ω ∈R [5-11]")."""
    return BayesianNetworkSynthesizer(
        unnoised_model.schema,
        unnoised_model.structure,
        unnoised_model.tables,
        omega=(5, 7, 9, 11),
    )


class TestModelBatchEquivalence:
    def test_candidate_factor_suffix_products_match_scalar(self, unnoised_model, acs_splits):
        candidates = unnoised_model.generate_batch(
            acs_splits.seeds.data[:40], _words(unnoised_model, 40)
        )
        m = len(unnoised_model.schema)
        suffix_products = unnoised_model.candidate_factor_suffix_products(candidates)
        for omega in (0, 5, 9, 11):
            scalar = np.array(
                [unnoised_model.candidate_factor(candidate, omega) for candidate in candidates]
            )
            np.testing.assert_allclose(suffix_products[m - omega], scalar, rtol=1e-12)

    def test_probability_matrix_matches_stacked_rows(self, unnoised_model, acs_splits):
        seeds = acs_splits.seeds.data
        candidates = unnoised_model.generate_batch(seeds[:25], _words(unnoised_model, 25))
        matrix = unnoised_model.batch_probability_matrix(seeds, candidates)
        stacked = np.vstack(
            [unnoised_model.batch_seed_probabilities(seeds, candidate) for candidate in candidates]
        )
        np.testing.assert_allclose(matrix, stacked, rtol=1e-12)

    def test_probability_matrix_matches_scalar_seed_probability(
        self, unnoised_model, acs_splits
    ):
        seeds = acs_splits.seeds.data[:200]
        candidates = unnoised_model.generate_batch(seeds[:10], _words(unnoised_model, 10))
        matrix = unnoised_model.batch_probability_matrix(seeds, candidates)
        for c in range(candidates.shape[0]):
            for s in range(0, seeds.shape[0], 37):
                scalar = unnoised_model.seed_probability(seeds[s], candidates[c])
                assert matrix[c, s] == pytest.approx(scalar, rel=1e-12)

    def test_generate_batch_copies_fixed_attributes(self, unnoised_model, acs_splits):
        seeds = acs_splits.seeds.data[:60]
        omega = 9
        out = unnoised_model.generate_batch(
            seeds, _words(unnoised_model, 60), omegas=np.full(60, omega)
        )
        fixed = list(unnoised_model._fixed_attributes(omega))
        assert np.array_equal(out[:, fixed], seeds[:, fixed])

    def test_generate_batch_generated_records_have_positive_seed_probability(
        self, unnoised_model, acs_splits
    ):
        seeds = acs_splits.seeds.data[:60]
        out = unnoised_model.generate_batch(seeds, _words(unnoised_model, 60))
        matrix = unnoised_model.batch_probability_matrix(seeds, out)
        assert np.all(matrix[np.arange(60), np.arange(60)] > 0.0)

    def test_full_resample_matches_the_reference_candidate(self, unnoised_model, acs_splits):
        # Full re-sampling (omega = m) through the batch kernel equals the
        # record-by-record oracle on every attempt's own words; 300 rows run
        # the kernel's binary search, the oracle one row at a time.
        m = len(unnoised_model.schema)
        full_resample = BayesianNetworkSynthesizer(
            unnoised_model.schema, unnoised_model.structure, unnoised_model.tables, omega=m
        )
        seeds = acs_splits.seeds.data[:300]
        batched = full_resample.generate_batch(seeds, _words(full_resample, 300, seed=7))
        stream = attempt_stream(7)
        for row, seed in enumerate(seeds):
            words = stream.take(1, m)
            assert np.array_equal(batched[row], reference_candidate(full_resample, seed, words))

    def test_generate_batch_validates_inputs(self, unnoised_model, acs_splits):
        with pytest.raises(ValueError):
            unnoised_model.generate_batch(acs_splits.seeds.data[0], _words(unnoised_model, 1))
        with pytest.raises(ValueError, match="one 11-attribute attempt per seed row"):
            unnoised_model.generate_batch(acs_splits.seeds.data[:5], _words(unnoised_model, 4))
        with pytest.raises(ValueError):
            unnoised_model.generate_batch(
                acs_splits.seeds.data[:5], _words(unnoised_model, 5), omegas=np.full(4, 9)
            )
        with pytest.raises(ValueError):
            unnoised_model.generate_batch(
                acs_splits.seeds.data[:5], _words(unnoised_model, 5), omegas=np.full(5, 99)
            )

    def test_generate_batch_empty(self, unnoised_model):
        out = unnoised_model.generate_batch(
            np.empty((0, len(unnoised_model.schema)), dtype=np.int64), _words(unnoised_model, 0)
        )
        assert out.shape == (0, len(unnoised_model.schema))


class TestBatchPlausibleSeedCounts:
    def test_matches_scalar_counts_without_knobs(self, rng):
        matrix = rng.random((30, 400)) * rng.integers(0, 2, size=(30, 400))
        seed_probs = np.clip(matrix.max(axis=1), 1e-9, 1.0)
        counts, partitions, checked, _ = batch_plausible_seed_counts(
            seed_probs, matrix, gamma=2.0
        )
        for index in range(30):
            count, partition, scanned, _ = plausible_seed_count(
                float(seed_probs[index]), matrix[index], gamma=2.0
            )
            assert counts[index] == count
            assert partitions[index] == partition
            assert checked[index] == scanned

    def test_max_plausible_caps_counts(self):
        matrix = np.full((5, 100), 0.4)
        counts, _, _, saturated = batch_plausible_seed_counts(
            np.full(5, 0.4), matrix, gamma=2.0, max_plausible=10, scan_rng=np.random.default_rng
        )
        assert np.all(counts == 10)
        assert np.all(saturated)

    def test_max_check_plausible_limits_scan(self):
        matrix = np.full((5, 100), 0.4)
        counts, _, checked, _ = batch_plausible_seed_counts(
            np.full(5, 0.4), matrix, gamma=2.0, max_check_plausible=30,
            scan_rng=np.random.default_rng,
        )
        assert np.all(checked == 30)
        assert np.all(counts == 30)

    def test_early_termination_requires_rng(self):
        matrix = np.full((3, 10), 0.4)
        with pytest.raises(ValueError, match="requires an rng"):
            batch_plausible_seed_counts(
                np.full(3, 0.4), matrix, gamma=2.0, max_check_plausible=5
            )

    def test_scan_subsets_are_independent_per_candidate(self):
        # Half the records are plausible; a limited scan hits a random subset,
        # so identical candidates should not always report identical counts.
        row = np.concatenate([np.full(50, 0.4), np.full(50, 1e-6)])
        matrix = np.tile(row, (40, 1))
        counts, _, _, _ = batch_plausible_seed_counts(
            np.full(40, 0.4), matrix, gamma=2.0, max_check_plausible=20,
            scan_rng=np.random.default_rng,
        )
        assert len(set(counts.tolist())) > 1

    def test_scanned_row_matches_the_scalar_scan_on_its_generator(self):
        # Row c's subset is drawn from scan_rng(c) alone, exactly as the
        # scalar scan draws it from the same generator.
        noise = np.random.default_rng(5)
        matrix = noise.random((12, 60)) * (noise.random((12, 60)) < 0.7)
        seed_probs = np.clip(matrix.max(axis=1), 1e-9, 1.0)
        counts, _, checked, saturated = batch_plausible_seed_counts(
            seed_probs, matrix, gamma=1.5, max_check_plausible=17, max_plausible=9,
            scan_rng=lambda row: np.random.default_rng(100 + row),
        )
        for row in range(12):
            count, _, scanned, capped = plausible_seed_count(
                float(seed_probs[row]), matrix[row], gamma=1.5, max_check_plausible=17,
                max_plausible=9, rng=np.random.default_rng(100 + row),
            )
            assert (counts[row], checked[row], saturated[row]) == (count, scanned, capped)

    def test_validates_shapes_and_positivity(self):
        with pytest.raises(ValueError):
            batch_plausible_seed_counts(np.array([0.5]), np.array([0.5]), gamma=2.0)
        with pytest.raises(ValueError):
            batch_plausible_seed_counts(
                np.array([0.5, 0.5]), np.full((3, 4), 0.5), gamma=2.0
            )
        with pytest.raises(ValueError):
            batch_plausible_seed_counts(
                np.array([0.5, 0.0]), np.full((2, 4), 0.5), gamma=2.0
            )


class TestMechanismBatchEquivalence:
    def test_batched_decisions_match_reference_evaluation(self, det_mechanism, stream):
        # The oracle re-draws each attempt from its own words, so the batched
        # block must reproduce it column for column.
        attempts = check_batched_mechanism_parity(det_mechanism, stream, batch_size=50)
        assert attempts.num_attempts == 50

    def test_batch_above_the_search_switch_matches_reference_evaluation(
        self, omega_set_model, acs_splits
    ):
        # With ω in {5, 7, 9, 11}, a batch of 2 * SEARCH_MIN_ROWS attempts
        # re-samples the last five σ positions for every row, through the
        # kernel's binary search, and the first two for about a quarter of
        # the rows, through its broadcast count.  The oracle samples each
        # attempt alone.
        mechanism = SynthesisMechanism(
            omega_set_model,
            acs_splits.seeds,
            PlausibleDeniabilityParams(k=20, gamma=4.0, epsilon0=0.5),
        )
        block = check_batched_mechanism_parity(
            mechanism, attempt_stream(37), batch_size=2 * SEARCH_MIN_ROWS
        )
        assert block.num_attempts == 2 * SEARCH_MIN_ROWS

    def test_batch_of_one_decisions_match_reference_evaluation(self, stream):
        # batch_size=1 is a batch of one through propose_batch, not a
        # separate per-record loop.
        fit = get_scenario("toy-correlated").fit(seed=0)
        mechanism = SynthesisMechanism(fit.model, fit.seeds, fit.params)
        for _ in range(20):
            check_batched_mechanism_parity(mechanism, stream, batch_size=1)

    def test_run_attempts_counts(self, det_mechanism, stream):
        report = det_mechanism.run_attempts(70, stream, batch_size=32)
        assert report.num_attempts == 70
        assert stream.position == 70

    def test_scalar_loop_equals_the_batched_run(self, det_mechanism):
        cursor = attempt_stream(21)
        single = SynthesisReport.merged(
            det_mechanism.seed_dataset.schema,
            [reference_propose(det_mechanism, cursor) for _ in range(120)],
        )
        batched = det_mechanism.run_attempts(120, attempt_stream(21), batch_size=64)
        assert_reports_identical(single, batched)

    def test_stop_after_released_stops_at_target(self, det_mechanism, stream):
        report = det_mechanism.run_attempts(
            1500, stream, batch_size=64, stop_after_released=15
        )
        assert report.num_released == 15

    def test_until_n_sizes_batches_from_what_it_still_needs(
        self, det_mechanism, monkeypatch
    ):
        # Twice the target first, then the missing releases over the pass
        # rate seen so far; the cap only ever lowers a batch.
        sizes = []
        propose_batch = SynthesisMechanism.propose_batch

        def recording(mechanism, batch_size, stream):
            sizes.append(batch_size)
            return propose_batch(mechanism, batch_size, stream)

        monkeypatch.setattr(SynthesisMechanism, "propose_batch", recording)
        report = det_mechanism.run_attempts(
            5000, attempt_stream(8), batch_size=4096, stop_after_released=16
        )
        assert report.num_released == 16
        assert sizes[0] == 32
        first = det_mechanism.run_attempts(32, attempt_stream(8))
        if first.num_released < 16:
            needed = 16 - first.num_released
            assert sizes[1] == -(-needed * 32 // first.num_released)

    @settings(max_examples=25, deadline=None)
    @given(
        target=st.integers(0, 30),
        limit=st.integers(1, 80),
        batch_size=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_until_n_is_the_released_prefix_of_fixed_budget_batches(
        self, det_mechanism, target, limit, batch_size, seed
    ):
        # Until-N truncates the same stream of blocks a fixed budget would
        # propose, at the Nth release: no block boundary may shift it.
        generated = det_mechanism.run_attempts(
            limit,
            attempt_stream(seed),
            batch_size=batch_size,
            stop_after_released=target,
        )
        budget = det_mechanism.run_attempts(limit, attempt_stream(seed), batch_size=25 - batch_size)
        expected = SynthesisReport.merged(
            budget.schema, [budget], stop_after_released=target
        )
        assert_reports_identical(expected, generated)
        assert generated.num_attempts == expected.num_attempts
        assert generated.num_released == expected.num_released == min(
            target, budget.num_released
        )

    def test_stop_after_released_respects_attempt_budget(
        self, unnoised_model, acs_splits, stream
    ):
        params = PlausibleDeniabilityParams(k=len(acs_splits.seeds), gamma=4.0)
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        report = mechanism.run_attempts(20, stream, batch_size=8, stop_after_released=5)
        assert report.num_attempts == 20
        assert report.num_released < 5

    def test_propose_batch_with_randomized_test(self, unnoised_model, acs_splits, stream):
        params = PlausibleDeniabilityParams(k=20, gamma=4.0, epsilon0=1.0)
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        attempts = mechanism.propose_batch(40, stream)
        assert len(set(attempts["thresholds"].tolist())) > 1  # one Laplace draw each
        assert np.array_equal(
            attempts["passed"], attempts["plausible_seeds"] >= attempts["thresholds"]
        )

    def test_propose_batch_with_early_termination_knobs(
        self, unnoised_model, acs_splits, stream
    ):
        params = PlausibleDeniabilityParams(
            k=10, gamma=4.0, max_plausible=10, max_check_plausible=500
        )
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        attempts = mechanism.propose_batch(30, stream)
        assert np.all(attempts["records_checked"] <= 500)
        assert np.all(attempts["plausible_seeds"] <= 10)
        assert np.all(attempts["plausible_seeds"][attempts["passed"]] >= 10)

    def test_propose_batch_validates_batch_size(self, det_mechanism, stream):
        with pytest.raises(ValueError):
            det_mechanism.propose_batch(0, stream)


class TestFastCountEquivalence:
    """The prefix-key fast path must reproduce the dense-matrix counts exactly."""

    @pytest.mark.parametrize("model_fixture", ["unnoised_model", "omega_set_model"])
    def test_fast_counts_match_matrix_counts(
        self, model_fixture, acs_splits, request
    ):
        model = request.getfixturevalue(model_fixture)
        mechanism = SynthesisMechanism(
            model, acs_splits.seeds, PlausibleDeniabilityParams(k=20, gamma=4.0)
        )
        words = _words(model, 60)
        seed_indices = words.seed_indices(len(acs_splits.seeds))
        candidates = model.generate_batch(acs_splits.seeds.data[seed_indices], words)

        fast = mechanism._fast_batch_counts(seed_indices, candidates)
        assert fast is not None

        matrix = model.batch_probability_matrix(acs_splits.seeds.data, candidates)
        seed_probabilities = matrix[np.arange(60), seed_indices]
        counts, partitions, checked, saturated = batch_plausible_seed_counts(
            seed_probabilities, matrix, gamma=4.0
        )
        np.testing.assert_array_equal(fast[0], counts)
        np.testing.assert_array_equal(fast[1], partitions)
        np.testing.assert_array_equal(fast[2], checked)
        np.testing.assert_array_equal(fast[3], saturated)

    def test_fast_path_skipped_with_early_termination_knobs(
        self, unnoised_model, acs_splits
    ):
        params = PlausibleDeniabilityParams(k=10, gamma=4.0, max_check_plausible=500)
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        words = _words(unnoised_model, 5)
        seed_indices = words.seed_indices(len(acs_splits.seeds))
        candidates = unnoised_model.generate_batch(acs_splits.seeds.data[seed_indices], words)
        assert mechanism._fast_batch_counts(seed_indices, candidates) is None

    @pytest.mark.parametrize(
        "params",
        [
            PlausibleDeniabilityParams(k=20, gamma=4.0),
            PlausibleDeniabilityParams(k=20, gamma=4.0, epsilon0=0.5),
            PlausibleDeniabilityParams(k=20, gamma=4.0, epsilon0=0.5, max_check_plausible=700),
            PlausibleDeniabilityParams(k=20, gamma=4.0, max_plausible=25, max_check_plausible=900),
        ],
        ids=["deterministic", "randomized", "randomized-scan", "capped-scan"],
    )
    def test_omega_set_attempts_match_reference_evaluation(
        self, omega_set_model, acs_splits, params
    ):
        # Mixed ω, the randomized test's thresholds and the subset scans all
        # read each attempt's own words, so the oracle matches value for value.
        mechanism = SynthesisMechanism(omega_set_model, acs_splits.seeds, params)
        check_batched_mechanism_parity(mechanism, attempt_stream(31, start=5), batch_size=40)
