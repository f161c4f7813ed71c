"""Tests for Mechanism 1 (seed -> candidate -> privacy test -> release)."""

import dataclasses

import numpy as np
import pytest

from repro.core.mechanism import SynthesisMechanism
from repro.core.results import COLUMNS
from repro.core.stream import attempt_stream
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.testing.invariants import reference_attempt, reference_propose
from repro.testing.scenarios import get_scenario, scenario_names


@pytest.fixture()
def stream():
    """A fresh attempt stream per test."""
    return attempt_stream(1234)


@pytest.fixture(scope="module")
def mechanism(unnoised_model, acs_splits):
    params = PlausibleDeniabilityParams(k=20, gamma=4.0, epsilon0=1.0)
    return SynthesisMechanism(unnoised_model, acs_splits.seeds, params)


class TestConstruction:
    def test_requires_matching_schema(self, unnoised_model, toy_dataset):
        params = PlausibleDeniabilityParams(k=5, gamma=2.0)
        with pytest.raises(ValueError):
            SynthesisMechanism(unnoised_model, toy_dataset, params)

    def test_requires_at_least_k_seed_records(self, unnoised_model, acs_splits):
        params = PlausibleDeniabilityParams(k=10_000_000, gamma=2.0)
        with pytest.raises(ValueError):
            SynthesisMechanism(unnoised_model, acs_splits.seeds, params)

    def test_exposes_components(self, mechanism, unnoised_model, acs_splits):
        assert mechanism.model is unnoised_model
        assert mechanism.seed_dataset is acs_splits.seeds
        assert mechanism.params.k == 20


class TestReferenceOracle:
    """The scalar oracle of ``repro.testing`` (the paper's one-candidate loop)."""

    def test_reference_propose_returns_valid_attempt(self, mechanism, stream):
        attempt = reference_propose(mechanism, stream)
        assert attempt.num_attempts == 1
        assert 0 <= attempt["seed_indices"][0] < len(mechanism.seed_dataset)
        assert attempt["candidates"].shape == (1, 11)
        assert attempt["plausible_seeds"][0] >= 0

    def test_plausible_seed_count_counts_matching_records(self, mechanism, stream):
        attempt = reference_propose(mechanism, stream)
        candidate = attempt["candidates"][0]
        # Recompute the plausible-seed count directly from the model.
        model = mechanism.model
        seeds = mechanism.seed_dataset
        probabilities = model.batch_seed_probabilities(seeds.data, candidate)
        seed_probability = model.seed_probability(
            seeds.record(int(attempt["seed_indices"][0])), candidate
        )
        from repro.privacy.plausible_deniability import partition_numbers

        partitions = partition_numbers(probabilities, mechanism.params.gamma)
        seed_partition = partition_numbers(
            np.array([seed_probability]), mechanism.params.gamma
        )[0]
        assert attempt["plausible_seeds"][0] == int(np.sum(partitions == seed_partition))

    def test_reference_attempt_with_external_record(self, mechanism, stream):
        candidate = mechanism.seed_dataset.record(0).copy()
        attempt = reference_attempt(mechanism, 0, candidate, stream.take(1, 11))
        assert attempt["seed_indices"].tolist() == [0]
        assert np.array_equal(attempt["candidates"], candidate[None, :])


class TestRunAttempts:
    def test_stops_at_target_released(self, mechanism, stream):
        report = mechanism.run_attempts(1000, stream, stop_after_released=10)
        assert report.num_released == 10
        assert report["passed"][-1]  # cut right after the 10th release

    def test_respects_attempt_budget(self, unnoised_model, acs_splits, stream):
        # Impossible parameters: k equal to the seed-set size cannot be met by
        # a seed-dependent candidate, so the mechanism must stop at the limit.
        params = PlausibleDeniabilityParams(k=len(acs_splits.seeds), gamma=4.0)
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        report = mechanism.run_attempts(20, stream, stop_after_released=5)
        assert report.num_attempts == 20
        assert report.num_released < 5

    def test_zero_target_proposes_nothing(self, mechanism, stream):
        report = mechanism.run_attempts(100, stream, stop_after_released=0)
        assert report.num_attempts == 0

    def test_negative_target_rejected(self, mechanism, stream):
        with pytest.raises(ValueError):
            mechanism.run_attempts(10, stream, stop_after_released=-1)

    def test_run_attempts_exact_count(self, mechanism, stream):
        report = mechanism.run_attempts(25, stream)
        assert report.num_attempts == 25

    def test_run_attempts_negative_rejected(self, mechanism, stream):
        with pytest.raises(ValueError):
            mechanism.run_attempts(-1, stream)

    def test_released_records_satisfy_plausible_deniability(
        self, unnoised_model, acs_splits, stream
    ):
        # Deterministic test: every released record must have at least k
        # plausible seeds (Definition 1 via the bucket criterion).
        params = PlausibleDeniabilityParams(k=15, gamma=4.0)
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        report = mechanism.run_attempts(40, stream)
        assert np.all(report["plausible_seeds"][report["passed"]] >= 15)

    def test_lower_k_gives_higher_pass_rate(self, unnoised_model, acs_splits):
        lenient = SynthesisMechanism(
            unnoised_model, acs_splits.seeds, PlausibleDeniabilityParams(k=5, gamma=4.0)
        ).run_attempts(60, attempt_stream(0))
        strict = SynthesisMechanism(
            unnoised_model, acs_splits.seeds, PlausibleDeniabilityParams(k=500, gamma=4.0)
        ).run_attempts(60, attempt_stream(0))
        assert lenient.pass_rate >= strict.pass_rate

    def test_early_termination_knobs_do_not_release_implausible_records(
        self, unnoised_model, acs_splits, stream
    ):
        params = PlausibleDeniabilityParams(
            k=10, gamma=4.0, max_plausible=10, max_check_plausible=2000
        )
        mechanism = SynthesisMechanism(unnoised_model, acs_splits.seeds, params)
        report = mechanism.run_attempts(30, stream)
        assert np.all(report["plausible_seeds"][report["passed"]] >= 10)
        assert np.all(report["records_checked"] <= 2000)


@pytest.mark.parametrize("path", ["index", "dense"])
@pytest.mark.parametrize("mode", ["deterministic", "randomized"])
@pytest.mark.parametrize("scenario", scenario_names())
def test_proposal_blocks_keep_the_column_contract(scenario, mode, path):
    """``propose_batch`` hands its columns to the report unchecked, so it must
    build each in its ``COLUMNS`` dtype with one common length, read-only, and
    ``candidates`` n×m and C-contiguous; ``from_arrays`` validates the rest."""
    fit = get_scenario(scenario).fit(seed=0)
    params = dataclasses.replace(
        fit.params,
        epsilon0=None if mode == "deterministic" else 1.0,
        max_check_plausible=None if path == "index" else len(fit.seeds) // 2,
        max_plausible=None,
    )
    mechanism = SynthesisMechanism(fit.model, fit.seeds, params)
    stream = attempt_stream(2701)
    for num_rows in (1, 7, 256):
        block = mechanism.propose_batch(num_rows, stream)
        for name, dtype in COLUMNS.items():
            column = block[name]
            assert column.dtype == dtype, name
            assert len(column) == num_rows, name
            assert not column.flags.writeable, name
        assert block["candidates"].shape == (num_rows, len(fit.model.schema))
        assert block["candidates"].flags.c_contiguous
    index = mechanism._match_index
    assert (index is not None and index.supported) == (path == "index")
