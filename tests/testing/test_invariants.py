"""Tests for the invariant checkers: they pass on conforming runs and fail loudly
on deliberately broken ones."""

import dataclasses

import numpy as np
import pytest

from repro.core.results import SynthesisReport
from repro.core.stream import attempt_stream
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.testing.invariants import (
    InvariantViolation,
    assert_reports_identical,
    check_accountant_conservation,
    check_batched_mechanism_parity,
    check_engine_parity,
    check_rng_reproducibility,
    check_structure_engine_equivalence,
    check_theorem1_bounds,
    report_accounting,
)
from repro.testing.scenarios import get_scenario


@pytest.fixture(scope="module")
def tiny_fit():
    return get_scenario("tiny-n").fit(seed=0)


def _mutated_report(report: SynthesisReport) -> SynthesisReport:
    """A copy of ``report`` with one candidate value flipped."""
    columns = report.to_arrays()
    candidates = columns["candidates"].copy()
    candidates[0, 0] = (candidates[0, 0] + 1) % 2
    return SynthesisReport(report.schema, {**columns, "candidates": candidates})


class TestReportComparison:
    def test_identical_reports_pass(self, tiny_fit):
        scenario = tiny_fit.scenario
        report = tiny_fit.pipeline.mechanism.run_attempts(
            16, attempt_stream(0), batch_size=scenario.batch_size
        )
        assert_reports_identical(report, report)
        assert sum(report_accounting(report)["passed"]) == report.num_released

    def test_single_flipped_cell_detected(self, tiny_fit):
        report = tiny_fit.pipeline.mechanism.run_attempts(
            16, attempt_stream(0), batch_size=4
        )
        with pytest.raises(InvariantViolation, match="candidates"):
            assert_reports_identical(report, _mutated_report(report))


class TestEngineParityChecker:
    def test_vacuous_comparison_rejected(self, tiny_fit):
        # No candidate engines and no worker count > 1: nothing would be
        # compared, so the checker must refuse instead of passing vacuously.
        scenario = tiny_fit.scenario
        with pytest.raises(ValueError, match="vacuous"):
            check_engine_parity(
                tiny_fit.model,
                tiny_fit.seeds,
                tiny_fit.params,
                base_seed=0,
                num_attempts=scenario.attempts,
                chunk_size=scenario.chunk_size,
                batch_size=scenario.batch_size,
                worker_counts=(1,),
            )

    def test_rejects_ambiguous_mode(self, tiny_fit):
        with pytest.raises(ValueError, match="exactly one"):
            check_engine_parity(
                tiny_fit.model, tiny_fit.seeds, tiny_fit.params,
                num_attempts=8, num_released=2,
            )
        with pytest.raises(ValueError, match="exactly one"):
            check_engine_parity(tiny_fit.model, tiny_fit.seeds, tiny_fit.params)

    @pytest.mark.parametrize("chunk_size,batch_size", [(32, 8), (16, 4), (5, 3)])
    def test_other_chunk_grids_and_batch_sizes_are_compared(
        self, tiny_fit, chunk_size, batch_size
    ):
        # Attempts are counter-addressed, so an engine on another chunk grid
        # or batching is a valid candidate and must reproduce the reference.
        from repro.core.engine import SynthesisEngine

        with SynthesisEngine(
            tiny_fit.model, tiny_fit.seeds, tiny_fit.params,
            chunk_size=chunk_size, batch_size=batch_size,
        ) as engine:
            for mode in ({"num_attempts": 40}, {"num_released": 6, "max_attempts": 400}):
                check_engine_parity(
                    tiny_fit.model, tiny_fit.seeds, tiny_fit.params, base_seed=4,
                    chunk_size=16, batch_size=8, engines=[engine], **mode,
                )


class TestRngReproducibilityChecker:
    def test_pure_run_passes(self, tiny_fit):
        def run(stream):
            return tiny_fit.pipeline.mechanism.run_attempts(12, stream, batch_size=4)

        report = check_rng_reproducibility(run, seed=9)
        assert report.num_attempts == 12

    def test_impure_run_detected(self, tiny_fit):
        shared_stream = attempt_stream(0)

        def impure_run(stream):
            # Ignores the checker-provided stream: advances a shared cursor,
            # so every repeat sees different attempts.
            return tiny_fit.pipeline.mechanism.run_attempts(12, shared_stream, batch_size=4)

        with pytest.raises(InvariantViolation, match="repeat 1"):
            check_rng_reproducibility(impure_run, seed=9)

    def test_requires_two_repeats(self, tiny_fit):
        with pytest.raises(ValueError, match="at least 2"):
            check_rng_reproducibility(lambda stream: None, repeats=1)


class TestBatchedParityChecker:
    def test_conforming_mechanism_passes(self, tiny_fit):
        attempts = check_batched_mechanism_parity(
            tiny_fit.pipeline.mechanism, attempt_stream(3), batch_size=20
        )
        assert attempts.num_attempts == 20

    def test_limited_scan_counts_are_compared(self, monkeypatch):
        # Under max_check_plausible both paths scan the subset drawn from the
        # attempt's own scan generator, so counts must agree pointwise — and
        # a scan that ignores it must be caught.
        from repro.core.mechanism import SynthesisMechanism
        from repro.core.stream import AttemptWords
        from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

        fit = get_scenario("high-cardinality").fit(seed=0)
        params = PlausibleDeniabilityParams(k=8, gamma=4.0, max_check_plausible=30)
        mechanism = SynthesisMechanism(fit.model, fit.seeds, params)
        attempts = check_batched_mechanism_parity(mechanism, attempt_stream(0), batch_size=20)
        assert np.all(attempts["records_checked"] == 30)
        # A scan keyed by the row within its batch, not by the attempt: the
        # oracle's one-attempt blocks all scan row 0's subset.
        monkeypatch.setattr(
            AttemptWords, "scan_rng", lambda words, row: np.random.default_rng(row)
        )
        with pytest.raises(InvariantViolation, match="plausible count"):
            check_batched_mechanism_parity(mechanism, attempt_stream(0), batch_size=20)

    def test_broken_fast_counts_detected(self, tiny_fit, monkeypatch):
        mechanism = tiny_fit.pipeline.mechanism
        original = type(mechanism)._fast_batch_counts

        def off_by_one(self, seed_indices, candidates, suffix_products=None):
            counts, partitions, checked, saturated = original(
                self, seed_indices, candidates, suffix_products
            )
            return counts + 1, partitions, checked, saturated

        monkeypatch.setattr(type(mechanism), "_fast_batch_counts", off_by_one)
        with pytest.raises(InvariantViolation, match="plausible count"):
            check_batched_mechanism_parity(
                mechanism, attempt_stream(3), batch_size=10
            )

    @staticmethod
    def _dense_scan_mechanism(monkeypatch):
        # Models without the prefix-key interface count through the dense
        # probability-matrix scan instead of the index.
        from repro.core.mechanism import SynthesisMechanism

        fit = get_scenario("tiny-n").fit(seed=0)
        mechanism = SynthesisMechanism(fit.model, fit.seeds, fit.params)
        monkeypatch.setattr(
            mechanism,
            "_fast_batch_counts",
            lambda seed_indices, candidates, suffix_products=None: None,
        )
        return mechanism

    def test_conforming_dense_scan_passes(self, monkeypatch):
        mechanism = self._dense_scan_mechanism(monkeypatch)
        attempts = check_batched_mechanism_parity(
            mechanism, attempt_stream(3), batch_size=12
        )
        assert attempts.num_attempts == 12
        assert mechanism._match_index is None

    def test_broken_dense_scan_counts_detected(self, monkeypatch):
        from repro.privacy.plausible_deniability import DeterministicPrivacyTest

        mechanism = self._dense_scan_mechanism(monkeypatch)
        original = DeterministicPrivacyTest.run_batch

        def off_by_one(self, seed_probabilities, probability_matrix, words):
            columns = original(self, seed_probabilities, probability_matrix, words)
            return {**columns, "plausible_seeds": columns["plausible_seeds"] + 1}

        monkeypatch.setattr(DeterministicPrivacyTest, "run_batch", off_by_one)
        with pytest.raises(InvariantViolation, match="plausible count"):
            check_batched_mechanism_parity(
                mechanism, attempt_stream(3), batch_size=10
            )

    def test_saturation_and_scan_alignment_compared(self):
        # max_plausible stops the scan early on both paths; the batched path
        # must report the same records_checked and saturation flag as the
        # sequential reference, and the checker must verify that.
        from repro.core.mechanism import SynthesisMechanism
        from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

        fit = get_scenario("tiny-n").fit(seed=0)
        params = dataclasses.replace(fit.params, max_plausible=4)
        mechanism = SynthesisMechanism(fit.model, fit.seeds, params)
        attempts = check_batched_mechanism_parity(
            mechanism, attempt_stream(5), batch_size=12
        )
        assert attempts["count_saturated"].any()

    def test_broken_saturation_flag_detected(self, monkeypatch):
        from repro.core.mechanism import SynthesisMechanism
        from repro.privacy.plausible_deniability import DeterministicPrivacyTest

        fit = get_scenario("tiny-n").fit(seed=0)
        params = dataclasses.replace(fit.params, max_plausible=4)
        mechanism = SynthesisMechanism(fit.model, fit.seeds, params)
        original = DeterministicPrivacyTest.run_batch

        def flipped_saturation(self, seed_probabilities, probability_matrix, words):
            columns = original(self, seed_probabilities, probability_matrix, words)
            return {**columns, "count_saturated": ~columns["count_saturated"]}

        monkeypatch.setattr(DeterministicPrivacyTest, "run_batch", flipped_saturation)
        with pytest.raises(InvariantViolation, match="saturation"):
            check_batched_mechanism_parity(
                mechanism, attempt_stream(5), batch_size=12
            )


class TestAccountantConservationChecker:
    def test_empty_ledger_passes_vacuously(self):
        assert check_accountant_conservation(PrivacyAccountant()) is None

    def test_real_ledger_passes(self):
        fit = get_scenario("toy-correlated").fit(seed=0)
        total = check_accountant_conservation(fit.accountant)
        assert total is not None and total[0] > 0

    def test_synthetic_multi_scope_ledger_passes(self):
        accountant = PrivacyAccountant()
        accountant.spend("a", 0.2, 1e-9, count=5, scope="left")
        accountant.spend("b", 0.4, 0.0, count=1, scope="left")
        accountant.spend("c", 0.1, 0.0, count=50, scope="right")
        epsilon, delta = check_accountant_conservation(accountant)
        assert epsilon == pytest.approx(0.2 * 5 + 0.4 + 0.1 * 50)

    def test_tampered_composition_detected(self, monkeypatch):
        accountant = PrivacyAccountant()
        accountant.spend("a", 0.2, count=3, scope="left")

        def under_report(self, scope, use_advanced=True):
            return (0.0, 0.0)

        monkeypatch.setattr(PrivacyAccountant, "scope_guarantee", under_report)
        with pytest.raises(InvariantViolation, match="does not equal"):
            check_accountant_conservation(accountant)


class TestTheorem1Checker:
    @staticmethod
    def _report(schema, **test_columns):
        """A one-attempt report holding the given privacy-test values."""
        return SynthesisReport(
            schema,
            {
                "seed_indices": [0],
                "candidates": np.zeros((1, len(schema)), dtype=np.int64),
                "count_saturated": [False],
                **{name: [value] for name, value in test_columns.items()},
            },
        )

    def test_real_run_passes(self, tiny_fit):
        report = tiny_fit.pipeline.mechanism.run_attempts(
            24, attempt_stream(1), batch_size=4
        )
        check_theorem1_bounds(report, tiny_fit.params, num_seed_records=len(tiny_fit.seeds))

    def test_inconsistent_deterministic_decision_detected(self, tiny_fit):
        params = tiny_fit.params
        report = self._report(
            tiny_fit.seeds.schema,
            passed=True,
            plausible_seeds=params.k - 1,  # below k yet "passed"
            partition_indices=0,
            thresholds=float(params.k),
            records_checked=10,
        )
        with pytest.raises(InvariantViolation, match="contradicts"):
            check_theorem1_bounds(report, params)

    def test_released_without_a_bucket_detected(self, tiny_fit):
        params = tiny_fit.params
        report = self._report(
            tiny_fit.seeds.schema,
            passed=False,
            plausible_seeds=0,
            partition_indices=-1,  # the seed could not have generated y
            thresholds=float(params.k),
            records_checked=10,
        )
        with pytest.raises(InvariantViolation, match="bucket"):
            check_theorem1_bounds(report, params)

    def test_overscanning_detected(self, tiny_fit):
        params = tiny_fit.params
        report = self._report(
            tiny_fit.seeds.schema,
            passed=False,
            plausible_seeds=1,
            partition_indices=0,
            thresholds=float(params.k),
            records_checked=10_000,
        )
        with pytest.raises(InvariantViolation, match="scanned"):
            check_theorem1_bounds(report, params, num_seed_records=len(tiny_fit.seeds))

    def test_randomized_threshold_semantics(self):
        fit = get_scenario("toy-correlated").fit(seed=0)
        report = fit.pipeline.mechanism.run_attempts(
            24, attempt_stream(2), batch_size=8
        )
        check_theorem1_bounds(report, fit.params, num_seed_records=len(fit.seeds))


class TestStructureEquivalenceChecker:
    def test_non_dp_equivalence_passes(self):
        dataset = get_scenario("toy-correlated").dataset(seed=0)
        structure = check_structure_engine_equivalence(dataset)
        assert structure.num_attributes == 4

    def test_dp_equivalence_passes(self):
        dataset = get_scenario("toy-correlated").dataset(seed=0)
        structure = check_structure_engine_equivalence(
            dataset, seed=7, epsilon_entropy=0.5, epsilon_count=0.1
        )
        assert structure.num_attributes == 4

    def test_dp_requires_seed(self):
        dataset = get_scenario("tiny-n").dataset(seed=0)
        with pytest.raises(ValueError, match="seed"):
            check_structure_engine_equivalence(dataset, epsilon_entropy=0.5)

    def test_perturbed_entropies_detected(self, monkeypatch):
        from repro.generative.structure import StructureLearner

        dataset = get_scenario("toy-correlated").dataset(seed=0)
        original = StructureLearner._entropy_tables_vectorized

        def nudged(self, data):
            h_raw, h_bkt, h_raw_bkt, h_bkt_bkt = original(self, data)
            return h_raw + 1e-9, h_bkt, h_raw_bkt, h_bkt_bkt

        monkeypatch.setattr(StructureLearner, "_entropy_tables_vectorized", nudged)
        with pytest.raises(InvariantViolation, match="bit-identical"):
            check_structure_engine_equivalence(dataset)
