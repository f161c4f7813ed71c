"""Mechanism 1: seed sampling, candidate generation and the privacy test.

Given a generative model M, a seed dataset D and privacy parameters (k, γ)
(plus ε0 for the randomized test), the mechanism:

1. samples a seed record d uniformly at random from D,
2. generates a candidate synthetic y = M(d),
3. runs the privacy test on (M, D, d, y, k, γ),
4. releases y iff the test passes (otherwise there is no output).

The test counts *plausible seeds*: records of D whose probability of
generating y falls into the same geometric bucket as the true seed's.  The
mechanism asks the model for those probabilities via
``batch_seed_probabilities`` so that models can vectorize the computation.

Besides the one-candidate-at-a-time reference loop (:meth:`propose`), the
mechanism offers a batched path (:meth:`propose_batch` /
:meth:`run_attempts_batched`) that pushes whole blocks of seeds through the
model's vectorized generation and probability interfaces — the hot path for
producing millions of records (Section 5, Figure 5).  Both paths return
attempts as column blocks (:class:`~repro.core.results.SynthesisReport`).
"""

from __future__ import annotations

import numpy as np

from repro.core.results import SynthesisReport
from repro.datasets.dataset import Dataset
from repro.obs.profile import phase as obs_phase
from repro.generative.base import GenerativeModel
from repro.privacy.plausible_deniability import (
    PlausibleDeniabilityParams,
    make_privacy_test,
    partition_numbers,
)

__all__ = ["SynthesisMechanism"]


class _SeedMatchIndex:
    """Sorted fixed-prefix keys of the seed dataset, one array per ω.

    Because Pr{y = M_ω(d)} factorizes as ``match(d, y) * q_ω(y)`` — a
    fixed-attribute agreement indicator times a per-candidate factor — the
    plausible-seed count only needs, per candidate, the *multiplicity* of its
    fixed-prefix key among the seed records.  Sorting the seed keys once turns
    every batch's counting into ``searchsorted`` queries, making the per-
    candidate cost of the privacy test (nearly) independent of the seed-set
    size instead of linear in it.
    """

    def __init__(self, model, seed_data: np.ndarray):
        # Ascending ω (longest fixed prefix first), multiplicity preserved so
        # a non-uniform ω tuple keeps its weighting in the suffix sums.
        self.omegas: tuple[int, ...] = tuple(sorted(model.omegas))
        self.sorted_keys: dict[int, np.ndarray] = {}
        self.supported = True
        for omega in sorted(set(self.omegas)):
            keys = model.fixed_prefix_keys(seed_data, omega)
            if keys is None:
                self.supported = False
                return
            self.sorted_keys[omega] = np.sort(keys)


class SynthesisMechanism:
    """Mechanism 1 of the paper, parameterized by a model and a privacy test."""

    def __init__(
        self,
        model: GenerativeModel,
        seed_dataset: Dataset,
        params: PlausibleDeniabilityParams,
    ):
        if seed_dataset.schema != model.schema:
            raise ValueError("the seed dataset's schema must match the model's schema")
        if len(seed_dataset) < params.k:
            raise ValueError(
                f"the seed dataset must hold at least k={params.k} records, "
                f"got {len(seed_dataset)}"
            )
        self._model = model
        self._seeds = seed_dataset
        self._params = params
        self._test = make_privacy_test(params)
        self._match_index: _SeedMatchIndex | None = None

    @property
    def model(self) -> GenerativeModel:
        """The generative model M."""
        return self._model

    @property
    def seed_dataset(self) -> Dataset:
        """The seed dataset DS."""
        return self._seeds

    @property
    def params(self) -> PlausibleDeniabilityParams:
        """The plausible-deniability parameters."""
        return self._params

    def prepare(self) -> "SynthesisMechanism":
        """Build the sorted prefix-key match index eagerly.

        The index is otherwise built lazily on the first batched proposal;
        long-lived engine workers call this once at startup so the one-off
        sort cost never lands inside a timed or dispatched chunk.  A no-op
        for models without the match-structure interface.
        """
        if self._match_index is None and (
            hasattr(self._model, "fixed_prefix_keys")
            and hasattr(self._model, "candidate_factor_suffix_products")
            and hasattr(self._model, "omegas")
        ):
            self._match_index = _SeedMatchIndex(self._model, self._seeds.data)
        return self

    # ------------------------------------------------------------------ #
    # Single-candidate operation
    # ------------------------------------------------------------------ #
    def propose(self, rng: np.random.Generator) -> SynthesisReport:
        """Run steps 1-3 of Mechanism 1 once; the attempt as a 1-row block."""
        seed_index = int(rng.integers(len(self._seeds)))
        seed = self._seeds.record(seed_index)
        candidate = self._model.generate(seed, rng)
        return self.evaluate_candidate(seed_index, candidate, rng)

    def evaluate_candidate(
        self,
        seed_index: int,
        candidate: np.ndarray,
        rng: np.random.Generator,
    ) -> SynthesisReport:
        """Run the privacy test for an externally generated candidate (1-row block)."""
        seed = self._seeds.record(seed_index)
        seed_probability = self._model.seed_probability(seed, candidate)
        dataset_probabilities = self._model.batch_seed_probabilities(
            self._seeds.data, candidate
        )
        result = self._test(seed_probability, dataset_probabilities, rng)
        return SynthesisReport(
            self._seeds.schema,
            {
                "seed_indices": [seed_index],
                "candidates": [candidate],
                "passed": [result.passed],
                "plausible_seeds": [result.plausible_seeds],
                "partition_indices": [result.partition_index],
                "thresholds": [result.threshold],
                "records_checked": [result.records_checked],
                "count_saturated": [result.count_saturated],
            },
        )

    # ------------------------------------------------------------------ #
    # Batched operation
    # ------------------------------------------------------------------ #
    def propose_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> SynthesisReport:
        """Run steps 1-3 of Mechanism 1 for a whole block of candidates at once.

        Seeds are drawn, candidates generated and the privacy test evaluated
        through the model's vectorized batch interfaces
        (:meth:`~repro.generative.base.GenerativeModel.generate_batch` /
        :meth:`~repro.generative.base.GenerativeModel.batch_probability_matrix`),
        so the per-candidate Python overhead of :meth:`propose` is amortized
        over the batch.  Each candidate's release decision is still
        independent, exactly as in the sequential loop.  The kernels' arrays
        become the block's columns as they are.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        with obs_phase("sample"):
            seed_indices = rng.integers(len(self._seeds), size=batch_size)
            candidates = self._model.generate_batch(
                self._seeds.data[seed_indices], rng
            )
        with obs_phase("privacy_test"):
            fast_counts = self._fast_batch_counts(seed_indices, candidates)
            if fast_counts is not None:
                counts, partitions, checked, saturated = fast_counts
                tested = self._test.results_from_counts(
                    counts, partitions, checked, rng, saturated=saturated
                )
            else:
                probability_matrix = self._model.batch_probability_matrix(
                    self._seeds.data, candidates
                )
                # The true seed is a row of the seed dataset, so its
                # generation probability is already a column of the matrix.
                seed_probabilities = probability_matrix[
                    np.arange(batch_size), seed_indices
                ]
                tested = self._test.run_batch(
                    seed_probabilities, probability_matrix, rng
                )
        return SynthesisReport(
            self._seeds.schema,
            {"seed_indices": seed_indices, "candidates": candidates, **tested},
        )

    def _fast_batch_counts(
        self, seed_indices: np.ndarray, candidates: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None:
        """Exact plausible counts via the sorted prefix-key index, or ``None``.

        Every record with Pr{y = M(d)} > 0 agrees with the candidate on some
        fixed prefix of the re-sampling order; nesting of the prefixes across
        ω means a record's probability is determined by its *longest* matching
        prefix (its class), so per-candidate bucket counts reduce to class
        counts — key-multiplicity differences — times a partition comparison
        on the handful of per-class probabilities.  Produces the same counts
        as the dense probability-matrix path without materializing it.

        Returns ``None`` when the fast path does not apply: early-termination
        knobs request subset scans, or the model does not expose the
        match-structure interface.
        """
        params = self._params
        if params.max_check_plausible is not None or params.max_plausible is not None:
            return None
        if not (
            hasattr(self._model, "fixed_prefix_keys")
            and hasattr(self._model, "candidate_factor_suffix_products")
            and hasattr(self._model, "omegas")
        ):
            return None
        if self._match_index is None:
            self._match_index = _SeedMatchIndex(self._model, self._seeds.data)
        index = self._match_index
        if not index.supported:
            return None

        omegas = index.omegas
        num_omegas = len(omegas)
        num_candidates = candidates.shape[0]
        num_attributes = len(self._seeds.schema)
        suffix_products = self._model.candidate_factor_suffix_products(candidates)
        factors = suffix_products[[num_attributes - omega for omega in omegas]]
        # class_probability[j] = Pr of a record whose longest matching prefix
        # is fixed(ω_j): it matches every looser prefix too, so its ω-averaged
        # probability is the suffix sum of the candidate factors.
        class_probabilities = np.cumsum(factors[::-1], axis=0)[::-1] / num_omegas

        seed_rows = self._seeds.data[seed_indices]
        cumulative_matches = np.empty((num_omegas, num_candidates), dtype=np.int64)
        seed_matches = np.empty((num_omegas, num_candidates), dtype=bool)
        for j, omega in enumerate(omegas):
            keys = self._model.fixed_prefix_keys(candidates, omega)
            sorted_keys = index.sorted_keys[omega]
            left = np.searchsorted(sorted_keys, keys, side="left")
            right = np.searchsorted(sorted_keys, keys, side="right")
            cumulative_matches[j] = right - left
            seed_matches[j] = self._model.fixed_prefix_keys(seed_rows, omega) == keys
        # Prefix nesting makes the cumulative match counts monotone in j;
        # differencing yields the exact per-class counts.
        class_counts = np.diff(cumulative_matches, axis=0, prepend=0)

        class_partitions = partition_numbers(class_probabilities, params.gamma)
        # The true seed always matches the prefix of its drawn ω, so its class
        # is the first matching one.
        seed_class = np.argmax(seed_matches, axis=0)
        seed_partitions = class_partitions[seed_class, np.arange(num_candidates)]
        counts = np.sum(
            class_counts * (class_partitions == seed_partitions[None, :]), axis=0
        )
        checked = np.full(num_candidates, len(self._seeds), dtype=np.int64)
        saturated = np.zeros(num_candidates, dtype=bool)
        return counts, seed_partitions, checked, saturated

    def run_attempts_batched(
        self,
        num_attempts: int,
        rng: np.random.Generator,
        batch_size: int = 256,
    ) -> SynthesisReport:
        """Propose exactly ``num_attempts`` candidates in vectorized batches."""
        if num_attempts < 0:
            raise ValueError("num_attempts must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        report = SynthesisReport(self._seeds.schema)
        remaining = num_attempts
        while remaining > 0:
            size = min(batch_size, remaining)
            report.record(self.propose_batch(size, rng))
            remaining -= size
        return report

    def generate(
        self,
        num_released: int,
        rng: np.random.Generator,
        max_attempts: int | None = None,
        batch_size: int | None = None,
    ) -> SynthesisReport:
        """Propose candidates until ``num_released`` records pass the test.

        ``max_attempts`` bounds the total number of proposals (default: 100
        attempts per requested record); the report may therefore contain fewer
        released records than requested when the privacy parameters are
        strict.  With ``batch_size`` set, candidates are proposed through the
        vectorized batch path; the final block is truncated at the Nth release
        exactly as in the reference loop (the unrecorded i.i.d. remainder of
        the final batch introduces no bias), so the released count never
        overshoots — every release costs privacy budget.
        """
        if num_released < 0:
            raise ValueError("num_released must be non-negative")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive when provided")
        limit = max_attempts if max_attempts is not None else 100 * max(1, num_released)
        report = SynthesisReport(self._seeds.schema)
        if batch_size is None or batch_size == 1:
            while report.num_released < num_released and report.num_attempts < limit:
                report.record(self.propose(rng))
            return report
        while report.num_released < num_released and report.num_attempts < limit:
            size = min(batch_size, limit - report.num_attempts)
            block = self.propose_batch(size, rng)
            report.record(block.until_released(num_released - report.num_released))
        return report

    def run_attempts(
        self,
        num_attempts: int,
        rng: np.random.Generator,
        batch_size: int | None = None,
    ) -> SynthesisReport:
        """Propose exactly ``num_attempts`` candidates (used for pass-rate studies).

        ``batch_size`` > 1 dispatches to :meth:`run_attempts_batched`; ``None``
        or 1 runs the single-record reference loop.
        """
        if num_attempts < 0:
            raise ValueError("num_attempts must be non-negative")
        if batch_size is not None and batch_size > 1:
            return self.run_attempts_batched(num_attempts, rng, batch_size)
        report = SynthesisReport(self._seeds.schema)
        for _ in range(num_attempts):
            report.record(self.propose(rng))
        return report
