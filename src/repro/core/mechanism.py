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

The mechanism has one proposal path: :meth:`propose_batch` pushes a block of
seeds through the model's vectorized generation and probability interfaces,
and :meth:`run_attempts` loops over such blocks, optionally stopping at the
n-th release — the hot path for producing millions of records (Section 5,
Figure 5).  Randomness comes from a counter-addressed
:class:`~repro.core.stream.AttemptStream`: attempt i reads only its own
words, so its seed, candidate and decision are a pure function of (base
seed, i), and batch sizes are a speed knob that cannot change a row.
Attempts come back as column blocks
(:class:`~repro.core.results.SynthesisReport`).  The one-candidate-at-a-time
transcription of the paper's loop survives only as a test oracle,
:func:`repro.testing.invariants.reference_attempt`.
"""

from __future__ import annotations

import numpy as np

from repro.core.results import SynthesisReport
from repro.core.stream import AttemptStream
from repro.datasets.dataset import Dataset
from repro.obs.profile import phase as obs_phase
from repro.generative.base import GenerativeModel
from repro.privacy.plausible_deniability import (
    PlausibleDeniabilityParams,
    make_privacy_test,
    partition_numbers,
)

__all__ = ["SynthesisMechanism"]


def _attempts_for(needed: int, report: SynthesisReport) -> int:
    """Attempts likely to hold ``needed`` more releases, given ``report`` so far.

    Twice ``needed`` before anything passed (doubling while nothing does),
    then ``needed`` over the pass rate seen so far.
    """
    if not report.num_released:
        return 2 * max(needed, report.num_attempts)
    return -(-needed * report.num_attempts // report.num_released)


class _SeedMatchIndex:
    """Fixed-prefix key multiplicities of the seed dataset, one table per ω.

    Because Pr{y = M_ω(d)} factorizes as ``match(d, y) * q_ω(y)`` — a
    fixed-attribute agreement indicator times a per-candidate factor — the
    plausible-seed count only needs, per candidate, the *multiplicity* of its
    fixed-prefix key among the seed records.  Each ω keeps the seed set's
    distinct keys in ascending order with their multiplicities, so one
    ``searchsorted`` per ω and batch answers every candidate, making the per-
    candidate cost of the privacy test (nearly) independent of the seed-set
    size instead of linear in it.
    """

    def __init__(self, model, seed_data: np.ndarray):
        # Ascending ω (longest fixed prefix first), multiplicity preserved so
        # a non-uniform ω tuple keeps its weighting in the suffix sums.
        self.omegas: tuple[int, ...] = tuple(sorted(model.omegas))
        num_attributes = len(model.schema)
        #: Rows of ``candidate_factor_suffix_products`` holding q_ω, per ω.
        self.factor_rows = np.array([num_attributes - omega for omega in self.omegas])
        self.keys: dict[int, np.ndarray] = {}
        self.counts: dict[int, np.ndarray] = {}
        self.supported = True
        for omega in sorted(set(self.omegas)):
            keys = model.fixed_prefix_keys(seed_data, omega)
            if keys is None:
                self.supported = False
                return
            distinct, counts = np.unique(keys, return_counts=True)
            # Keys stay below 2**62, so a trailing int64-max sentinel with
            # multiplicity 0 is where every key above the largest seed key
            # lands, and the lookup needs no bounds check.
            self.keys[omega] = np.append(distinct, np.iinfo(np.int64).max)
            self.counts[omega] = np.append(counts, 0)

    def multiplicities(self, omega: int, keys: np.ndarray) -> np.ndarray:
        """Number of seed records whose ω fixed-prefix key equals each of ``keys``."""
        sorted_keys = self.keys[omega]
        positions = np.searchsorted(sorted_keys, keys)
        return np.where(sorted_keys[positions] == keys, self.counts[omega][positions], 0)


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
        """Build the prefix-key match index eagerly.

        The index is otherwise built lazily on the first batched proposal;
        long-lived engine workers call this once at startup so the one-off
        sort cost never lands inside a timed or dispatched chunk (the model's
        own lookup tables are derived when it is constructed or unpickled).
        A no-op for models without the match-structure interface.
        """
        if self._match_index is None and (
            hasattr(self._model, "fixed_prefix_keys")
            and hasattr(self._model, "candidate_factor_suffix_products")
            and hasattr(self._model, "omegas")
        ):
            self._match_index = _SeedMatchIndex(self._model, self._seeds.data)
        return self

    # ------------------------------------------------------------------ #
    # Proposals
    # ------------------------------------------------------------------ #
    def propose_batch(
        self, batch_size: int, stream: AttemptStream
    ) -> SynthesisReport:
        """Run steps 1-3 of Mechanism 1 for the next ``batch_size`` attempts of ``stream``.

        Seeds are drawn, candidates generated and the privacy test evaluated
        through the model's vectorized batch interfaces
        (``generate_batch`` /
        :meth:`~repro.generative.base.GenerativeModel.batch_probability_matrix`),
        so the per-candidate Python overhead is amortized over the batch.
        Every draw of an attempt comes from its own words of the stream, so
        each candidate and release decision is the one the paper's
        one-candidate loop would make for that attempt index, whatever the
        batch.  The kernels' arrays become the block's columns as they are.
        """
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        with obs_phase("sample"):
            words = stream.take(batch_size, len(self._seeds.schema))
            seed_indices = words.seed_indices(len(self._seeds))
            candidates = self._model.generate_batch(
                np.take(self._seeds.data, seed_indices, axis=0), words
            )
        with obs_phase("privacy_test"):
            fast_counts = self._fast_batch_counts(seed_indices, candidates)
            if fast_counts is not None:
                counts, partitions, checked, saturated = fast_counts
                tested = self._test.results_from_counts(
                    counts, partitions, checked, words, saturated=saturated
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
                    seed_probabilities, probability_matrix, words
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
        suffix_products = self._model.candidate_factor_suffix_products(candidates)
        factors = suffix_products[index.factor_rows]
        # class_probability[j] = Pr of a record whose longest matching prefix
        # is fixed(ω_j): it matches every looser prefix too, so its ω-averaged
        # probability is the suffix sum of the candidate factors.
        class_probabilities = np.cumsum(factors[::-1], axis=0)[::-1] / num_omegas

        keys = [self._model.fixed_prefix_keys(candidates, omega) for omega in omegas]
        cumulative_matches = np.array(
            [index.multiplicities(omega, key) for omega, key in zip(omegas, keys)]
        )
        # Prefix nesting makes the cumulative match counts monotone in j;
        # differencing yields the exact per-class counts.
        class_counts = np.diff(cumulative_matches, axis=0, prepend=0)

        class_partitions = partition_numbers(class_probabilities, params.gamma)
        # The true seed always matches the prefix of its drawn ω, so its class
        # is the first matching one.  With one distinct ω that is class 0: the
        # candidate copied the seed's fixed prefix.
        if len(index.keys) == 1:
            seed_partitions = class_partitions[0]
        else:
            seed_rows = np.take(self._seeds.data, seed_indices, axis=0)
            seed_matches = np.array(
                [
                    self._model.fixed_prefix_keys(seed_rows, omega) == key
                    for omega, key in zip(omegas, keys)
                ]
            )
            seed_class = np.argmax(seed_matches, axis=0)
            seed_partitions = class_partitions[seed_class, np.arange(num_candidates)]
        counts = np.sum(
            class_counts * (class_partitions == seed_partitions[None, :]), axis=0
        )
        checked = np.full(num_candidates, len(self._seeds), dtype=np.int64)
        saturated = np.zeros(num_candidates, dtype=bool)
        return counts, seed_partitions, checked, saturated

    def run_attempts(
        self,
        num_attempts: int,
        stream: AttemptStream,
        batch_size: int = 2048,
        stop_after_released: int | None = None,
    ) -> SynthesisReport:
        """Propose the next ``num_attempts`` attempts of ``stream``, in batches.

        This is Mechanism 1's one proposal loop: every batch, including a
        batch of one, goes through :meth:`propose_batch`.  With
        ``stop_after_released=n`` the report is the first n passing attempts
        of the range and the attempts before them: the loop stops after the
        batch that holds the n-th release and cuts that batch there
        (:meth:`~repro.core.results.SynthesisReport.until_released`), so the
        released count never overshoots — every release costs privacy budget.
        Because attempts are counter-addressed, batch boundaries cannot move
        that cut, so each batch is sized for speed from what is still needed:
        twice the missing releases at first, then the missing releases over
        the pass rate seen so far, never more than ``batch_size``.  The
        report may hold fewer than ``n`` releases when the attempt budget
        runs out first.
        """
        if num_attempts < 0:
            raise ValueError("num_attempts must be non-negative")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if stop_after_released is not None and stop_after_released < 0:
            raise ValueError("stop_after_released must be non-negative")
        report = SynthesisReport(self._seeds.schema)
        remaining = num_attempts
        while remaining > 0 and (
            stop_after_released is None or report.num_released < stop_after_released
        ):
            size = min(batch_size, remaining)
            if stop_after_released is not None:
                size = min(size, _attempts_for(stop_after_released - report.num_released, report))
            block = self.propose_batch(size, stream)
            if stop_after_released is not None:
                block = block.until_released(stop_after_released - report.num_released)
            report.record(block)
            remaining -= size
        return report
