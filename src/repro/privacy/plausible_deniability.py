"""Plausible deniability: Definition 1, Privacy Tests 1-2 and Theorem 1 algebra.

This is the heart of the paper.  A seed-based generative model M transforms an
input record d into a synthetic record y with probability Pr{y = M(d)}.  A
candidate synthetic y generated from seed d is *(k, γ)-plausibly deniable*
(Definition 1) with respect to dataset D if at least k - 1 other records of D
could have generated y with a probability within a factor γ of each other.

Both privacy tests work with *partition numbers*: given y, every record d with
Pr{y = M(d)} > 0 falls into the unique geometric bucket i >= 0 such that

    γ^-(i+1) < Pr{y = M(d)} <= γ^-i .

The deterministic test (Privacy Test 1) counts the records that share the
seed's bucket and passes iff the count is at least k.  The randomized test
(Privacy Test 2) perturbs k with Laplace(1/ε0) noise, which — by Theorem 1 —
makes the whole synthesis mechanism (ε, δ)-differentially private with

    ε = ε0 + ln(1 + γ / t),      δ = e^(-ε0 (k - t)),    for any 1 <= t < k .

The functions here are deliberately decoupled from any particular generative
model: they consume plain probability values / arrays.  The mechanism in
:mod:`repro.core.mechanism` wires them to a model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "PlausibleDeniabilityParams",
    "DeterministicPrivacyTest",
    "RandomizedPrivacyTest",
    "make_privacy_test",
    "partition_number",
    "partition_numbers",
    "plausible_seed_count",
    "batch_plausible_seed_counts",
    "satisfies_plausible_deniability",
    "theorem1_epsilon",
    "theorem1_delta",
    "theorem1_guarantee",
    "minimum_k_for_delta",
]

#: Partition index used for records that cannot generate the candidate at all.
_NO_PARTITION = -1

#: Relative tolerance used when a probability sits exactly on a bucket boundary.
_BOUNDARY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class PlausibleDeniabilityParams:
    """Privacy parameters of the plausible-deniability mechanism.

    Parameters
    ----------
    k:
        Minimum number of plausible seeds (including the true seed) required
        for a candidate synthetic to be releasable.  Larger k means a larger
        indistinguishability set.
    gamma:
        Width of the probability buckets; must be > 1.  The closer to 1 the
        stronger the indistinguishability between plausible seeds.
    epsilon0:
        Randomization parameter of Privacy Test 2.  ``None`` selects the
        deterministic Privacy Test 1 (plausible deniability only, no DP
        guarantee for the release decision itself).
    max_check_plausible:
        Examine at most this many candidate seed records when counting
        plausible seeds (performance knob of the paper's tool, Section 5).
    max_plausible:
        Stop counting as soon as this many plausible seeds have been found
        (second performance knob; must be >= k to be meaningful).
    """

    k: int
    gamma: float
    epsilon0: float | None = None
    max_check_plausible: int | None = None
    max_plausible: int | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be a positive integer")
        if self.gamma <= 1.0:
            raise ValueError("gamma must be strictly greater than 1")
        if self.epsilon0 is not None and self.epsilon0 <= 0:
            raise ValueError("epsilon0 must be positive when provided")
        if self.max_check_plausible is not None and self.max_check_plausible < 1:
            raise ValueError("max_check_plausible must be positive when provided")
        if self.max_plausible is not None and self.max_plausible < self.k:
            raise ValueError("max_plausible must be at least k to be meaningful")

    @property
    def is_randomized(self) -> bool:
        """Whether the randomized (differentially private) test is selected."""
        return self.epsilon0 is not None


# --------------------------------------------------------------------------- #
# Partition-number algebra
# --------------------------------------------------------------------------- #
def partition_number(probability: float, gamma: float) -> int:
    """Bucket index i >= 0 with γ^-(i+1) < probability <= γ^-i.

    Returns ``-1`` when the probability is zero (the record cannot have
    generated the candidate and therefore belongs to no partition).  The
    scalar path delegates to the vectorized one, so the two are bit-identical
    by construction.
    """
    if gamma <= 1.0:
        raise ValueError("gamma must be strictly greater than 1")
    if probability < 0.0 or probability > 1.0 + 1e-12:
        raise ValueError("probability must lie in [0, 1]")
    return int(
        partition_numbers(np.asarray([probability], dtype=np.float64), gamma)[0]
    )


def partition_numbers(probabilities: np.ndarray, gamma: float) -> np.ndarray:
    """Vectorized :func:`partition_number` over an array of probabilities.

    The boundary tolerance is *relative* to the log-space bucket index: a
    probability within ``index * _BOUNDARY_TOLERANCE`` of the exact edge
    ``gamma**-index`` snaps up into bucket ``index``.  An absolute tolerance
    would stop absorbing float error once the index grows past ~1/tolerance
    ulps (the error of ``-log(p)/log(gamma)`` scales with the index).
    Probabilities in ``[1.0, 1.0 + 1e-12]`` (the validation slack) land in
    bucket 0 explicitly instead of relying on a silent clamp.
    """
    if gamma <= 1.0:
        raise ValueError("gamma must be strictly greater than 1")
    probs = np.asarray(probabilities, dtype=np.float64)
    if probs.size and (probs.min() < 0.0 or probs.max() > 1.0 + 1e-12):
        raise ValueError("probabilities must lie in [0, 1]")
    result = np.full(probs.shape, _NO_PARTITION, dtype=np.int64)
    interior = (probs > 0.0) & (probs < 1.0)
    if np.any(interior):
        raw = -np.log(probs[interior]) / math.log(gamma)
        slack = _BOUNDARY_TOLERANCE * np.maximum(1.0, raw)
        result[interior] = np.floor(raw + slack).astype(np.int64)
    result[probs >= 1.0] = 0
    return result


def plausible_seed_count(
    seed_probability: float,
    dataset_probabilities: np.ndarray,
    gamma: float,
    max_check_plausible: int | None = None,
    max_plausible: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[int, int, int, bool]:
    """Count dataset records in the same probability bucket as the seed.

    Parameters
    ----------
    seed_probability:
        Pr{y = M(d)} for the true seed d.  Must be positive (the seed did
        generate the candidate).
    dataset_probabilities:
        Pr{y = M(da)} for every record da in D (including the seed itself).
    gamma:
        Bucket width.
    max_check_plausible, max_plausible:
        Early-termination knobs (Section 5); ``max_check_plausible`` scans a
        random record subset and ``max_plausible`` caps the reported count.
        These affect performance and the pass rate but never the privacy
        guarantee.
    rng:
        Randomness for the scanned subset: the ``max_check_plausible``
        records with the smallest ``rng.random(|D|)`` keys, the same subset
        :func:`batch_plausible_seed_counts` scans for a row whose
        ``scan_rng`` returns an identically seeded generator.  Required when
        early termination is requested: without a caller-supplied rng every
        candidate would scan the same fixed, biased record subset.

    Returns
    -------
    (plausible_count, partition_index, records_scanned, count_saturated)

    ``records_scanned`` is always the full scanned-subset size and
    ``count_saturated`` tells whether the count hit the ``max_plausible``
    cap — identical semantics to :func:`batch_plausible_seed_counts`, so the
    two paths agree field for field.
    """
    if seed_probability <= 0.0:
        raise ValueError("the seed must have positive probability of generating y")
    seed_partition = partition_number(seed_probability, gamma)
    probs = np.asarray(dataset_probabilities, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("dataset_probabilities must be a 1-D array")

    if max_check_plausible is None and max_plausible is None:
        partitions = partition_numbers(probs, gamma)
        count = int(np.sum(partitions == seed_partition))
        return count, seed_partition, probs.size, False

    if rng is None:
        raise ValueError(
            "early termination (max_check_plausible / max_plausible) requires an "
            "rng for the scan order; a fixed order would scan the same biased "
            "record subset for every candidate"
        )
    limit = probs.size if max_check_plausible is None else min(probs.size, max_check_plausible)
    if limit < probs.size:
        probs = probs[np.argpartition(rng.random(probs.size), limit)[:limit]]
    partitions = partition_numbers(probs, gamma)
    raw_count = int(np.sum(partitions == seed_partition))
    saturated = max_plausible is not None and raw_count >= max_plausible
    count = min(raw_count, max_plausible) if max_plausible is not None else raw_count
    return count, seed_partition, limit, saturated


def batch_plausible_seed_counts(
    seed_probabilities: np.ndarray,
    probability_matrix: np.ndarray,
    gamma: float,
    max_check_plausible: int | None = None,
    max_plausible: int | None = None,
    scan_rng: Callable[[int], np.random.Generator] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`plausible_seed_count` over a batch of candidates.

    Parameters
    ----------
    seed_probabilities:
        Pr{y_c = M(d_c)} for each candidate's true seed, shape (candidates,).
        Every entry must be positive.
    probability_matrix:
        Pr{y_c = M(d_s)} for every (candidate, record) pair, shape
        (candidates, records) — one :func:`plausible_seed_count` input row per
        candidate.
    gamma:
        Bucket width.
    max_check_plausible, max_plausible:
        Early-termination knobs.  Each candidate examines its own independent
        uniformly-random record subset; counts are capped at
        ``max_plausible``.  Requires ``scan_rng``.
    scan_rng:
        ``scan_rng(c)`` is candidate row c's own generator; the row scans
        exactly the subset :func:`plausible_seed_count` scans with it, so a
        candidate's count never depends on the rows batched with it.

    Returns
    -------
    (counts, partition_indices, records_scanned, count_saturated), each of
    shape (candidates,).  ``records_scanned`` is the scanned-subset size and
    ``count_saturated`` marks counts capped at ``max_plausible`` — the same
    semantics as the sequential scan, so the audit trail of either path can
    be compared field for field.
    """
    seed_probs = np.asarray(seed_probabilities, dtype=np.float64)
    matrix = np.asarray(probability_matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("probability_matrix must be a 2-D (candidates x records) array")
    if seed_probs.shape != (matrix.shape[0],):
        raise ValueError("seed_probabilities must hold one entry per matrix row")
    if seed_probs.size and seed_probs.min() <= 0.0:
        raise ValueError("every seed must have positive probability of generating y")
    seed_partitions = partition_numbers(seed_probs, gamma)
    num_candidates, num_records = matrix.shape

    if max_check_plausible is None and max_plausible is None:
        partitions = partition_numbers(matrix, gamma)
        counts = np.sum(partitions == seed_partitions[:, None], axis=1)
        checked = np.full(num_candidates, num_records, dtype=np.int64)
        saturated = np.zeros(num_candidates, dtype=bool)
        return counts.astype(np.int64), seed_partitions, checked, saturated

    if scan_rng is None:
        raise ValueError(
            "early termination (max_check_plausible / max_plausible) requires an "
            "rng for the scan order; a fixed order would scan the same biased "
            "record subset for every candidate"
        )
    limit = (
        num_records
        if max_check_plausible is None
        else min(num_records, max_check_plausible)
    )
    if limit < num_records:
        # One independent without-replacement subset per candidate; a partial
        # partition beats a full argsort since only membership matters.
        keys = np.stack([scan_rng(row).random(num_records) for row in range(num_candidates)])
        columns = np.argpartition(keys, limit, axis=1)[:, :limit]
        scanned = np.take_along_axis(matrix, columns, axis=1)
    else:
        scanned = matrix
    partitions = partition_numbers(scanned, gamma)
    counts = np.sum(partitions == seed_partitions[:, None], axis=1).astype(np.int64)
    if max_plausible is not None:
        saturated = counts >= max_plausible
        counts = np.minimum(counts, max_plausible)
    else:
        saturated = np.zeros(num_candidates, dtype=bool)
    checked = np.full(num_candidates, limit, dtype=np.int64)
    return counts, seed_partitions, checked, saturated


def satisfies_plausible_deniability(
    seed_probability: float,
    dataset_probabilities: np.ndarray,
    k: int,
    gamma: float,
) -> bool:
    """Direct check of Definition 1 via the bucket-counting criterion.

    The bucket criterion of Privacy Test 1 is sufficient for Definition 1:
    any k records in one geometric bucket pairwise satisfy
    γ^-1 <= p_i / p_j <= γ.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    count, _, _, _ = plausible_seed_count(seed_probability, dataset_probabilities, gamma)
    return count >= k


# --------------------------------------------------------------------------- #
# Privacy tests
# --------------------------------------------------------------------------- #
def _test_columns(counts, partitions, checked, saturated, thresholds) -> dict[str, np.ndarray]:
    """A batch's outcome as the test columns of a report (``repro.core.results.COLUMNS``)."""
    counts = np.asarray(counts)
    if saturated is None:
        saturated = np.zeros(counts.shape, dtype=bool)
    return {
        "passed": counts >= thresholds,
        "plausible_seeds": counts,
        "partition_indices": np.asarray(partitions),
        "thresholds": thresholds,
        "records_checked": np.asarray(checked),
        "count_saturated": np.asarray(saturated),
    }


class DeterministicPrivacyTest:
    """Privacy Test 1: pass iff the seed's bucket holds at least k records."""

    def __init__(self, params: PlausibleDeniabilityParams):
        self._params = params

    @property
    def params(self) -> PlausibleDeniabilityParams:
        """The privacy parameters this test enforces."""
        return self._params

    def run_batch(
        self,
        seed_probabilities: np.ndarray,
        probability_matrix: np.ndarray,
        words=None,
    ) -> dict[str, np.ndarray]:
        """Run the test on a whole batch of candidates in one vectorized pass.

        ``words`` (:class:`~repro.core.stream.AttemptWords`, one attempt per
        candidate) supplies the per-attempt scan generators the
        early-termination knobs need.
        """
        params = self._params
        counts, partitions, checked, saturated = batch_plausible_seed_counts(
            seed_probabilities,
            probability_matrix,
            params.gamma,
            params.max_check_plausible,
            params.max_plausible,
            None if words is None else words.scan_rng,
        )
        return self.results_from_counts(counts, partitions, checked, words, saturated=saturated)

    def results_from_counts(
        self,
        counts: np.ndarray,
        partitions: np.ndarray,
        checked: np.ndarray,
        words=None,
        *,
        saturated: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """The test columns of a block from already-computed plausible counts."""
        thresholds = np.full(len(counts), float(self._params.k))
        return _test_columns(counts, partitions, checked, saturated, thresholds)


class RandomizedPrivacyTest:
    """Privacy Test 2: like Test 1 but with a Laplace-noised threshold.

    With threshold noise Lap(1/ε0) the overall mechanism satisfies
    (ε, δ)-differential privacy per Theorem 1.
    """

    def __init__(self, params: PlausibleDeniabilityParams):
        if params.epsilon0 is None:
            raise ValueError("RandomizedPrivacyTest requires params.epsilon0")
        self._params = params

    @property
    def params(self) -> PlausibleDeniabilityParams:
        """The privacy parameters this test enforces."""
        return self._params

    def run_batch(
        self,
        seed_probabilities: np.ndarray,
        probability_matrix: np.ndarray,
        words=None,
    ) -> dict[str, np.ndarray]:
        """Vectorized Privacy Test 2: one Laplace threshold per candidate.

        ``words`` (:class:`~repro.core.stream.AttemptWords`, one attempt per
        candidate) supplies each attempt's threshold noise and scan generator.
        """
        params = self._params
        if words is None:
            raise ValueError("the batched randomized test requires the attempts' words")
        counts, partitions, checked, saturated = batch_plausible_seed_counts(
            seed_probabilities,
            probability_matrix,
            params.gamma,
            params.max_check_plausible,
            params.max_plausible,
            words.scan_rng,
        )
        return self.results_from_counts(counts, partitions, checked, words, saturated=saturated)

    def results_from_counts(
        self,
        counts: np.ndarray,
        partitions: np.ndarray,
        checked: np.ndarray,
        words=None,
        *,
        saturated: np.ndarray | None = None,
    ) -> dict[str, np.ndarray]:
        """The test columns of a block, with each attempt's own Laplace threshold."""
        params = self._params
        if words is None:
            raise ValueError("the batched randomized test requires the attempts' words")
        if len(words) != len(counts):
            raise ValueError("words must hold one attempt per count")
        assert params.epsilon0 is not None
        # Accounted per Theorem 1 at release time.  # repro: allow[privacy-unrecorded-noise]
        thresholds = params.k + words.laplace(1.0 / params.epsilon0)
        return _test_columns(counts, partitions, checked, saturated, thresholds)


def make_privacy_test(
    params: PlausibleDeniabilityParams,
) -> DeterministicPrivacyTest | RandomizedPrivacyTest:
    """Build the privacy test selected by the parameters."""
    if params.is_randomized:
        return RandomizedPrivacyTest(params)
    return DeterministicPrivacyTest(params)


# --------------------------------------------------------------------------- #
# Theorem 1 algebra
# --------------------------------------------------------------------------- #
def theorem1_epsilon(epsilon0: float, gamma: float, t: int) -> float:
    """ε of Theorem 1: ε = ε0 + ln(1 + γ / t)."""
    if epsilon0 <= 0:
        raise ValueError("epsilon0 must be positive")
    if gamma <= 1.0:
        raise ValueError("gamma must be strictly greater than 1")
    if t < 1:
        raise ValueError("t must be a positive integer")
    return epsilon0 + math.log(1.0 + gamma / t)


def theorem1_delta(epsilon0: float, k: int, t: int) -> float:
    """δ of Theorem 1: δ = e^(-ε0 (k - t)); requires 1 <= t < k."""
    if epsilon0 <= 0:
        raise ValueError("epsilon0 must be positive")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if not 1 <= t < k:
        raise ValueError("t must satisfy 1 <= t < k")
    return math.exp(-epsilon0 * (k - t))


def theorem1_guarantee(
    k: int,
    gamma: float,
    epsilon0: float,
    t: int | None = None,
) -> tuple[float, float, int]:
    """The (ε, δ) guarantee of Mechanism 1 with the randomized test.

    When ``t`` is omitted the trade-off parameter is chosen to minimise ε + lnδ
    pressure in a simple way: every admissible t is evaluated and the one with
    the smallest ε subject to δ <= 1/k² is preferred, falling back to the
    smallest δ when none qualifies.

    Returns ``(epsilon, delta, t)``.
    """
    if k < 2:
        raise ValueError("k must be at least 2 so that some 1 <= t < k exists")
    candidates = range(1, k) if t is None else [t]
    best: tuple[float, float, int] | None = None
    fallback: tuple[float, float, int] | None = None
    delta_target = 1.0 / (k * k)
    for candidate in candidates:
        epsilon = theorem1_epsilon(epsilon0, gamma, candidate)
        delta = theorem1_delta(epsilon0, k, candidate)
        entry = (epsilon, delta, candidate)
        if delta <= delta_target and (best is None or epsilon < best[0]):
            best = entry
        if fallback is None or delta < fallback[1]:
            fallback = entry
    chosen = best if best is not None else fallback
    assert chosen is not None
    return chosen


def minimum_k_for_delta(
    delta_target: float,
    epsilon0: float,
    t: int,
) -> int:
    """Smallest k such that δ = e^(-ε0 (k - t)) <= delta_target.

    The paper notes that to get δ <= n^-c one may set k >= t + (c/ε0) ln n;
    this helper solves the inequality exactly.
    """
    if not 0.0 < delta_target < 1.0:
        raise ValueError("delta_target must lie strictly between 0 and 1")
    if epsilon0 <= 0:
        raise ValueError("epsilon0 must be positive")
    if t < 1:
        raise ValueError("t must be a positive integer")
    k = t + math.log(1.0 / delta_target) / epsilon0
    return int(math.ceil(k))
