"""Tests for the Theorem 1 parameter algebra and an empirical DP check.

The empirical check is the most valuable test in this file: it builds a tiny
seed-dependent generative model, runs Mechanism 1 with the randomized privacy
test on two neighbouring datasets, and verifies that the observed output
probabilities respect the (ε, δ) bound Theorem 1 promises.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stream import attempt_stream
from repro.privacy.plausible_deniability import (
    PlausibleDeniabilityParams,
    RandomizedPrivacyTest,
    minimum_k_for_delta,
    theorem1_delta,
    theorem1_epsilon,
    theorem1_guarantee,
)


class TestFormulas:
    def test_epsilon_formula(self):
        assert theorem1_epsilon(1.0, 4.0, t=4) == pytest.approx(1.0 + math.log(2.0))

    def test_delta_formula(self):
        assert theorem1_delta(1.0, k=50, t=10) == pytest.approx(math.exp(-40.0))

    def test_epsilon_decreases_with_t(self):
        values = [theorem1_epsilon(1.0, 4.0, t) for t in (1, 2, 5, 10, 40)]
        assert values == sorted(values, reverse=True)

    def test_delta_increases_with_t(self):
        values = [theorem1_delta(1.0, 50, t) for t in (1, 10, 25, 49)]
        assert values == sorted(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            theorem1_epsilon(0.0, 4.0, 1)
        with pytest.raises(ValueError):
            theorem1_epsilon(1.0, 1.0, 1)
        with pytest.raises(ValueError):
            theorem1_epsilon(1.0, 4.0, 0)
        with pytest.raises(ValueError):
            theorem1_delta(1.0, 10, 10)  # t must be < k
        with pytest.raises(ValueError):
            theorem1_delta(1.0, 10, 0)

    def test_guarantee_chooses_admissible_t(self):
        epsilon, delta, t = theorem1_guarantee(k=50, gamma=4.0, epsilon0=1.0)
        assert 1 <= t < 50
        assert epsilon == pytest.approx(theorem1_epsilon(1.0, 4.0, t))
        assert delta == pytest.approx(theorem1_delta(1.0, 50, t))
        assert delta <= 1.0 / 50**2

    def test_guarantee_with_fixed_t(self):
        epsilon, delta, t = theorem1_guarantee(k=50, gamma=4.0, epsilon0=1.0, t=5)
        assert t == 5
        assert epsilon == pytest.approx(theorem1_epsilon(1.0, 4.0, 5))

    def test_guarantee_requires_k_at_least_two(self):
        with pytest.raises(ValueError):
            theorem1_guarantee(k=1, gamma=4.0, epsilon0=1.0)

    def test_minimum_k_for_delta(self):
        k = minimum_k_for_delta(1e-9, epsilon0=1.0, t=10)
        assert theorem1_delta(1.0, k, 10) <= 1e-9
        assert theorem1_delta(1.0, k - 1, 10) > 1e-9

    def test_minimum_k_validation(self):
        with pytest.raises(ValueError):
            minimum_k_for_delta(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            minimum_k_for_delta(1e-3, 0.0, 1)
        with pytest.raises(ValueError):
            minimum_k_for_delta(1e-3, 1.0, 0)

    @given(
        st.integers(min_value=2, max_value=300),
        st.floats(min_value=1.1, max_value=16.0),
        st.floats(min_value=0.05, max_value=3.0),
    )
    @settings(max_examples=60)
    def test_guarantee_always_valid(self, k, gamma, epsilon0):
        epsilon, delta, t = theorem1_guarantee(k, gamma, epsilon0)
        assert epsilon > 0
        assert 0 < delta < 1
        assert 1 <= t < k


class _IndicatorModel:
    """A minimal seed-dependent model over a tiny discrete universe.

    Each record is an integer in {0..3}; the model outputs the seed itself
    with probability 0.7 and a uniformly random other value with probability
    0.3, so Pr{y = M(d)} is 0.7 when y == d and 0.1 otherwise.
    """

    def probability(self, seeds: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """Pr{candidate = M(seed)}, broadcast over both arrays."""
        return np.where(candidates == seeds, 0.7, 0.1)

    def generate(self, seeds: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """One output per seed, inverting the model's law at each uniform."""
        other = np.minimum(((uniforms - 0.7) / 0.1).astype(np.int64), 2)
        return np.where(uniforms < 0.7, seeds, other + (other >= seeds))


def _release_probability(dataset, candidate, params, num_trials, seed):
    """Monte-Carlo estimate of Pr{F(D) = candidate} for the indicator model.

    Trial i is attempt i of the stream keyed by ``seed``, with one attribute:
    its seed index, its generation uniform and its threshold noise are that
    attempt's own words, and the randomized test reads the noise through
    ``run_batch``.
    """
    model = _IndicatorModel()
    dataset = np.asarray(dataset)
    words = attempt_stream(seed).take(num_trials, 1)
    seeds = dataset[words.seed_indices(len(dataset))]
    generated = model.generate(seeds, words.position(0))
    passed = RandomizedPrivacyTest(params).run_batch(
        model.probability(seeds, generated),
        model.probability(dataset[None, :], generated[:, None]),
        words,
    )["passed"]
    return float(np.mean(passed & (generated == candidate)))


class TestEmpiricalDifferentialPrivacy:
    @pytest.mark.parametrize("candidate", [0, 1])
    def test_neighbouring_datasets_respect_theorem1_bound(self, candidate):
        # D has 12 copies of each value; D' additionally contains one extra 0.
        base = np.repeat(np.arange(4), 12)
        neighbour = np.concatenate([base, [0]])
        params = PlausibleDeniabilityParams(k=6, gamma=3.0, epsilon0=0.5)
        epsilon, delta, _ = theorem1_guarantee(params.k, params.gamma, params.epsilon0)

        num_trials = 40_000
        p_base = _release_probability(base, candidate, params, num_trials, seed=0)
        p_neighbour = _release_probability(neighbour, candidate, params, num_trials, seed=1)

        # Allow for Monte-Carlo error: three standard deviations on each side.
        margin = 3 * math.sqrt(max(p_base, p_neighbour) / num_trials) + 1e-4
        assert p_neighbour <= math.exp(epsilon) * p_base + delta + margin
        assert p_base <= math.exp(epsilon) * p_neighbour + delta + margin
