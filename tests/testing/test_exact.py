"""The sampler check: run_attempts' released rows follow Definition 1's exact law.

On the committed 2×3×3 chain instance (mixed ω, γ near 1, the randomized
test), about 10^6 attempts on the counter-addressed stream must match the
enumerated P_D within the fixed chi-square bound, and each committed stream
mutant must fail it.
"""

import numpy as np
import pytest

from repro.testing.exact import (
    STREAM_MUTANTS,
    check_sampler,
    chi_square,
    exact_distribution,
    exact_instance,
    released_histogram,
)
from repro.testing.invariants import InvariantViolation

pytestmark = pytest.mark.conformance_smoke


@pytest.fixture(scope="module")
def mechanism():
    return exact_instance()


def test_instance_is_the_committed_one(mechanism):
    assert mechanism.model.schema.cardinalities == [2, 3, 3]
    assert mechanism.model.omegas == (1, 2)
    assert mechanism.params.is_randomized and 1 < mechanism.params.gamma < 1.1


def test_exact_law_is_a_distribution(mechanism):
    law = exact_distribution(mechanism)
    assert law.shape == (2 * 3 * 3 + 1,)
    assert np.all(law >= 0) and law.sum() == pytest.approx(1.0, abs=1e-12)
    assert 0.5 < law[-1] < 0.95  # both outcomes of the test carry real mass


def test_released_rows_match_the_exact_law(mechanism):
    statistic, bound = check_sampler(mechanism)
    assert statistic <= bound


@pytest.mark.parametrize("name", sorted(STREAM_MUTANTS))
def test_stream_mutant_fails_the_check(mechanism, name):
    with STREAM_MUTANTS[name]():
        with pytest.raises(InvariantViolation, match="departs from the exact law"):
            check_sampler(mechanism)


def test_chi_square_pools_cells_expecting_fewer_than_five():
    probabilities = np.array([0.5, 0.49, 0.005, 0.005])
    statistic, bound = chi_square(np.array([500, 490, 5, 5]), probabilities)
    assert statistic == pytest.approx(0.0)
    assert bound > 20  # two pooled degrees of freedom at 1e-6
    assert chi_square(np.array([0, 990, 5, 5]), probabilities)[0] > bound


def test_histogram_counts_every_attempt(mechanism):
    histogram = released_histogram(mechanism, base_seed=3, attempts=5000, batch_size=333)
    assert histogram.sum() == 5000
    assert np.array_equal(
        histogram, released_histogram(mechanism, base_seed=3, attempts=5000, batch_size=4096)
    )
