"""The exact output law of Mechanism 1 on a schema small enough to enumerate.

On a tiny domain, Definition 1 gives the distribution of one attempt in
closed form.  On seed multiset D an attempt outputs record y with probability

    P_D(y) = (1/|D|) Σ_{d ∈ D} Pr{y = M(d)} · F(c(y, d, D) − k)

and ⊥ with the remaining mass P(⊥).  Here Pr{y = M(d)} is the model's scalar
``seed_probability`` (ω-marginalized), c(y, d, D) counts the records of D
whose probability of generating y lies in d's geometric bucket (through the
production ``partition_numbers``), and F is the CDF of the randomized test's
threshold noise L ~ Laplace(1/ε0): the test passes iff c ≥ k + L.  The
deterministic test has F(x) = 1[x ≥ 0].

:func:`check_sampler` draws ``attempts`` attempts with
:meth:`~repro.core.mechanism.SynthesisMechanism.run_attempts` on one fixed
base seed and compares the histogram of released rows (plus ⊥) with
``attempts · P_D`` under a fixed chi-square bound, the quantile
``1 - SIGNIFICANCE`` of the chi-square law.  :func:`exact_instance` is the
committed instance: a 2×3×3 chain network, a mixed ω set, γ near 1 and the
randomized test.  :data:`STREAM_MUTANTS` are two deliberately broken attempt
streams the check must reject:

* ``seed-and-omega-share-a-word`` reads the ω choice from the seed-index
  word, so an attempt's ω is a function of its seed;
* ``threshold-noise-dropped`` draws zero Laplace noise, which turns the
  randomized test into the deterministic one.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from typing import Callable, Iterator

import numpy as np
from scipy import stats

from repro.core.mechanism import SynthesisMechanism
from repro.core.stream import AttemptWords, attempt_stream
from repro.datasets.dataset import Dataset
from repro.datasets.schema import Attribute, AttributeType, Schema
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.parameters import ConditionalParameters
from repro.generative.structure import DependencyStructure
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams, partition_numbers
from repro.testing.invariants import InvariantViolation

__all__ = [
    "SIGNIFICANCE",
    "STREAM_MUTANTS",
    "check_sampler",
    "chi_square",
    "exact_distribution",
    "exact_instance",
    "released_histogram",
]

#: Tail probability of the chi-square bound :func:`check_sampler` applies.
SIGNIFICANCE = 1e-6
#: Expected counts below this are pooled into one cell before the test.
_MIN_EXPECTED = 5.0


def exact_instance() -> SynthesisMechanism:
    """The committed instance: a 2×3×3 chain A → B → C.

    ω ∈ {1, 2}, γ = 1.05, k = 4 and ε0 = 1, on 12 seed records.
    """
    schema = Schema(
        [
            Attribute("a", AttributeType.CATEGORICAL, ("a0", "a1")),
            Attribute("b", AttributeType.CATEGORICAL, ("b0", "b1", "b2")),
            Attribute("c", AttributeType.CATEGORICAL, ("c0", "c1", "c2")),
        ]
    )
    structure = DependencyStructure(parents=((), (0,), (1,)), order=(0, 1, 2))
    tables = [
        np.array([[0.6, 0.4]]),
        np.array([[0.5, 0.3, 0.2], [0.15, 0.35, 0.5]]),
        np.array([[0.7, 0.2, 0.1], [0.25, 0.5, 0.25], [0.05, 0.3, 0.65]]),
    ]
    parameters = [
        ConditionalParameters(
            attribute_index=index,
            parents=structure.parents[index],
            parent_cardinalities=tuple(schema.cardinalities[p] for p in structure.parents[index]),
            table=table,
            counts=table * 100,
        )
        for index, table in enumerate(tables)
    ]
    model = BayesianNetworkSynthesizer(schema, structure, parameters, omega=(1, 2))
    seeds = Dataset(
        schema,
        np.array(
            [
                [0, 0, 0], [0, 0, 0], [0, 0, 1], [0, 1, 1], [0, 1, 1], [0, 2, 2],
                [1, 0, 0], [1, 1, 1], [1, 1, 2], [1, 2, 2], [1, 2, 2], [1, 2, 0],
            ]
        ),
    )
    params = PlausibleDeniabilityParams(k=4, gamma=1.05, epsilon0=1.0)
    return SynthesisMechanism(model, seeds, params)


def _threshold_cdf(params: PlausibleDeniabilityParams, x: float) -> float:
    """Pr{L ≤ x} for the test's threshold noise L (a point mass at 0 without ε0)."""
    if params.epsilon0 is None:
        return 1.0 if x >= 0 else 0.0
    if x < 0:
        return 0.5 * math.exp(params.epsilon0 * x)
    return 1.0 - 0.5 * math.exp(-params.epsilon0 * x)


def _domain(schema: Schema) -> list[tuple[int, ...]]:
    """Every record of the schema's domain, in mixed-radix order."""
    return list(itertools.product(*(range(c) for c in schema.cardinalities)))


def exact_distribution(mechanism: SynthesisMechanism) -> np.ndarray:
    """P_D(y) for every record y of the domain (mixed-radix order), then P(⊥).

    A transcription of Definition 1 and the test's pass probability; it uses
    no index, batch or stream.
    """
    model = mechanism.model
    seeds = mechanism.seed_dataset.data
    params = mechanism.params
    outputs = []
    for record in _domain(model.schema):
        candidate = np.array(record, dtype=np.int64)
        probabilities = np.array([model.seed_probability(seed, candidate) for seed in seeds])
        partitions = partition_numbers(probabilities, params.gamma)
        total = 0.0
        for probability, partition in zip(probabilities, partitions):
            if probability > 0:
                count = int(np.sum(partitions == partition))
                total += probability * _threshold_cdf(params, count - params.k)
        outputs.append(total / len(seeds))
    return np.array([*outputs, 1.0 - sum(outputs)])


def released_histogram(
    mechanism: SynthesisMechanism, base_seed: int, attempts: int, batch_size: int = 2048
) -> np.ndarray:
    """Counts of every domain record released by ``attempts`` attempts, then of ⊥."""
    report = mechanism.run_attempts(attempts, attempt_stream(base_seed), batch_size=batch_size)
    cardinalities = mechanism.model.schema.cardinalities
    flat = np.ravel_multi_index(report.released_dataset().data.T, cardinalities)
    counts = np.bincount(flat, minlength=int(np.prod(cardinalities)))
    return np.array([*counts, attempts - report.num_released])


def chi_square(observed: np.ndarray, probabilities: np.ndarray) -> tuple[float, float]:
    """Pearson's statistic of ``observed`` against ``probabilities``, and its bound.

    Cells expecting fewer than five outcomes are pooled into one cell first;
    the bound is the ``1 - SIGNIFICANCE`` quantile of chi-square with one
    degree of freedom fewer than the pooled cells.
    """
    total = observed.sum()
    expected = total * probabilities
    small = expected < _MIN_EXPECTED
    observed_cells = np.append(observed[~small], observed[small].sum())
    expected_cells = np.append(expected[~small], expected[small].sum())
    if expected_cells[-1] == 0:
        if observed_cells[-1]:
            return math.inf, 0.0
        observed_cells, expected_cells = observed_cells[:-1], expected_cells[:-1]
    statistic = float(np.sum((observed_cells - expected_cells) ** 2 / expected_cells))
    bound = float(stats.chi2.isf(SIGNIFICANCE, len(expected_cells) - 1))
    return statistic, bound


def check_sampler(
    mechanism: SynthesisMechanism | None = None,
    *,
    base_seed: int = 20_170_901,
    attempts: int = 1_000_000,
) -> tuple[float, float]:
    """Require the released-row histogram to match P_D within the chi-square bound.

    Returns ``(statistic, bound)``; raises :class:`InvariantViolation` when
    the statistic exceeds the bound.
    """
    mechanism = mechanism if mechanism is not None else exact_instance()
    observed = released_histogram(mechanism, base_seed, attempts)
    statistic, bound = chi_square(observed, exact_distribution(mechanism))
    if not statistic <= bound:
        raise InvariantViolation(
            f"released-row histogram of {attempts} attempts departs from the exact "
            f"law: chi-square {statistic:.1f} > bound {bound:.1f}"
        )
    return statistic, bound


@contextlib.contextmanager
def _patched(name: str, replacement: Callable) -> Iterator[None]:
    original = getattr(AttemptWords, name)
    setattr(AttemptWords, name, replacement)
    try:
        yield
    finally:
        setattr(AttemptWords, name, original)


#: Broken attempt streams :func:`check_sampler` must reject, as context
#: managers that install the mutant for their duration.
STREAM_MUTANTS: dict[str, Callable[[], contextlib.AbstractContextManager]] = {
    "seed-and-omega-share-a-word": lambda: _patched(
        "omega_indices", lambda words, n: words._index(0, n)
    ),
    "threshold-noise-dropped": lambda: _patched(
        "laplace", lambda words, scale: np.zeros(len(words))
    ),
}
