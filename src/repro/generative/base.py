"""Abstract interfaces for generative models used by the synthesis mechanism.

Mechanism 1 (Section 2) only needs two things from a generative model M:

* the ability to *generate* a candidate synthetic record y from a seed d, and
* the ability to *evaluate* Pr{y = M(d)} for arbitrary (d, y) pairs so the
  privacy test can count plausible seeds.

The plausible-deniability framework is deliberately agnostic to how M is
built.  :class:`repro.core.mechanism.SynthesisMechanism` additionally needs
``generate_batch(seeds, words)``, which generates one candidate per seed row
from that attempt's counter-addressed draws (:mod:`repro.core.stream`); the
Bayesian-network synthesizer provides it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.datasets.schema import Schema

__all__ = ["GenerativeModel", "SeedBasedGenerativeModel"]


class GenerativeModel(ABC):
    """A probabilistic model that maps a seed record to a synthetic record."""

    @property
    @abstractmethod
    def schema(self) -> Schema:
        """Schema of both the input (seed) and output (synthetic) records."""

    @abstractmethod
    def generate(self, seed: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Generate one synthetic record (encoded) from the given seed record."""

    @abstractmethod
    def seed_probability(self, seed: np.ndarray, candidate: np.ndarray) -> float:
        """Pr{candidate = M(seed)} for one (seed, candidate) pair."""

    def batch_seed_probabilities(
        self, seeds: np.ndarray, candidate: np.ndarray
    ) -> np.ndarray:
        """Pr{candidate = M(seed)} for every row of ``seeds``.

        The default implementation loops over :meth:`seed_probability`;
        concrete models should override this with a vectorized version because
        the privacy test evaluates it against the whole seed dataset.
        """
        matrix = np.asarray(seeds, dtype=np.int64)
        return np.array(
            [self.seed_probability(matrix[row], candidate) for row in range(matrix.shape[0])],
            dtype=np.float64,
        )

    def batch_probability_matrix(
        self, seeds: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Matrix of Pr{candidates[c] = M(seeds[s])} with shape (candidates, seeds).

        The default implementation stacks :meth:`batch_seed_probabilities` per
        candidate; concrete models should vectorize over both dimensions.
        """
        matrix = np.asarray(candidates, dtype=np.int64)
        if matrix.ndim != 2:
            raise ValueError("candidates must be a 2-D (records x attributes) array")
        seed_matrix = np.asarray(seeds, dtype=np.int64)
        if matrix.shape[0] == 0:
            return np.empty((0, seed_matrix.shape[0]), dtype=np.float64)
        return np.vstack(
            [
                self.batch_seed_probabilities(seed_matrix, matrix[row])
                for row in range(matrix.shape[0])
            ]
        )


class SeedBasedGenerativeModel(GenerativeModel):
    """Marker base class for models whose output genuinely depends on the seed.

    The distinction matters for the privacy discussion in Section 8: when the
    model ignores its seed (like the marginal baseline) the privacy test is
    vacuous — every record of the input dataset is an equally plausible seed —
    whereas seed-dependent models rely on the test to protect their seeds.
    """

    #: Whether generated records actually depend on the seed record.
    seed_dependent: bool = True
