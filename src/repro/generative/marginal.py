"""The marginal-synthesis baseline (Section 3.2, "Baseline: Marginal Synthesis").

The baseline synthesizer assumes attributes are independent: each attribute of
a synthetic record is drawn from its (optionally differentially-private)
marginal distribution, ignoring the seed entirely.  Because the output does
not depend on the seed, every record of the input dataset is an equally
plausible seed and the plausible-deniability test passes whenever the dataset
holds at least k records (Section 8 of the paper).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.datasets.schema import Schema
from repro.privacy.accountant import PrivacyAccountant

__all__ = ["MarginalSynthesizer"]


class MarginalSynthesizer:
    """Independent-marginals synthesizer (the paper's utility baseline)."""

    def __init__(self, schema: Schema, marginals: Sequence[np.ndarray]):
        if len(marginals) != len(schema):
            raise ValueError(
                f"expected {len(schema)} marginal distributions, got {len(marginals)}"
            )
        validated: list[np.ndarray] = []
        for attribute, marginal in zip(schema, marginals):
            distribution = np.asarray(marginal, dtype=np.float64)
            if distribution.shape != (attribute.cardinality,):
                raise ValueError(
                    f"marginal of attribute {attribute.name!r} must have "
                    f"{attribute.cardinality} entries"
                )
            if np.any(distribution < 0) or not np.isclose(distribution.sum(), 1.0, atol=1e-6):
                raise ValueError(
                    f"marginal of attribute {attribute.name!r} is not a distribution"
                )
            validated.append(distribution / distribution.sum())
        self._schema = schema
        self._marginals = validated

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def fit(
        cls,
        dataset: Dataset,
        epsilon: float | None = None,
        alpha: float = 1.0,
        rng: np.random.Generator | None = None,
        accountant: PrivacyAccountant | None = None,
    ) -> "MarginalSynthesizer":
        """Estimate (optionally DP) marginals from a dataset.

        With ``epsilon`` set, Laplace(1/ε) noise is added to every histogram
        count and clamped at zero, exactly like the conditional-table counts
        of the full model (the marginal is the empty-parent-set special case
        the paper mentions at the end of Section 3.4).
        """
        if len(dataset) == 0:
            raise ValueError("cannot fit marginals on an empty dataset")
        if epsilon is not None and epsilon <= 0:
            raise ValueError("epsilon must be positive when provided")
        generator = rng
        if epsilon is not None and generator is None:
            raise ValueError(
                "fitting DP marginals requires an explicit rng; pass the "
                "pipeline's generator"
            )
        marginals = []
        for index, attribute in enumerate(dataset.schema):
            counts = np.bincount(
                dataset.column(index), minlength=attribute.cardinality
            ).astype(np.float64)
            if epsilon is not None:
                counts = np.maximum(
                    0.0, counts + generator.laplace(0.0, 1.0 / epsilon, size=counts.shape)
                )
            counts += alpha
            marginals.append(counts / counts.sum())
        if epsilon is not None and accountant is not None:
            accountant.spend(
                "marginals/counts",
                epsilon,
                0.0,
                count=len(dataset.schema),
                scope="parameter-data",
            )
        return cls(dataset.schema, marginals)

    # ------------------------------------------------------------------ #
    # Generation and probabilities
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """Schema of generated records."""
        return self._schema

    @property
    def marginals(self) -> list[np.ndarray]:
        """The per-attribute marginal distributions."""
        return [marginal.copy() for marginal in self._marginals]

    def generate_many(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Vectorized generation of ``count`` records."""
        if count < 0:
            raise ValueError("count must be non-negative")
        columns = [
            rng.choice(marginal.size, size=count, p=marginal)
            for marginal in self._marginals
        ]
        return np.column_stack(columns).astype(np.int64) if count else np.empty(
            (0, len(self._schema)), dtype=np.int64
        )

    def seed_probability(self, seed: np.ndarray, candidate: np.ndarray) -> float:
        """Pr{candidate = M(seed)}: independent of the seed."""
        del seed
        record = np.asarray(candidate, dtype=np.int64)
        probability = 1.0
        for value, marginal in zip(record, self._marginals):
            probability *= float(marginal[int(value)])
        return probability

    def batch_seed_probabilities(
        self, seeds: np.ndarray, candidate: np.ndarray
    ) -> np.ndarray:
        """Every seed generates the candidate with the same probability."""
        matrix = np.asarray(seeds)
        probability = self.seed_probability(matrix[0] if matrix.size else candidate, candidate)
        return np.full(matrix.shape[0], probability, dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Prediction (Figures 1-2 baseline)
    # ------------------------------------------------------------------ #
    def most_likely_value(self, record: np.ndarray, attribute: int) -> int:
        """Most likely value of an attribute: the marginal mode (seed ignored)."""
        del record
        return int(np.argmax(self._marginals[attribute]))
