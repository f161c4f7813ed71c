"""Conditional-probability-table (parameter) learning (Section 3.4).

For every attribute i the model needs Pr{x_i | parent configuration}.  The
paper assumes a multinomial distribution over the attribute's values per
parent configuration, with a Dirichlet conjugate prior; learning reduces to
counting how many records in the parameter split DP exhibit each (value,
configuration) combination.

The DP variant adds Laplace(1/ε_p) noise to every count and clamps at zero
(Eq. 14); the L1 sensitivity of the whole count vector of one attribute is 1
because one record contributes to exactly one cell.

Parent configurations are indexed in the parents' *bucketized* domains
(Eq. 7), matching the structure learner's cost accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.generative.structure import DependencyStructure
from repro.privacy.accountant import PrivacyAccountant

__all__ = [
    "SEARCH_MIN_ROWS",
    "ConditionalParameters",
    "ParameterLearner",
    "mixed_radix_strides",
    "sample_dirichlet_rows",
]

#: Fewest rows for which :meth:`ConditionalParameters._sample_batch` binary-
#: searches the CDF rows instead of comparing every entry; both give the same
#: values.  Near the measured crossover on the perfbench ACS model.
SEARCH_MIN_ROWS = 256


def mixed_radix_strides(radices: Sequence[int]) -> np.ndarray:
    """Weights ``w`` such that ``values @ w`` is the mixed-radix index of ``values``.

    ``w[j]`` is the product of the radices after position ``j``, so for
    in-range values the dot product equals the Horner form
    ``(...(v0 * r1 + v1) * r2 + ...) * r_last + v_last`` exactly.  Raises
    ``OverflowError`` when a weight does not fit in int64.
    """
    strides = []
    stride = 1
    for radix in reversed(radices):
        strides.append(stride)
        stride *= int(radix)
    return np.array(strides[::-1], dtype=np.int64)


def sample_dirichlet_rows(rng: np.random.Generator, alphas: np.ndarray) -> np.ndarray:
    """Draw one Dirichlet sample per row of a (rows x values) alpha matrix.

    Vectorized via the Gamma representation: each row of independent
    ``standard_gamma(alpha)`` draws, normalized, is Dirichlet(alpha).  One
    batched call replaces a per-row ``rng.dirichlet`` loop.

    Note the RNG stream differs from per-row ``rng.dirichlet`` calls for the
    same generator state: ``dirichlet`` consumes its own gamma draws with a
    different internal call pattern, so tables sampled before/after this
    change are not bit-identical for a fixed seed (they follow the same
    distribution).

    Rows whose gamma draws all underflow to zero (possible only for extreme
    sub-1e-2 alphas) fall back to the normalized alphas themselves, keeping
    every returned row a valid distribution.
    """
    shape = np.maximum(np.asarray(alphas, dtype=np.float64), 1e-9)
    draws = rng.standard_gamma(shape)
    totals = draws.sum(axis=1, keepdims=True)
    degenerate = totals[:, 0] <= 0.0
    if np.any(degenerate):
        draws[degenerate] = shape[degenerate]
        totals = draws.sum(axis=1, keepdims=True)
    return draws / totals


@dataclass
class ConditionalParameters:
    """The conditional distribution table of a single attribute.

    Parameters
    ----------
    attribute_index:
        Which attribute this table predicts.
    parents:
        Parent attribute indices, in the order used for configuration
        indexing.
    parent_cardinalities:
        Bucketized cardinality of each parent (the radices of the mixed-radix
        configuration index).
    table:
        Row-stochastic matrix of shape (num_configurations, cardinality):
        ``table[c, v] = Pr{x_i = v | configuration c}``.  Every entry must
        be non-negative and every row must sum to 1 within 1e-6.  Stored as
        the validated float64 array.
    counts:
        The (possibly noisy) counts the table was estimated from; kept for
        inspection.
    prior:
        Dirichlet prior pseudo-counts per value (the ᾱ vector of Eq. 11).
        The learner uses a prior proportional to the attribute's marginal so
        that rarely-observed parent configurations degrade gracefully to the
        marginal distribution instead of to a uniform one.

    The batch kernels read arrays derived once from the table: the row CDFs
    (padded with +inf for :meth:`_sample_batch`'s binary search), the
    flattened table and the configuration strides.  They are not part of
    the pickled state and are rebuilt on unpickling.  The kernels carry a
    leading underscore and check nothing:
    :class:`~repro.generative.bayesian_network.BayesianNetworkSynthesizer`
    calls :meth:`_sample_batch` and :meth:`_probabilities_batch` directly
    after validating whole record matrices once, with configuration indices
    it forms from its own per-parent lookups (bucket times stride), so its
    walks never call :meth:`_configuration_indices`.
    :meth:`configuration_indices` and :meth:`probabilities_batch` are the
    checked forms, and the former is the lookups' test oracle; the sampler
    :meth:`_sample_batch` has none, because it only runs inside the
    network's ``generate_batch``.
    """

    attribute_index: int
    parents: tuple[int, ...]
    parent_cardinalities: tuple[int, ...]
    table: np.ndarray
    counts: np.ndarray
    prior: np.ndarray | None = None

    def __post_init__(self) -> None:
        table = np.asarray(self.table, dtype=np.float64)
        expected_configs = int(np.prod(self.parent_cardinalities)) if self.parents else 1
        if table.ndim != 2 or table.shape[0] != expected_configs:
            raise ValueError(
                f"table must have {expected_configs} configuration rows, "
                f"got shape {table.shape}"
            )
        if not np.allclose(table.sum(axis=1), 1.0, atol=1e-6):
            raise ValueError("every configuration row must sum to 1")
        # Inverse-CDF sampling needs non-decreasing CDF rows; a negative
        # entry would also be returned as a "probability".
        if (table < 0).any():
            raise ValueError("table entries must be non-negative")
        self.table = table
        if self.prior is None:
            self.prior = np.full(table.shape[1], 1.0 / table.shape[1])
        self._strides = mixed_radix_strides(self.parent_cardinalities)
        # A row's cumsum adds the same terms in the same order whether or not
        # the row was gathered first, so reading rows of this CDF samples
        # exactly what a cumsum over each batch's gathered rows would.  The
        # rows are padded with +inf to a power-of-two width above the
        # cardinality for the binary search in _sample_batch.
        cardinality = table.shape[1]
        self._cdf = np.full((table.shape[0], 1 << cardinality.bit_length()), np.inf)
        self._cdf[:, :cardinality] = np.cumsum(table, axis=1)
        self._flat = table.reshape(-1)

    def __getstate__(self) -> dict:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def num_configurations(self) -> int:
        """Number of parent configurations (rows of the table)."""
        return self.table.shape[0]

    @property
    def cardinality(self) -> int:
        """Number of values of the predicted attribute (columns of the table)."""
        return self.table.shape[1]

    def configuration_index(self, bucketized_parent_values: np.ndarray) -> int:
        """Mixed-radix index of one parent configuration."""
        if len(self.parents) == 0:
            return 0
        values = np.asarray(bucketized_parent_values, dtype=np.int64)
        if values.shape != (len(self.parents),):
            raise ValueError(
                f"expected {len(self.parents)} parent values, got shape {values.shape}"
            )
        return int(self.configuration_indices(values[None, :])[0])

    def configuration_indices(self, bucketized_parent_matrix: np.ndarray) -> np.ndarray:
        """Vectorized configuration indices for a (rows x parents) matrix."""
        matrix = np.asarray(bucketized_parent_matrix, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.parents):
            raise ValueError(
                f"expected a (rows x {len(self.parents)}) parent matrix, "
                f"got shape {matrix.shape}"
            )
        radices = np.asarray(self.parent_cardinalities, dtype=np.int64)
        if matrix.size and (matrix.min() < 0 or (matrix >= radices).any()):
            raise ValueError(
                f"parent values out of range [0, {list(self.parent_cardinalities)})"
            )
        return self._configuration_indices(matrix)

    def _configuration_indices(self, bucketized_parent_matrix: np.ndarray) -> np.ndarray:
        """Unchecked kernel of :meth:`configuration_indices`."""
        return bucketized_parent_matrix @ self._strides

    def _configuration(self, bucketized_parent_values: np.ndarray | None) -> int:
        if bucketized_parent_values is None:
            if self.parents:
                raise ValueError("parent values are required for a non-root attribute")
            return 0
        return self.configuration_index(bucketized_parent_values)

    def distribution(self, bucketized_parent_values: np.ndarray | None = None) -> np.ndarray:
        """The conditional distribution for one parent configuration."""
        return self.table[self._configuration(bucketized_parent_values)]

    def probability(
        self, value: int, bucketized_parent_values: np.ndarray | None = None
    ) -> float:
        """Pr{x_i = value | configuration}."""
        distribution = self.distribution(bucketized_parent_values)
        if not 0 <= value < distribution.size:
            raise ValueError(f"value {value} out of range [0, {distribution.size})")
        return float(distribution[value])

    def probabilities_batch(
        self, values: np.ndarray, configuration_indices: np.ndarray
    ) -> np.ndarray:
        """Vectorized ``Pr{x_i = values[r] | configuration_indices[r]}`` per row."""
        vals = np.asarray(values, dtype=np.int64)
        configs = np.asarray(configuration_indices, dtype=np.int64)
        if vals.shape != configs.shape or vals.ndim != 1:
            raise ValueError("values and configuration_indices must be matching 1-D arrays")
        if vals.size and (vals.min() < 0 or vals.max() >= self.cardinality):
            raise ValueError(f"values out of range [0, {self.cardinality})")
        if configs.size and (configs.min() < 0 or configs.max() >= self.num_configurations):
            raise ValueError(
                f"configuration indices out of range [0, {self.num_configurations})"
            )
        return self._probabilities_batch(vals, configs)

    def _probabilities_batch(self, values: np.ndarray, configs: np.ndarray) -> np.ndarray:
        """Unchecked kernel of :meth:`probabilities_batch`: ``table[configs, values]``."""
        return self._flat[configs * self.cardinality + values]

    def _sample_batch(self, uniforms: np.ndarray, configs: np.ndarray) -> np.ndarray:
        """Invert each row's CDF at its uniform: the one inverse-CDF sampler.

        The mechanism passes each attempt's word for this attribute's σ
        position (:meth:`repro.core.stream.AttemptWords.position`), so a row's
        value never depends on which other rows share the batch.

        A row with configuration c and uniform u gets
        ``min(count(cdf[c] <= u * total[c]), k - 1)`` for cardinality k, where
        ``total[c]`` is the last entry of the row's CDF.  Scaling the uniform
        onto the row's actual cumulative total keeps float rounding from
        pushing a draw past the last positive-probability value, and counting
        with ``<=`` (searchsorted side="right" semantics) makes a draw landing
        exactly on a bucket boundary — including 0.0 on leading
        zero-probability values — skip past them.  A zero-probability sample
        would later fail the privacy test's positive-seed-probability
        invariant.

        Two exact strategies compute the count, chosen from the number of
        rows n alone:

        * Below :data:`SEARCH_MIN_ROWS` rows, the broadcast form: gather the
          rows' CDFs and compare every entry with the row's scaled uniform,
          an n × k compare and a per-row sum.
        * From :data:`SEARCH_MIN_ROWS` rows up, a branchless binary search.
          The CDF rows are stored padded with +inf to width W, the power of
          two above k.  A row's position starts at 0, and each step, for step
          = W/2, W/4, ..., 1, adds ``step`` to it when the entry at
          ``position + step - 1`` is <= the scaled uniform: ⌈log2(k+1)⌉ steps
          of one ``take`` and one compare of n entries each.  Table entries
          are non-negative, so every CDF row is non-decreasing, and on a
          non-decreasing row the final position is exactly the count of
          entries <= the scaled uniform.  The padding is never <= a finite
          value, so it is never counted.

        Both strategies form ``scaled`` as the same product with the same
        stored total and clamp at k − 1 alike, so they return the same values
        bit for bit.  The search's cost is a few numpy calls per step, nearly
        whatever n is, while the broadcast's grows with n·k, so the switch
        sits near their crossover: on the perfbench ACS model (ω = 9,
        cardinalities 2–100) the search took about 1.8x the broadcast's time
        at 32 rows and 0.3x at 2,048, and they met near 200–256 rows.
        """
        cardinality = self.cardinality
        if configs.size < SEARCH_MIN_ROWS:
            rows = self._cdf[configs, :cardinality]
            scaled = uniforms * rows[:, -1]
            values = (rows <= scaled[:, None]).sum(axis=1, dtype=np.int64)
        else:
            width = self._cdf.shape[1]
            flat = self._cdf.reshape(-1)
            index = configs * width
            scaled = uniforms * flat[cardinality - 1:].take(index)
            step = width >> 1
            while step:
                index += (flat[step - 1:].take(index) <= scaled) * step
                step >>= 1
            # Row starts are multiples of the power-of-two width.
            values = index & (width - 1)
        return np.minimum(values, cardinality - 1)


class ParameterLearner:
    """Learns Dirichlet-multinomial conditional tables, optionally with DP."""

    def __init__(
        self,
        epsilon: float | None = None,
        alpha: float = 1.0,
        sample_parameters: bool = False,
        accountant: PrivacyAccountant | None = None,
        truncation_multiplier: float = 2.0,
    ):
        """Create a parameter learner.

        Parameters
        ----------
        epsilon:
            Per-attribute ε for the Laplace noise on counts (Eq. 14); ``None``
            disables the noise (non-private learning).
        alpha:
            Equivalent sample size of the Dirichlet prior: every parent
            configuration receives ``alpha`` pseudo-records distributed
            proportionally to the attribute's overall marginal (the ᾱ vector
            of Eq. 11).  A marginal-proportional prior makes configurations
            with little or no data degrade to the marginal distribution rather
            than to a uniform one, which matters when the parameter split is
            much smaller than the paper's 280k records.
        sample_parameters:
            If true, the released table is a sample from the Dirichlet
            posterior instead of the posterior mean.
        accountant:
            Optional privacy accountant to record the expenditure.
        truncation_multiplier:
            After adding Laplace noise, cells whose noisy count falls below
            ``truncation_multiplier / epsilon`` (i.e. a few noise scales) are
            zeroed.  This is pure post-processing of the noisy counts — it
            costs no additional privacy — and removes most of the spurious
            "phantom" mass that clamped noise would otherwise spread across
            the many empty cells of large conditional tables.  Set to 0 to
            disable and reproduce the raw Eq. 14 behaviour.
        """
        if epsilon is not None and epsilon <= 0:
            raise ValueError("epsilon must be positive when provided")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if truncation_multiplier < 0:
            raise ValueError("truncation_multiplier must be non-negative")
        self._epsilon = epsilon
        self._alpha = alpha
        self._sample_parameters = sample_parameters
        self._accountant = accountant
        self._truncation_multiplier = truncation_multiplier

    @property
    def epsilon(self) -> float | None:
        """Per-attribute privacy parameter (None when learning without noise)."""
        return self._epsilon

    def _counts_for_attribute(
        self,
        dataset: Dataset,
        bucketized: np.ndarray,
        attribute: int,
        parents: tuple[int, ...],
    ) -> tuple[np.ndarray, tuple[int, ...]]:
        """Raw (configuration x value) counts for one attribute."""
        schema = dataset.schema
        cardinality = schema.cardinalities[attribute]
        parent_cards = tuple(schema.bucketized_cardinalities[p] for p in parents)
        num_configs = int(np.prod(parent_cards)) if parents else 1

        config_index = bucketized[:, list(parents)] @ mixed_radix_strides(parent_cards)
        values = dataset.data[:, attribute]
        flat = config_index * cardinality + values
        counts = np.bincount(flat, minlength=num_configs * cardinality)
        return counts.reshape(num_configs, cardinality).astype(np.float64), parent_cards

    def learn(
        self,
        dataset: Dataset,
        structure: DependencyStructure,
        rng: np.random.Generator | None = None,
    ) -> list[ConditionalParameters]:
        """Learn one conditional table per attribute from the parameter split DP.

        ``rng`` is only consumed when randomness is actually needed (Laplace
        noise on the counts or posterior sampling of the tables), and is then
        required explicitly — there is no silent fixed-seed fallback.
        Deterministic (non-DP, posterior-mean) learning accepts ``rng=None``.
        """
        if len(dataset) == 0:
            raise ValueError("cannot learn parameters from an empty dataset")
        if structure.num_attributes != dataset.num_attributes:
            raise ValueError("structure and dataset disagree on the number of attributes")
        generator = rng
        if generator is None and (self._epsilon is not None or self._sample_parameters):
            raise ValueError(
                "parameter learning with DP noise or posterior sampling requires "
                "an explicit rng; pass the pipeline's generator to learn()"
            )
        bucketized = dataset.bucketized()

        tables: list[ConditionalParameters] = []
        for attribute in range(dataset.num_attributes):
            parents = structure.parents[attribute]
            counts, parent_cards = self._counts_for_attribute(
                dataset, bucketized, attribute, parents
            )
            if self._epsilon is not None:
                noise = generator.laplace(0.0, 1.0 / self._epsilon, size=counts.shape)
                counts = np.maximum(0.0, counts + noise)
                threshold = self._truncation_multiplier / self._epsilon
                if threshold > 0:
                    counts = np.where(counts >= threshold, counts, 0.0)

            # Marginal-proportional Dirichlet prior (post-processing of the
            # already-noisy counts, so no extra privacy cost).
            marginal = counts.sum(axis=0)
            total = marginal.sum()
            if total > 0:
                marginal = marginal / total
            else:
                marginal = np.full(counts.shape[1], 1.0 / counts.shape[1])
            prior = self._alpha * np.maximum(marginal, 1e-12)

            posterior = counts + prior[None, :]
            if self._sample_parameters:
                table = sample_dirichlet_rows(generator, posterior)
            else:
                table = posterior / posterior.sum(axis=1, keepdims=True)
            tables.append(
                ConditionalParameters(
                    attribute_index=attribute,
                    parents=parents,
                    parent_cardinalities=parent_cards,
                    table=table,
                    counts=counts,
                    prior=prior,
                )
            )

        if self._epsilon is not None and self._accountant is not None:
            # One ε-DP count release per attribute (L1 sensitivity 1 each).
            self._accountant.spend(
                "parameters/counts",
                self._epsilon,
                0.0,
                count=dataset.num_attributes,
                scope="parameter-data",
            )
        return tables
