"""The seed-based Bayesian-network synthesizer (Sections 3.1-3.2).

Given a learned dependency structure and conditional tables, a synthetic
record is produced from a seed record by:

1. ordering the attributes in the dependency (topological) order σ,
2. copying the first ``m - ω`` attributes of σ from the seed,
3. re-sampling the remaining ω attributes, in order, from their conditional
   distributions given the *current* record state (so re-sampled attributes
   may condition on both copied and freshly re-sampled values).

Because a re-sampled attribute's parents always carry the same values as the
candidate record y itself (copied attributes agree with the seed *and* with
y), the probability that any record d generates y factorizes as

    Pr{y = M(d)} = 1[d and y agree on the copied attributes] * q(y) ,

where q(y) is the product of the re-sampled conditionals evaluated at y.  This
makes the plausible-seed count of the privacy test a simple (vectorized) match
count — exactly the property the paper exploits to generate millions of
records efficiently.  q(y)'s factors are the very conditionals y was sampled
from, so the batch sampler can hand them back from the walk that drew y
(``generate_batch(..., suffix_products=...)``) instead of a second walk over σ.

The ω parameter can be a single integer or a collection of integers; in the
latter case ω is drawn uniformly per generated record ("ω ∈R [5-11]" in the
paper) and seed probabilities marginalize over the same uniform choice.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from repro.datasets.schema import Schema
from repro.generative.parameters import ConditionalParameters, mixed_radix_strides
from repro.generative.structure import DependencyStructure

__all__ = ["BayesianNetworkSynthesizer"]


class BayesianNetworkSynthesizer:
    """Seed-based synthesizer backed by a Bayesian network.

    The batch kernels (:meth:`generate_batch`, :meth:`fixed_prefix_keys`,
    :meth:`candidate_factor_suffix_products`, ...) check their input matrix
    once per call — its shape and one vectorized domain check against the
    cardinalities — and then walk the re-sampling order without further
    checks, over lookup arrays derived once per model: per σ position, one
    configuration lookup per parent; the tables' row CDFs; and the
    fixed-prefix key weights of every ω.  A parent's lookup maps its raw code
    to its bucket times its mixed-radix stride in the table, so a row's
    configuration index is the sum of one gather per parent and the walks
    never bucketize a record.  The derived arrays are not part of the pickled
    state; unpickling rebuilds them.  The mechanism's proposal path walks σ
    once per batch: :meth:`generate_batch` fills the candidates' suffix
    products as it samples them, and :meth:`candidate_factor_suffix_products`
    stays as their oracle and as the dense probability matrix's kernel.

    The lookups are only right if every table's radices are its parents'
    bucketized cardinalities and its width is its attribute's cardinality,
    so the constructor (and with it unpickling) refuses any other table.
    """

    def __init__(
        self,
        schema: Schema,
        structure: DependencyStructure,
        tables: Sequence[ConditionalParameters],
        omega: int | Iterable[int],
    ):
        """Create a synthesizer.

        Parameters
        ----------
        schema:
            Schema shared by seeds and synthetics.
        structure:
            The learned dependency DAG and re-sampling order.
        tables:
            One :class:`ConditionalParameters` per attribute, indexed by
            attribute position.
        omega:
            Number of attributes to re-sample: a fixed integer in
            ``[0, m]`` or an iterable of such integers from which ω is drawn
            uniformly for every generated record.
        """
        m = len(schema)
        if structure.num_attributes != m:
            raise ValueError("structure does not match the schema size")
        if len(tables) != m:
            raise ValueError(f"expected {m} conditional tables, got {len(tables)}")
        for index, table in enumerate(tables):
            if table.attribute_index != index:
                raise ValueError("tables must be ordered by attribute index")
            if table.parents != structure.parents[index]:
                raise ValueError(
                    f"table for attribute {index} does not match the structure's parents"
                )
            if table.cardinality != schema[index].cardinality:
                raise ValueError(
                    f"table for attribute {index} has {table.cardinality} values, "
                    f"the schema's attribute has {schema[index].cardinality}"
                )
            declared = tuple(int(radix) for radix in table.parent_cardinalities)
            radices = tuple(schema[parent].bucketized_cardinality for parent in table.parents)
            if declared != radices:
                raise ValueError(
                    f"table for attribute {index} has parent radices {declared}, "
                    f"its parents' bucketized cardinalities are {radices}"
                )
        self._schema = schema
        self._structure = structure
        self._tables = tuple(tables)
        self._omegas = self._validate_omegas(omega, m)
        self._compile()

    def _compile(self) -> None:
        """Derive the lookup arrays the batch kernels read (once per model)."""
        schema = self._schema
        cardinalities = schema.cardinalities
        # Every attribute's bucket table back to back: code c of attribute a
        # sits at _bucket_offsets[a] + c, so one gather bucketizes a matrix
        # (for bucketize_records and the scalar oracle; the walks never do).
        self._bucket_offsets = np.cumsum([0, *cardinalities[:-1]], dtype=np.int64)
        self._bucket_lookup = np.concatenate([attribute.bucket_table for attribute in schema])
        # One entry per σ position: the attribute, its table, and one
        # (parent, lookup) pair per parent.  ``lookup[code]`` is the code's
        # bucket times the parent's mixed-radix stride in the table, so the
        # lookups of a row's parent codes add up to its configuration index:
        # the same integer configuration_indices forms from bucketized
        # parent values, without bucketizing the record.
        self._plan = tuple(
            (
                attribute,
                self._tables[attribute],
                tuple(
                    (parent, schema[parent].bucket_table * stride)
                    for parent, stride in zip(
                        self._structure.parents[attribute],
                        mixed_radix_strides(self._tables[attribute].parent_cardinalities),
                    )
                ),
            )
            for attribute in self._structure.order
        )
        # Fixed-prefix key weights per ω: ``records @ weights`` is the
        # mixed-radix key of the fixed attributes (zero weight elsewhere), or
        # None when the key could overflow int64.
        self._prefix_weights = []
        for omega in range(len(schema) + 1):
            fixed = list(self._fixed_attributes(omega))
            radices = [cardinalities[attribute] for attribute in fixed]
            if math.prod(radices) >= 2**62:
                self._prefix_weights.append(None)
                continue
            weights = np.zeros(len(schema), dtype=np.int64)
            weights[fixed] = mixed_radix_strides(radices)
            self._prefix_weights.append(weights)

    def __getstate__(self) -> dict:
        return {
            "_schema": self._schema,
            "_structure": self._structure,
            "_tables": self._tables,
            "_omegas": self._omegas,
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["_schema"], state["_structure"], state["_tables"], state["_omegas"])

    @staticmethod
    def _validate_omegas(omega: int | Iterable[int], num_attributes: int) -> tuple[int, ...]:
        if isinstance(omega, (int, np.integer)):
            omegas: tuple[int, ...] = (int(omega),)
        else:
            omegas = tuple(int(value) for value in omega)
        if not omegas:
            raise ValueError("omega must contain at least one value")
        for value in omegas:
            if not 0 <= value <= num_attributes:
                raise ValueError(
                    f"omega value {value} out of range [0, {num_attributes}]"
                )
        return omegas

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """Schema of seeds and synthetics."""
        return self._schema

    @property
    def structure(self) -> DependencyStructure:
        """The dependency structure."""
        return self._structure

    @property
    def tables(self) -> tuple[ConditionalParameters, ...]:
        """The conditional tables, one per attribute."""
        return self._tables

    @property
    def omegas(self) -> tuple[int, ...]:
        """The set of ω values the synthesizer draws from."""
        return self._omegas

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _bucketize_record(self, record: np.ndarray) -> np.ndarray:
        return self.bucketize_records(np.asarray(record, dtype=np.int64)[None, :])[0]

    def _check_omega(self, omega: int) -> None:
        if not 0 <= omega <= len(self._schema):
            raise ValueError(f"omega must lie in [0, {len(self._schema)}]")

    def _bucketize(self, matrix: np.ndarray) -> np.ndarray:
        """Unchecked kernel of :meth:`bucketize_records`."""
        return self._bucket_lookup[matrix + self._bucket_offsets]

    def bucketize_records(self, records: np.ndarray) -> np.ndarray:
        """Column-wise bucketization of a (records x attributes) matrix."""
        return self._bucketize(self._schema.check_codes(records))

    def _parent_values(self, bucketized_record: np.ndarray, attribute: int) -> np.ndarray | None:
        parents = self._structure.parents[attribute]
        if not parents:
            return None
        return bucketized_record[list(parents)]

    def _fixed_attributes(self, omega: int) -> tuple[int, ...]:
        """Attributes copied from the seed when re-sampling ω attributes.

        Both σ slices reject ω outside [0, m], where slicing at m − ω would
        wrap around instead of failing.
        """
        self._check_omega(omega)
        return self._structure.order[: len(self._schema) - omega]

    def _resampled_attributes(self, omega: int) -> tuple[int, ...]:
        """Attributes re-sampled (in σ order) when re-sampling ω attributes."""
        self._check_omega(omega)
        return self._structure.order[len(self._schema) - omega :]

    def draw_omegas(self, words) -> np.ndarray:
        """One ω per attempt of ``words``, uniformly from the configured ω set."""
        choices = np.asarray(self._omegas, dtype=np.int64)
        if choices.size == 1:
            return np.full(len(words), choices[0], dtype=np.int64)
        return choices[words.omega_indices(choices.size)]

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #
    def generate_batch(
        self,
        seeds: np.ndarray,
        words,
        omegas: np.ndarray | None = None,
        suffix_products: np.ndarray | None = None,
    ) -> np.ndarray:
        """Vectorized ancestral re-sampling over every row of ``seeds`` at once.

        Walks the re-sampling order σ a single time; at each position the rows
        whose ω covers that attribute draw a new value together through one
        vectorized conditional-table lookup, so the per-record Python overhead
        is amortized over the whole batch.  This is the network's one sampler:
        ``omegas=np.full(n, m)`` re-samples every attribute, which is
        ancestral sampling whatever the (in-domain) seed rows hold.

        The same walk can also produce the candidates' factors q_ω(y), which
        the privacy test needs next.  A position's parents come earlier in σ,
        so when the walk reaches position p every row's parents already hold
        their final values and the configuration index it samples from is the
        one q(y) is evaluated at.  With ``suffix_products`` given, the walk
        starts at position m − W, where W is the largest of the configured and
        the drawn ω, gathers ``table[config, value]`` for every row at every
        position from there, and multiplies the rows backwards exactly as
        :meth:`candidate_factor_suffix_products` does.  Products of the same
        factors in the same order round the same way, so the filled rows equal
        that method's rows m − W to m bit for bit.

        Parameters
        ----------
        seeds:
            (records x attributes) matrix of seed rows.
        words:
            The attempts' draws (:class:`~repro.core.stream.AttemptWords`),
            one attempt per seed row: row r reads its ω choice and its uniform
            for σ position p from its own words, so a row's output never
            depends on the batch around it.
        omegas:
            Optional per-row ω values; drawn uniformly from the configured ω
            set when omitted.
        suffix_products:
            Optional float64 output array of shape (m + 1, records).  Rows
            m − W to m receive the generated records' suffix products; the
            rows above are left as they are.
        """
        matrix = self._schema.check_codes(seeds)
        m = len(self._schema)
        num_rows = matrix.shape[0]
        if len(words) != num_rows or words.num_attributes != m:
            raise ValueError(
                f"words must hold one {m}-attribute attempt per seed row, got "
                f"{len(words)} attempt(s) of {words.num_attributes} attribute(s)"
            )
        if omegas is None:
            omega_draws = self.draw_omegas(words)
        else:
            omega_draws = np.asarray(omegas, dtype=np.int64)
            if omega_draws.shape != (num_rows,):
                raise ValueError("omegas must hold one value per seed row")
        if suffix_products is not None and (
            suffix_products.shape != (m + 1, num_rows) or suffix_products.dtype != np.float64
        ):
            raise ValueError(
                f"suffix_products must be a float64 array of shape ({m + 1}, {num_rows})"
            )
        if num_rows == 0:
            return np.empty((0, m), dtype=np.int64)
        lowest, highest = int(omega_draws.min()), int(omega_draws.max())
        if lowest < 0 or highest > m:
            raise ValueError(f"omega values must lie in [0, {m}]")

        # The walk reads and writes whole attributes, so it runs on an
        # attribute-major copy: one contiguous row per attribute.
        columns = matrix.T.copy()
        first = m - highest
        if suffix_products is not None:
            first = min(first, m - max(self._omegas))
            suffix_products[m] = 1.0
        # Attribute at position p is re-sampled for a row iff ω >= m - p: for
        # no row before position m - highest, for every row from m - lowest.
        for position in range(first, m):
            attribute, table, _ = self._plan[position]
            configs = self._configurations(columns, position)
            if position >= m - lowest:
                values = table._sample_batch(words.position(position), configs)
                columns[attribute] = values
            else:
                if position >= m - highest:
                    rows = np.nonzero(omega_draws >= m - position)[0]
                    columns[attribute, rows] = table._sample_batch(
                        words.position(position)[rows], configs[rows]
                    )
                values = columns[attribute]
            if suffix_products is not None:
                suffix_products[position] = table._probabilities_batch(values, configs)
        if suffix_products is not None:
            for position in range(m - 1, first - 1, -1):
                np.multiply(
                    suffix_products[position + 1],
                    suffix_products[position],
                    out=suffix_products[position],
                )
        return np.ascontiguousarray(columns.T)

    def _configurations(self, columns: np.ndarray, position: int) -> np.ndarray:
        """Configuration index of every record at σ position ``position``.

        ``columns`` holds the records attribute-major (one row per
        attribute).  The index is the sum of one gather per parent from that
        parent's lookup (see :meth:`_compile`), indexed by the parent's own
        codes.  Unchecked: the codes must be in their domains.
        """
        lookups = self._plan[position][2]
        if not lookups:
            return np.zeros(columns.shape[1], dtype=np.int64)
        (parent, lookup), *rest = lookups
        configs = lookup[columns[parent]]
        for parent, lookup in rest:
            configs += lookup[columns[parent]]
        return configs

    # ------------------------------------------------------------------ #
    # Probabilities
    # ------------------------------------------------------------------ #
    def candidate_factor(self, candidate: np.ndarray, omega: int) -> float:
        """q(y): product of the re-sampled conditionals evaluated at the candidate."""
        record = np.asarray(candidate, dtype=np.int64)
        bucketized = self._bucketize_record(record)
        probability = 1.0
        for attribute in self._resampled_attributes(omega):
            parent_values = self._parent_values(bucketized, attribute)
            probability *= self._tables[attribute].probability(
                int(record[attribute]), parent_values
            )
        return probability

    def seed_probability_with_omega(
        self, seed: np.ndarray, candidate: np.ndarray, omega: int
    ) -> float:
        """Pr{candidate = M_ω(seed)} for a specific ω."""
        seed_record = np.asarray(seed, dtype=np.int64)
        candidate_record = np.asarray(candidate, dtype=np.int64)
        fixed = list(self._fixed_attributes(omega))
        if fixed and not np.array_equal(seed_record[fixed], candidate_record[fixed]):
            return 0.0
        return self.candidate_factor(candidate_record, omega)

    def seed_probability(self, seed: np.ndarray, candidate: np.ndarray) -> float:
        """Pr{candidate = M(seed)}, marginalized over the ω distribution."""
        total = 0.0
        for omega in self._omegas:
            total += self.seed_probability_with_omega(seed, candidate, omega)
        return total / len(self._omegas)

    def batch_seed_probabilities_with_omega(
        self, seeds: np.ndarray, candidate: np.ndarray, omega: int
    ) -> np.ndarray:
        """Vectorized Pr{candidate = M_ω(seed)} over every row of ``seeds``."""
        matrix = np.asarray(seeds, dtype=np.int64)
        candidate_record = np.asarray(candidate, dtype=np.int64)
        factor = self.candidate_factor(candidate_record, omega)
        fixed = list(self._fixed_attributes(omega))
        if not fixed:
            return np.full(matrix.shape[0], factor, dtype=np.float64)
        matches = np.all(matrix[:, fixed] == candidate_record[fixed], axis=1)
        return matches.astype(np.float64) * factor

    def batch_seed_probabilities(
        self, seeds: np.ndarray, candidate: np.ndarray
    ) -> np.ndarray:
        """Vectorized Pr{candidate = M(seed)} (ω-marginalized) over seed rows."""
        matrix = np.asarray(seeds, dtype=np.int64)
        total = np.zeros(matrix.shape[0], dtype=np.float64)
        for omega in self._omegas:
            total += self.batch_seed_probabilities_with_omega(matrix, candidate, omega)
        return total / len(self._omegas)

    def fixed_prefix_keys(self, records: np.ndarray, omega: int) -> np.ndarray | None:
        """Mixed-radix key of each record's fixed-attribute values for one ω.

        Two records agree on the copied (fixed) attributes of ω iff their keys
        are equal, which turns the plausible-seed match count into a key
        multiplicity query (sort the seed keys once, ``searchsorted`` per
        candidate batch) instead of an O(candidates x seeds) comparison.
        Returns ``None`` when the key would overflow int64 (callers fall back
        to the dense probability-matrix path).
        """
        matrix = self._schema.check_codes(records)
        self._check_omega(omega)
        weights = self._prefix_weights[omega]
        if weights is None:
            return None
        return matrix @ weights

    def candidate_factor_suffix_products(self, candidates: np.ndarray) -> np.ndarray:
        """(m+1, candidates) array: row p = product of conditionals at σ-positions >= p.

        ``row[m - ω]`` is exactly q_ω(y) for every candidate, so one backward
        walk over the re-sampling order serves every ω of the ω set at once —
        the per-ω callers would otherwise re-index the candidate block and
        recompute the overlapping factor products once per ω.  Its
        configuration indices come from the same per-parent lookups as
        :meth:`generate_batch`'s.
        """
        return self._suffix_products(self._schema.check_codes(candidates))

    def _suffix_products(self, matrix: np.ndarray) -> np.ndarray:
        """Unchecked kernel of :meth:`candidate_factor_suffix_products`."""
        m = len(self._schema)
        columns = matrix.T.copy()
        products = np.ones((m + 1, matrix.shape[0]), dtype=np.float64)
        for position in range(m - 1, -1, -1):
            attribute, table, _ = self._plan[position]
            configs = self._configurations(columns, position)
            products[position] = products[position + 1] * table._probabilities_batch(
                columns[attribute], configs
            )
        return products

    def batch_probability_matrix(
        self, seeds: np.ndarray, candidates: np.ndarray
    ) -> np.ndarray:
        """Pr{candidates[c] = M(seeds[s])} for every (candidate, seed) pair.

        Returns a (candidates x seeds) matrix, ω-marginalized.  For each ω the
        probability factorizes as ``match(c, s) * q(c)`` — a fixed-attribute
        agreement indicator times a per-candidate factor — so the whole matrix
        is a handful of broadcast comparisons and one outer product per ω.
        """
        seed_matrix = self._schema.check_codes(seeds)
        cand_matrix = self._schema.check_codes(candidates)
        suffix_products = self._suffix_products(cand_matrix)
        m = len(self._schema)
        total = np.zeros((cand_matrix.shape[0], seed_matrix.shape[0]), dtype=np.float64)
        for omega in self._omegas:
            factors = suffix_products[m - omega]
            fixed = self._fixed_attributes(omega)
            if fixed:
                matches = np.ones(total.shape, dtype=bool)
                for attribute in fixed:
                    matches &= (
                        cand_matrix[:, attribute][:, None]
                        == seed_matrix[:, attribute][None, :]
                    )
                total += matches * factors[:, None]
            else:
                total += factors[:, None]
        return total / len(self._omegas)

    # ------------------------------------------------------------------ #
    # Prediction (used by the model-accuracy experiments, Figures 1-2)
    # ------------------------------------------------------------------ #
    def conditional_scores(self, record: np.ndarray, attribute: int) -> np.ndarray:
        """Unnormalized Pr{x_i = v | x_-i} for every value v of one attribute.

        Under the Bayesian network, Pr{x_i | x_-i} is proportional to the
        product of the factors in i's Markov blanket: its own conditional and
        the conditionals of its children.  The child factors only depend on
        the *bucketized* value of attribute i (parents enter conditionals in
        their bucketized domains), so they are evaluated once per bucket.
        """
        encoded = np.asarray(record, dtype=np.int64).copy()
        schema_attribute = self._schema[attribute]
        cardinality = schema_attribute.cardinality
        bucketized = self._bucketize_record(encoded)
        children = [
            child
            for child in range(len(self._schema))
            if attribute in self._structure.parents[child]
        ]

        # Own-conditional factor: a full distribution over the values.
        own_distribution = self._tables[attribute].distribution(
            self._parent_values(bucketized, attribute)
        )
        scores = np.array(own_distribution, dtype=np.float64, copy=True)

        if not children:
            return scores

        # Child factors depend only on the target's bucket.
        value_buckets = schema_attribute.bucketize(np.arange(cardinality))
        bucket_factor: dict[int, float] = {}
        for bucket in np.unique(value_buckets):
            bucketized[attribute] = int(bucket)
            factor = 1.0
            for child in children:
                factor *= self._tables[child].probability(
                    int(encoded[child]), self._parent_values(bucketized, child)
                )
            bucket_factor[int(bucket)] = factor
        scores *= np.array([bucket_factor[int(b)] for b in value_buckets])
        return scores

    def most_likely_value(self, record: np.ndarray, attribute: int) -> int:
        """Most likely value of one attribute given the rest of the record."""
        return int(np.argmax(self.conditional_scores(record, attribute)))
