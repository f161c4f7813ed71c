"""The batch kernels check their input once per call, at the public boundary.

Inside the σ loops the kernels run unchecked over lookup tables derived once
per model, so these checks are all that stands between an out-of-domain code
and a silently wrong row: the network bucketizes a whole matrix with one
gather from its attributes' bucket tables laid back to back, so a code equal
to an attribute's cardinality would read the next attribute's table and a
negative code would wrap around.  Every public kernel must reject both, on a
``bucket_map`` attribute (ACS ``SCHL``) and on the network's root attribute,
and must reject wrong shapes.
"""

import numpy as np
import pytest

from repro.core.stream import attempt_stream

OMEGA = 9


def _words(model, count):
    """Attempt words for ``count`` seed rows."""
    return attempt_stream(0).take(count, len(model.schema))


@pytest.fixture(scope="module")
def columns(unnoised_model):
    """The attribute indices under test: SCHL (bucket_map) and the root."""
    schema = unnoised_model.schema
    parents = unnoised_model.structure.parents
    assert schema["SCHL"].bucket_map is not None
    roots = [attribute for attribute in range(len(schema)) if not parents[attribute]]
    return {"SCHL": schema.index_of("SCHL"), "root": roots[0]}


@pytest.fixture(params=["SCHL", "root"])
def column(request, columns):
    return columns[request.param]


@pytest.fixture(params=["negative", "cardinality"])
def bad_code(request, unnoised_model, column):
    if request.param == "negative":
        return -1
    return unnoised_model.schema[column].cardinality


@pytest.fixture()
def good_rows(acs_splits):
    return acs_splits.seeds.data[:16].copy()


@pytest.fixture()
def bad_rows(good_rows, column, bad_code):
    rows = good_rows.copy()
    rows[5, column] = bad_code
    return rows


class TestRecordMatrixKernels:
    def test_generate_batch_rejects_out_of_domain_seeds(self, unnoised_model, bad_rows):
        with pytest.raises(ValueError, match="domain"):
            unnoised_model.generate_batch(bad_rows, _words(unnoised_model, len(bad_rows)))

    def test_generate_batch_with_explicit_omegas_rejects_out_of_domain_seeds(
        self, unnoised_model, bad_rows
    ):
        omegas = np.full(len(bad_rows), OMEGA)
        with pytest.raises(ValueError, match="domain"):
            unnoised_model.generate_batch(
                bad_rows, _words(unnoised_model, len(bad_rows)), omegas=omegas
            )

    def test_candidate_factor_suffix_products_rejects_out_of_domain(
        self, unnoised_model, bad_rows
    ):
        with pytest.raises(ValueError, match="domain"):
            unnoised_model.candidate_factor_suffix_products(bad_rows)

    def test_candidate_factor_rejects_out_of_domain(self, unnoised_model, bad_rows):
        # The scalar oracle bucketizes the candidate with the same gather.
        with pytest.raises(ValueError, match="domain"):
            unnoised_model.candidate_factor(bad_rows[5], OMEGA)

    def test_fixed_prefix_keys_rejects_out_of_domain(self, unnoised_model, bad_rows):
        # At ω = 9 both SCHL and the root are fixed attributes: an unchecked
        # code equal to the radix would collide with another record's key.
        with pytest.raises(ValueError, match="domain"):
            unnoised_model.fixed_prefix_keys(bad_rows, OMEGA)

    def test_batch_probability_matrix_rejects_out_of_domain_seeds(
        self, unnoised_model, good_rows, bad_rows
    ):
        with pytest.raises(ValueError, match="domain"):
            unnoised_model.batch_probability_matrix(bad_rows, good_rows)

    def test_batch_probability_matrix_rejects_out_of_domain_candidates(
        self, unnoised_model, good_rows, bad_rows
    ):
        with pytest.raises(ValueError, match="domain"):
            unnoised_model.batch_probability_matrix(good_rows, bad_rows)

    def test_bucketize_records_rejects_out_of_domain(self, unnoised_model, bad_rows):
        with pytest.raises(ValueError, match="domain"):
            unnoised_model.bucketize_records(bad_rows)

    def test_attribute_bucketize_rejects_out_of_domain(self, unnoised_model, column, bad_code):
        with pytest.raises(ValueError, match="out of range"):
            unnoised_model.schema[column].bucketize(np.array([0, bad_code]))


class TestTableKernels:
    def test_probabilities_batch_rejects_out_of_range_configurations(
        self, unnoised_model, column
    ):
        table = unnoised_model.tables[column]
        for bad in (-1, table.num_configurations):
            with pytest.raises(ValueError, match="configuration indices"):
                table.probabilities_batch(np.array([0, 0]), np.array([0, bad]))

    def test_probabilities_batch_rejects_out_of_range_values(self, unnoised_model, column):
        table = unnoised_model.tables[column]
        for bad in (-1, table.cardinality):
            with pytest.raises(ValueError, match="values out of range"):
                table.probabilities_batch(np.array([0, bad]), np.array([0, 0]))

    def test_configuration_indices_rejects_out_of_range_parent_values(self, unnoised_model):
        table = max(unnoised_model.tables, key=lambda table: len(table.parents))
        for column, radix in enumerate(table.parent_cardinalities):
            for bad in (-1, radix):
                parent_values = np.zeros((2, len(table.parents)), dtype=np.int64)
                parent_values[1, column] = bad
                with pytest.raises(ValueError, match="parent values"):
                    table.configuration_indices(parent_values)


class TestShapes:
    def test_record_kernels_reject_wrong_shapes(self, unnoised_model, good_rows):
        words = _words(unnoised_model, len(good_rows))
        for rows in (good_rows[0], good_rows[:, :-1], good_rows[None]):
            with pytest.raises(ValueError, match="2-D"):
                unnoised_model.generate_batch(rows, words)
            with pytest.raises(ValueError, match="2-D"):
                unnoised_model.candidate_factor_suffix_products(rows)
            with pytest.raises(ValueError, match="2-D"):
                unnoised_model.fixed_prefix_keys(rows, OMEGA)
            with pytest.raises(ValueError, match="2-D"):
                unnoised_model.batch_probability_matrix(good_rows, rows)
            with pytest.raises(ValueError, match="2-D"):
                unnoised_model.batch_probability_matrix(rows, good_rows)

    def test_generate_batch_rejects_bad_explicit_omegas(self, unnoised_model, good_rows):
        words = _words(unnoised_model, len(good_rows))
        m = len(unnoised_model.schema)
        for omegas in (np.full(len(good_rows) - 1, OMEGA), np.full((len(good_rows), 1), OMEGA)):
            with pytest.raises(ValueError, match="one value per seed row"):
                unnoised_model.generate_batch(good_rows, words, omegas=omegas)
        for bad in (-1, m + 1):
            omegas = np.full(len(good_rows), OMEGA)
            omegas[3] = bad
            with pytest.raises(ValueError, match="omega values"):
                unnoised_model.generate_batch(good_rows, words, omegas=omegas)

    def test_generate_batch_rejects_words_of_another_shape(self, unnoised_model, good_rows):
        # One attempt per seed row, laid out for this model's attributes.
        for words in (
            _words(unnoised_model, len(good_rows) - 1),
            attempt_stream(0).take(len(good_rows), len(unnoised_model.schema) - 1),
        ):
            with pytest.raises(ValueError, match="attempt per seed row"):
                unnoised_model.generate_batch(good_rows, words)

    def test_omega_arguments_are_range_checked(self, unnoised_model, good_rows):
        m = len(unnoised_model.schema)
        for bad in (-1, m + 1):
            with pytest.raises(ValueError, match="omega"):
                unnoised_model.fixed_prefix_keys(good_rows, bad)

    def test_table_kernels_reject_wrong_shapes(self, unnoised_model, columns):
        table = unnoised_model.tables[columns["SCHL"]]
        with pytest.raises(ValueError, match="matching 1-D"):
            table.probabilities_batch(np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64))
        with pytest.raises(ValueError, match="parent matrix"):
            table.configuration_indices(np.zeros((4, len(table.parents) + 1), dtype=np.int64))
        root = unnoised_model.tables[columns["root"]]
        with pytest.raises(ValueError, match="parent matrix"):
            root.configuration_indices(np.zeros(4, dtype=np.int64))

    def test_checked_calls_still_accept_the_whole_domain(self, unnoised_model):
        # The largest valid code of every attribute passes every check.
        schema = unnoised_model.schema
        corner = np.array([[a.cardinality - 1 for a in schema], [0] * len(schema)])
        unnoised_model.generate_batch(corner, _words(unnoised_model, 2))
        unnoised_model.candidate_factor_suffix_products(corner)
        unnoised_model.candidate_factor(corner[0], OMEGA)
        assert unnoised_model.fixed_prefix_keys(corner, OMEGA).shape == (2,)
