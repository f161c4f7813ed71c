"""Tests for attribute / schema definitions and bucketization."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.datasets.schema import Attribute, AttributeType, Schema


def make_attribute(cardinality=10, bucket_size=None, bucket_map=None, name="attr"):
    return Attribute(
        name,
        AttributeType.CATEGORICAL,
        tuple(f"v{i}" for i in range(cardinality)),
        bucket_size=bucket_size,
        bucket_map=bucket_map,
    )


class TestAttribute:
    def test_cardinality_matches_values(self):
        attribute = make_attribute(7)
        assert attribute.cardinality == 7

    def test_requires_name(self):
        with pytest.raises(ValueError):
            Attribute("", AttributeType.CATEGORICAL, ("a",))

    def test_requires_values(self):
        with pytest.raises(ValueError):
            Attribute("x", AttributeType.CATEGORICAL, ())

    def test_rejects_duplicate_values(self):
        with pytest.raises(ValueError):
            Attribute("x", AttributeType.CATEGORICAL, ("a", "a"))

    def test_rejects_nonpositive_bucket_size(self):
        with pytest.raises(ValueError):
            make_attribute(bucket_size=0)

    def test_bucket_map_must_cover_all_values(self):
        with pytest.raises(ValueError):
            make_attribute(cardinality=3, bucket_map=(0, 1))

    def test_bucket_map_must_be_contiguous(self):
        with pytest.raises(ValueError):
            make_attribute(cardinality=3, bucket_map=(0, 2, 2))

    def test_encode_decode_round_trip(self):
        attribute = make_attribute(5)
        raw = ["v3", "v0", "v4", "v0"]
        codes = attribute.encode(raw)
        assert codes.tolist() == [3, 0, 4, 0]
        assert Schema([attribute]).decode_rows(codes[:, None]) == [[value] for value in raw]

    def test_encode_rejects_unknown_value(self):
        attribute = make_attribute(3)
        with pytest.raises(ValueError, match="not in the domain"):
            attribute.encode(["v9"])

    def test_decode_rejects_out_of_range_code(self):
        schema = Schema([make_attribute(2, name="first"), make_attribute(3)])
        for code in (3, -1):
            with pytest.raises(ValueError, match="outside the domain.*'attr'"):
                schema.decode_rows(np.array([[0, 0], [1, code]]))

    def test_bucketize_without_buckets_is_identity(self):
        attribute = make_attribute(6)
        codes = np.array([0, 3, 5])
        assert attribute.bucketize(codes).tolist() == [0, 3, 5]

    def test_bucketize_with_bucket_size(self):
        attribute = make_attribute(10, bucket_size=3)
        codes = np.arange(10)
        assert attribute.bucketize(codes).tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]
        assert attribute.bucketized_cardinality == 4

    def test_bucketize_with_explicit_map(self):
        attribute = make_attribute(4, bucket_map=(0, 0, 1, 1))
        assert attribute.bucketize(np.array([0, 1, 2, 3])).tolist() == [0, 0, 1, 1]
        assert attribute.bucketized_cardinality == 2

    def test_bucketize_rejects_out_of_range(self):
        attribute = make_attribute(4, bucket_size=2)
        with pytest.raises(ValueError):
            attribute.bucketize(np.array([4]))

    def test_bucket_table_is_read_only_and_rebuilt_on_unpickling(self):
        attribute = make_attribute(6, bucket_map=(0, 0, 1, 1, 2, 2))
        with pytest.raises(ValueError):
            attribute.bucket_table[0] = 2
        clone = pickle.loads(pickle.dumps(attribute))
        assert clone == attribute
        assert clone.bucket_table.tolist() == [0, 0, 1, 1, 2, 2]

    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=1, max_value=15))
    def test_bucketized_cardinality_consistent_with_bucketize(self, cardinality, bucket_size):
        attribute = make_attribute(cardinality, bucket_size=bucket_size)
        buckets = attribute.bucketize(np.arange(cardinality))
        assert buckets.max() + 1 == attribute.bucketized_cardinality
        assert buckets.min() == 0
        # Buckets are monotone non-decreasing over the value order.
        assert np.all(np.diff(buckets) >= 0)


class TestSchema:
    def test_len_and_iteration(self, toy_schema):
        assert len(toy_schema) == 4
        assert [a.name for a in toy_schema] == ["age", "color", "size", "label"]

    def test_lookup_by_name_and_index(self, toy_schema):
        assert toy_schema["color"].name == "color"
        assert toy_schema[2].name == "size"
        assert toy_schema.index_of("label") == 3

    def test_unknown_attribute_raises_key_error(self, toy_schema):
        with pytest.raises(KeyError):
            toy_schema.index_of("nope")

    def test_requires_unique_names(self):
        attribute = make_attribute(2, name="dup")
        with pytest.raises(ValueError):
            Schema([attribute, attribute])

    def test_requires_at_least_one_attribute(self):
        with pytest.raises(ValueError):
            Schema([])

    def test_cardinalities(self, toy_schema):
        assert toy_schema.cardinalities == [20, 3, 2, 2]

    def test_bucketized_cardinalities(self, toy_schema):
        assert toy_schema.bucketized_cardinalities == [4, 3, 2, 2]

    def test_possible_records_is_product_of_cardinalities(self, toy_schema):
        assert toy_schema.possible_records() == 20 * 3 * 2 * 2

    def test_equality_is_by_value(self, toy_schema):
        clone = Schema(list(toy_schema.attributes))
        assert clone == toy_schema

    def test_repr_mentions_attribute_names(self, toy_schema):
        assert "age" in repr(toy_schema)

    def test_decode_rows_returns_python_values(self):
        schema = Schema(
            [
                Attribute("n", AttributeType.NUMERICAL, tuple(np.arange(10, 13))),
                make_attribute(2),
            ]
        )
        rows = schema.decode_rows(np.array([[2, 1], [0, 0]]))
        assert rows == [[12, "v1"], [10, "v0"]]
        assert type(rows[0][0]) is int
        assert schema.decode_rows(np.empty((0, 2), dtype=np.int64)) == []

    def test_value_tables_stay_out_of_the_pickled_state(self, toy_schema):
        fresh = pickle.dumps(Schema(list(toy_schema.attributes)))
        decoding = Schema(list(toy_schema.attributes))
        decoding.decode_rows(np.zeros((1, 4), dtype=np.int64))
        assert pickle.dumps(decoding) == fresh
        assert pickle.loads(fresh).decode_rows([[19, 2, 1, 1]]) == [[19, "blue", "large", "yes"]]
