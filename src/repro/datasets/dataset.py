"""Columnar, integer-encoded dataset container with CSV round-trip support.

A :class:`Dataset` pairs a :class:`~repro.datasets.schema.Schema` with a 2-D
numpy matrix of encoded values (one row per record, one column per attribute,
cell value = index into the attribute's domain).  Everything downstream —
structure learning, parameter learning, synthesis, the privacy test and the ML
evaluation — operates on this representation.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.datasets.schema import Schema

__all__ = ["Dataset"]


class Dataset:
    """An encoded dataset: a schema plus a matrix of integer codes."""

    def __init__(self, schema: Schema, data: np.ndarray):
        self._schema = schema
        self._data = schema.check_codes(data)

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(cls, schema: Schema, records: Iterable[Sequence]) -> "Dataset":
        """Build a dataset from raw (un-encoded) records."""
        rows = list(records)
        if not rows:
            return cls(schema, np.empty((0, len(schema)), dtype=np.int64))
        columns = []
        for col, attribute in enumerate(schema):
            raw_column = [row[col] for row in rows]
            columns.append(attribute.encode(raw_column))
        return cls(schema, np.column_stack(columns))

    @classmethod
    def from_csv(cls, schema: Schema, path: str | Path, delimiter: str = ",") -> "Dataset":
        """Load a dataset from a CSV file with a header row of attribute names."""
        path = Path(path)
        with path.open(newline="") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            header = next(reader, None)
            if header is None:
                raise ValueError(f"CSV file {path} is empty")
            if [name.strip() for name in header] != schema.names:
                raise ValueError(
                    f"CSV header {header} does not match schema columns {schema.names}"
                )
            records = []
            for row in reader:
                if not row:
                    continue
                typed_row = []
                for cell, attribute in zip(row, schema):
                    sample = attribute.values[0]
                    if isinstance(sample, (int, np.integer)):
                        typed_row.append(int(cell))
                    else:
                        typed_row.append(cell.strip())
                records.append(typed_row)
        return cls.from_records(schema, records)

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._data.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self._schema == other._schema and np.array_equal(self._data, other._data)

    def __repr__(self) -> str:
        return f"Dataset(records={len(self)}, attributes={len(self._schema)})"

    @property
    def schema(self) -> Schema:
        """The dataset's schema."""
        return self._schema

    @property
    def data(self) -> np.ndarray:
        """The encoded data matrix (a defensive copy is *not* made)."""
        return self._data

    @property
    def num_records(self) -> int:
        """Number of records (rows)."""
        return self._data.shape[0]

    @property
    def num_attributes(self) -> int:
        """Number of attributes (columns)."""
        return self._data.shape[1]

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    def column(self, name_or_index: str | int) -> np.ndarray:
        """Encoded values of one attribute column."""
        index = (
            self._schema.index_of(name_or_index)
            if isinstance(name_or_index, str)
            else int(name_or_index)
        )
        return self._data[:, index]

    def record(self, row: int) -> np.ndarray:
        """Encoded values of one record."""
        return self._data[row]

    def decoded_records(self) -> list[list]:
        """All records decoded back to raw attribute values."""
        return self._schema.decode_rows(self._data)

    def bucketized(self) -> np.ndarray:
        """The data matrix with every column mapped to its structure-learning buckets.

        Equivalent to applying :meth:`Attribute.bucketize` column by column,
        but the constructor already validated every code, so each column is
        gathered from its attribute's lookup table without the range checks.
        """
        result = np.empty_like(self._data)
        for col, attribute in enumerate(self._schema):
            result[:, col] = attribute.bucket_table[self._data[:, col]]
        return result

    # ------------------------------------------------------------------ #
    # Transformation
    # ------------------------------------------------------------------ #
    def take(self, indices: np.ndarray) -> "Dataset":
        """A new dataset containing the rows at ``indices`` (in that order)."""
        return Dataset(self._schema, self._data[np.asarray(indices, dtype=np.int64)])

    def head(self, count: int) -> "Dataset":
        """The first ``count`` records."""
        return Dataset(self._schema, self._data[:count])

    def sample(self, count: int, rng: np.random.Generator, replace: bool = False) -> "Dataset":
        """A uniformly random sample of ``count`` records."""
        if not replace and count > len(self):
            raise ValueError(
                f"cannot sample {count} records without replacement from {len(self)}"
            )
        indices = rng.choice(len(self), size=count, replace=replace)
        return self.take(indices)

    def concat(self, other: "Dataset") -> "Dataset":
        """Concatenate two datasets with identical schemas."""
        if self._schema != other._schema:
            raise ValueError("cannot concatenate datasets with different schemas")
        return Dataset(self._schema, np.vstack([self._data, other._data]))

    def unique_fraction(self) -> float:
        """Fraction of records that are unique (Table 2 reports this for ACS)."""
        if len(self) == 0:
            return 0.0
        _, counts = np.unique(self._data, axis=0, return_counts=True)
        return float(np.sum(counts == 1)) / len(self)

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def to_csv(self, path: str | Path, delimiter: str = ",") -> None:
        """Write the dataset (decoded) to a CSV file with a header row."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, delimiter=delimiter)
            writer.writerow(self._schema.names)
            for row in self.decoded_records():
                writer.writerow(row)
