"""Attribute and schema definitions, including bucketization.

A :class:`Schema` describes the columns of a dataset: each :class:`Attribute`
has a name, a type (categorical or numerical), a list of values (its domain)
and, optionally, a bucketization used *only* for structure learning (Section
3.3 of the paper: parent attributes are discretized into coarser bins so that
the parent-configuration space stays small, see Eq. 6-7).  Both input and
output data keep the original domain; bucketization never changes the format
of released records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

__all__ = ["AttributeType", "Attribute", "Schema"]


class AttributeType(Enum):
    """Type of a data attribute."""

    CATEGORICAL = "categorical"
    NUMERICAL = "numerical"


@dataclass(frozen=True)
class Attribute:
    """A single data attribute (column).

    Parameters
    ----------
    name:
        Human-readable attribute name (e.g. ``"AGEP"``).
    attribute_type:
        Whether the attribute is categorical or numerical.  Numerical
        attributes are still discrete here (the ACS attributes are integer
        valued); the distinction only matters for default bucketization.
    values:
        The ordered domain of the attribute.  Encoded data stores the *index*
        into this tuple.
    bucket_size:
        If set, structure learning groups consecutive values into buckets of
        this many values.  ``None`` means the attribute is used un-bucketized.
    bucket_map:
        Explicit value-index -> bucket-index mapping.  Overrides
        ``bucket_size`` when provided (used e.g. for the education attribute
        whose buckets are semantic rather than uniform).

    The value-index -> bucket-index lookup table (:attr:`bucket_table`) is
    derived once from these fields; it is not part of the pickled state and
    is rebuilt when an attribute is unpickled.
    """

    name: str
    attribute_type: AttributeType
    values: tuple = ()
    bucket_size: int | None = None
    bucket_map: tuple[int, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("attribute name must be non-empty")
        if len(self.values) == 0:
            raise ValueError(f"attribute {self.name!r} must have at least one value")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"attribute {self.name!r} has duplicate values")
        if self.bucket_size is not None and self.bucket_size < 1:
            raise ValueError("bucket_size must be a positive integer")
        if self.bucket_map is not None:
            if len(self.bucket_map) != len(self.values):
                raise ValueError(
                    f"bucket_map of attribute {self.name!r} must map every value"
                )
            buckets = set(self.bucket_map)
            if buckets != set(range(len(buckets))):
                raise ValueError(
                    f"bucket_map of attribute {self.name!r} must use contiguous "
                    "bucket indices starting at 0"
                )
        if self.bucket_map is not None:
            table = np.asarray(self.bucket_map, dtype=np.int64)
        else:
            table = np.arange(self.cardinality, dtype=np.int64) // (self.bucket_size or 1)
        table.flags.writeable = False
        object.__setattr__(self, "_bucket_table", table)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_bucket_table"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def cardinality(self) -> int:
        """Number of distinct values the attribute can take."""
        return len(self.values)

    @property
    def bucketized_cardinality(self) -> int:
        """Number of buckets used for structure learning."""
        if self.bucket_map is not None:
            return max(self.bucket_map) + 1
        if self.bucket_size is None:
            return self.cardinality
        return int(np.ceil(self.cardinality / self.bucket_size))

    def encode(self, raw_values: Iterable) -> np.ndarray:
        """Encode raw values to integer codes (indices into ``values``)."""
        lookup = {value: index for index, value in enumerate(self.values)}
        try:
            return np.array([lookup[v] for v in raw_values], dtype=np.int64)
        except KeyError as exc:
            raise ValueError(
                f"value {exc.args[0]!r} is not in the domain of attribute {self.name!r}"
            ) from None

    @property
    def bucket_table(self) -> np.ndarray:
        """Read-only int64 lookup table: ``bucket_table[code]`` is the code's bucket.

        Indexing it directly skips :meth:`bucketize`'s range check, so only
        code that has already validated its codes should do so.
        """
        return self._bucket_table

    def bucketize(self, codes: np.ndarray) -> np.ndarray:
        """Map encoded values to (coarser) bucket indices for structure learning."""
        arr = np.asarray(codes, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.cardinality):
            raise ValueError(
                f"codes out of range [0, {self.cardinality}) for attribute {self.name!r}"
            )
        return self._bucket_table[arr]


class Schema:
    """An ordered collection of attributes describing a dataset."""

    def __init__(self, attributes: Sequence[Attribute]):
        if not attributes:
            raise ValueError("a schema needs at least one attribute")
        names = [attribute.name for attribute in attributes]
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        self._attributes = tuple(attributes)
        self._index = {attribute.name: i for i, attribute in enumerate(attributes)}

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self):
        return iter(self._attributes)

    def __getitem__(self, key: int | str) -> Attribute:
        if isinstance(key, str):
            return self._attributes[self.index_of(key)]
        return self._attributes[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __repr__(self) -> str:
        names = ", ".join(attribute.name for attribute in self._attributes)
        return f"Schema([{names}])"

    @property
    def attributes(self) -> tuple[Attribute, ...]:
        """The attributes, in column order."""
        return self._attributes

    @property
    def names(self) -> list[str]:
        """Attribute names in column order."""
        return [attribute.name for attribute in self._attributes]

    @property
    def cardinalities(self) -> list[int]:
        """Cardinality of each attribute, in column order."""
        return [attribute.cardinality for attribute in self._attributes]

    @property
    def bucketized_cardinalities(self) -> list[int]:
        """Bucketized cardinality of each attribute, in column order."""
        return [attribute.bucketized_cardinality for attribute in self._attributes]

    def index_of(self, name: str) -> int:
        """Column index of the attribute with the given name."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"schema has no attribute named {name!r}") from None

    def possible_records(self) -> int:
        """Size of the record universe (product of cardinalities, Table 2)."""
        total = 1
        for attribute in self._attributes:
            total *= attribute.cardinality
        return total

    def check_codes(self, codes: np.ndarray) -> np.ndarray:
        """``codes`` as an int64 (rows x attributes) matrix, every code in its domain."""
        matrix = np.asarray(codes, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self):
            raise ValueError(f"expected a 2-D (rows x {len(self)}) matrix, got {matrix.shape}")
        cardinalities = self._value_tables()[2]
        if matrix.size and (matrix.min() < 0 or (matrix >= cardinalities).any()):
            column = ((matrix < 0) | (matrix >= cardinalities)).any(axis=0).argmax()
            attribute = self._attributes[column]
            raise ValueError(
                f"codes outside the domain [0, {attribute.cardinality}) of {attribute.name!r}"
            )
        return matrix

    def decode_rows(self, codes: np.ndarray) -> list[list]:
        """Rows of codes decoded to raw attribute values, one list per row.

        All domains sit in one object array of Python values at per-attribute
        offsets: after :meth:`check_codes` (a bare gather would read -1 as a
        neighbour's value), one gather and ``tolist`` decode the whole block.
        """
        values, offsets, _ = self._value_tables()
        return values[self.check_codes(codes) + offsets].tolist()

    def _value_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(values, offsets, cardinalities), built on first use and never pickled."""
        if "_decoder" not in self.__dict__:
            cardinalities = np.array(self.cardinalities, dtype=np.int64)
            values = np.fromiter(
                (v.item() if isinstance(v, np.generic) else v for a in self for v in a.values),
                dtype=object,
                count=int(cardinalities.sum()),
            )
            self._decoder = (values, np.cumsum(cardinalities) - cardinalities, cardinalities)
        return self._decoder

    def __getstate__(self) -> dict:
        return {key: value for key, value in self.__dict__.items() if key != "_decoder"}
