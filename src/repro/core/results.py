"""Bookkeeping for synthesis runs: attempts as one block of parallel columns.

A :class:`SynthesisReport` keeps the struct-of-arrays form the batched kernels
produce (:data:`COLUMNS`), from ``propose_batch`` through worker IPC, run
checkpoints and the engine's merge to the service: no object per candidate.
Between processes and on disk the integer columns travel narrowed
(:func:`narrow_columns`); :meth:`SynthesisReport.from_arrays` widens them.

Columns are validated where they enter from outside the kernels: the
constructor and :meth:`SynthesisReport.from_arrays`, which the engine uses for
worker IPC and run checkpoints, check every column's presence, dtype and
shape.  A block ``propose_batch`` has just built is adopted as it is
(:meth:`SynthesisReport._unchecked`): the mechanism builds each column in its
:data:`COLUMNS` dtype with one common length n, ``candidates`` n×m and
C-contiguous, which the tier-1 tests check on every registry scenario.  Every
column of every report is read-only.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.datasets.dataset import Dataset
from repro.datasets.schema import Schema

__all__ = ["COLUMNS", "SynthesisReport", "narrow_columns"]

#: The report's columns in order, with their dtypes: row ``i`` of every
#: column describes attempt ``i``.  ``candidates`` is n×m (one column per
#: attribute); every other column is 1-D.
COLUMNS: dict[str, type] = {
    "seed_indices": np.int64,
    "candidates": np.int64,
    "passed": np.bool_,
    "plausible_seeds": np.int64,
    "partition_indices": np.int64,
    "thresholds": np.float64,
    "records_checked": np.int64,
    "count_saturated": np.bool_,
}


#: The dtypes an integer column may be narrowed to, smallest first, with their
#: bounds.  Unsigned 64-bit is left out: it does not cast safely to int64.
_NARROW_DTYPES = [
    (np.dtype(name), int(np.iinfo(name).min), int(np.iinfo(name).max))
    for name in ("u1", "i1", "u2", "i2", "u4", "i4")
]


def narrow_columns(arrays: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``arrays`` with each integer column in the smallest dtype that holds its values.

    The form chunk columns take between engine workers and the parent and
    in run checkpoints: a 2,048-attempt chunk of an 11-attribute ACS model
    pickles to about 58 KB instead of 267 KB.  :meth:`SynthesisReport.from_arrays`
    widens every column back with a safe cast, so the round trip is exact.
    Other columns are passed through untouched.
    """
    narrowed = {}
    for name, column in arrays.items():
        if column.dtype.kind == "i" and column.size:
            low, high = int(column.min()), int(column.max())
            for dtype, smallest, largest in _NARROW_DTYPES:
                if smallest <= low and high <= largest:
                    column = column.astype(dtype)
                    break
        narrowed[name] = column
    return narrowed


def _checked_columns(schema: Schema, arrays: Mapping) -> dict[str, np.ndarray]:
    """``arrays`` as columns in their dtypes (no copy if the dtype matches), or raise."""
    missing = [name for name in COLUMNS if name not in arrays]
    if missing:
        raise ValueError(f"missing column(s) {missing}")
    columns = {}
    for name, dtype in COLUMNS.items():
        column = np.asarray(arrays[name])
        if not np.can_cast(column.dtype, dtype, casting="safe"):
            raise ValueError(f"column {name!r} has dtype {column.dtype}, not {dtype.__name__}")
        columns[name] = column.astype(dtype, copy=False)
    seeds = columns["seed_indices"]
    rows = len(seeds) if seeds.ndim == 1 else None
    for name, column in columns.items():
        expected = (rows, len(schema)) if name == "candidates" else (rows,)
        if column.shape != expected:
            raise ValueError(f"column {name!r} has shape {column.shape}, expected {expected}")
    return columns


class SynthesisReport:
    """Every attempt of a synthesis run, as parallel read-only columns.

    :meth:`record` appends a whole block in O(block): blocks are joined into
    one array per column once, on the first read, so building a report is
    never quadratic (and the join is idempotent, so concurrent first reads
    are safe).  The release count is kept as blocks arrive, so the until-N
    loops read it without touching the columns.
    """

    def __init__(self, schema: Schema, columns: Mapping | None = None):
        self.schema = schema
        self._blocks = []
        self._num_attempts = self._num_released = 0
        if columns is not None:
            self._adopt(_checked_columns(schema, columns))

    @classmethod
    def _unchecked(cls, schema: Schema, columns: dict[str, np.ndarray]) -> "SynthesisReport":
        """A one-block report over ``columns`` as they are: the unchecked constructor.

        For blocks whose builder guarantees the column contract (every
        :data:`COLUMNS` dtype, one common length n, ``candidates`` n×m):
        ``propose_batch``'s and :meth:`until_released`'s.  The arrays become
        the columns without a copy and are marked read-only.
        """
        report = cls(schema)
        report._adopt(columns)
        return report

    def _adopt(self, columns: dict[str, np.ndarray]) -> None:
        """Make ``columns`` the report's one block, read-only."""
        for column in columns.values():
            column.flags.writeable = False
        passed = columns["passed"]
        self._blocks = [columns]
        self._num_attempts = len(passed)
        self._num_released = int(np.count_nonzero(passed))

    def _columns(self) -> dict[str, np.ndarray]:
        if len(self._blocks) != 1:
            joined = {
                name: np.concatenate(
                    [np.empty((0, len(self.schema)) if name == "candidates" else 0, dtype)]
                    + [block[name] for block in self._blocks]
                )
                for name, dtype in COLUMNS.items()
            }
            for column in joined.values():
                column.flags.writeable = False
            self._blocks = [joined]
        return self._blocks[0]

    def __getitem__(self, name: str) -> np.ndarray:
        """One column (see :data:`COLUMNS`), read-only."""
        return self._columns()[name]

    def record(self, block: "SynthesisReport") -> None:
        """Append a block of attempts to the report."""
        if block.schema != self.schema:
            raise ValueError("cannot combine reports with different schemas")
        if block.num_attempts:
            self._blocks.append(block._columns())
            self._num_attempts += block.num_attempts
            self._num_released += block.num_released

    def until_released(self, target: int) -> "SynthesisReport":
        """The shortest prefix holding ``target`` releases (all of it if none does).

        The until-N stopping rule (``target <= 0`` keeps nothing).  A proper
        prefix is copied, so a kept release never pins the rest of its block.
        """
        if target >= 1 and self._num_released < target:
            return self
        rows = 0 if target <= 0 else int(np.flatnonzero(self["passed"])[target - 1]) + 1
        if rows == self._num_attempts:
            return self
        return SynthesisReport._unchecked(
            self.schema, {name: column[:rows].copy() for name, column in self._columns().items()}
        )

    @property
    def num_attempts(self) -> int:
        """Total number of candidates proposed."""
        return self._num_attempts

    @property
    def num_released(self) -> int:
        """Number of candidates that passed the privacy test."""
        return self._num_released

    @property
    def pass_rate(self) -> float:
        """Fraction of candidates that passed the privacy test (Figure 6)."""
        if not self._num_attempts:
            return 0.0
        return self._num_released / self._num_attempts

    @property
    def mean_plausible_seeds(self) -> float:
        """Average plausible-seed count over all attempts."""
        if not self._num_attempts:
            return 0.0
        return float(np.mean(self["plausible_seeds"]))

    def released_dataset(self) -> Dataset:
        """The released synthetic records as a dataset."""
        return Dataset(self.schema, self["candidates"][self["passed"]])

    def all_candidates_dataset(self) -> Dataset:
        """All proposed candidates (released or not), as the paper's tool outputs."""
        return Dataset(self.schema, self["candidates"])

    def merge(self, *others: "SynthesisReport") -> "SynthesisReport":
        """Combine this report with any number of others (e.g. worker chunks)."""
        return SynthesisReport.merged(self.schema, [self, *others])

    @classmethod
    def merged(
        cls,
        schema: Schema,
        reports: "Sequence[SynthesisReport]",
        stop_after_released: int | None = None,
    ) -> "SynthesisReport":
        """Concatenate many reports (in order) into one, joining columns once.

        With ``stop_after_released`` set, recording stops right after the
        attempt that produces the Nth release — the same truncation rule as
        the mechanism's until-N-released loop, so a chunked engine run merged
        with this method matches the serial reference on the same chunks.
        """
        merged = cls(schema)
        for report in reports:
            if stop_after_released is None:
                merged.record(report)
            elif merged.num_released < stop_after_released:
                merged.record(report.until_released(stop_after_released - merged.num_released))
        return merged

    # ------------------------------------------------------------------ #
    # The column format itself (worker IPC and run checkpoints)
    # ------------------------------------------------------------------ #
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The report's own read-only columns (zero-copy), keyed as :data:`COLUMNS`.

        Chunk reports travel between engine workers and the parent, and are
        checkpointed to a run store, in this form after :func:`narrow_columns`.
        """
        return dict(self._columns())

    @classmethod
    def from_arrays(cls, schema: Schema, arrays: Mapping[str, np.ndarray]) -> "SynthesisReport":
        """Adopt the columns of :meth:`to_arrays` as a report, marking them read-only.

        Raises ``ValueError`` unless every column is present, 1-D with one common
        length n (``candidates`` n×m), and safely castable to its dtype.  A
        column already in its dtype is adopted without a copy; a narrowed one
        (:func:`narrow_columns`) is widened once, here.
        """
        return cls(schema, arrays)
