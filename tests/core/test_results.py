"""Tests for synthesis-run bookkeeping: reports as blocks of parallel columns."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.results import COLUMNS, SynthesisReport, narrow_columns


def make_block(schema, passed=(True,), seed_index=0, value=0):
    """A block with one attempt per entry of ``passed``.

    Attempt ``i`` has seed index ``seed_index + i`` so that blocks built from
    consecutive ranges can be told apart row by row.
    """
    rows = len(passed)
    return SynthesisReport(
        schema,
        {
            "seed_indices": np.arange(seed_index, seed_index + rows),
            "candidates": np.full((rows, len(schema)), value % 2),
            "passed": np.asarray(passed, dtype=bool),
            "plausible_seeds": np.full(rows, 10),
            "partition_indices": np.ones(rows, dtype=np.int64),
            "thresholds": np.full(rows, 5.0),
            "records_checked": np.full(rows, 100),
            "count_saturated": np.zeros(rows, dtype=bool),
        },
    )


def assert_same_columns(expected, actual):
    for name in COLUMNS:
        assert np.array_equal(expected[name], actual[name]), name
    assert actual.num_attempts == expected.num_attempts
    assert actual.num_released == expected.num_released
    assert actual.pass_rate == expected.pass_rate


class TestBlock:
    def test_released_mirrors_test_outcome(self, toy_schema):
        assert make_block(toy_schema, passed=[True]).num_released == 1
        assert make_block(toy_schema, passed=[False]).num_released == 0

    def test_columns_are_read_only(self, toy_schema):
        block = make_block(toy_schema, passed=[True, False])
        for name in COLUMNS:
            with pytest.raises(ValueError):
                block[name][0] = 0

    def test_to_arrays_keys_order_and_dtypes(self, toy_schema):
        arrays = make_block(toy_schema, passed=[True, False, True]).to_arrays()
        assert list(arrays) == list(COLUMNS)
        for name, dtype in COLUMNS.items():
            assert arrays[name].dtype == dtype
        assert arrays["candidates"].shape == (3, len(toy_schema))


class TestSynthesisReport:
    def test_empty_report(self, toy_schema):
        report = SynthesisReport(schema=toy_schema)
        assert report.num_attempts == 0
        assert report.num_released == 0
        assert report.pass_rate == 0.0
        assert report.mean_plausible_seeds == 0.0
        assert len(report.released_dataset()) == 0
        assert len(report.all_candidates_dataset()) == 0

    def test_counts_and_pass_rate(self, toy_schema):
        report = SynthesisReport(schema=toy_schema)
        report.record(make_block(toy_schema, passed=[True]))
        report.record(make_block(toy_schema, passed=[False, True]))
        assert report.num_attempts == 3
        assert report.num_released == 2
        assert report.pass_rate == pytest.approx(2 / 3)

    def test_released_dataset_contains_only_passing_candidates(self, toy_schema):
        report = SynthesisReport(schema=toy_schema)
        report.record(make_block(toy_schema, passed=[True], value=1))
        report.record(make_block(toy_schema, passed=[False], value=0))
        released = report.released_dataset()
        assert len(released) == 1
        assert released.data.tolist() == [[1] * len(toy_schema)]
        assert len(report.all_candidates_dataset()) == 2

    def test_mean_plausible_seeds(self, toy_schema):
        report = SynthesisReport(schema=toy_schema)
        report.record(make_block(toy_schema))
        assert report.mean_plausible_seeds == 10.0

    def test_merge(self, toy_schema):
        first = make_block(toy_schema, passed=[True])
        second = make_block(toy_schema, passed=[False])
        merged = first.merge(second)
        assert merged.num_attempts == 2
        assert merged.num_released == 1

    def test_release_counter_is_incremental(self, toy_schema):
        # The counter must stay exact through construction from columns,
        # record() and merge(), without re-reading the columns.
        from_columns = make_block(toy_schema, passed=[bool(i % 2) for i in range(9)])
        assert from_columns.num_released == 4
        from_columns.record(make_block(toy_schema, passed=[True]))
        assert from_columns.num_released == 5
        merged = from_columns.merge(from_columns)
        assert merged.num_released == 10
        assert merged.num_attempts == 20

    def test_merge_requires_same_schema(self, toy_schema, acs_dataset):
        first = SynthesisReport(schema=toy_schema)
        second = SynthesisReport(schema=acs_dataset.schema)
        with pytest.raises(ValueError):
            first.merge(second)
        with pytest.raises(ValueError):
            first.record(second)

    def test_merge_accepts_many_reports(self, toy_schema):
        reports = [
            make_block(toy_schema, passed=[index % 2 == 0], value=index) for index in range(5)
        ]
        merged = reports[0].merge(*reports[1:])
        assert merged.num_attempts == 5
        assert merged.num_released == 3
        assert merged["candidates"][:, 0].tolist() == [0, 1, 0, 1, 0]

    def test_merged_truncates_at_release_target(self, toy_schema):
        chunks = [make_block(toy_schema, passed=[True, False, True]) for _ in range(3)]
        # Concatenated: P F P | P F P | P F P — the 3rd release is attempt 3.
        merged = SynthesisReport.merged(toy_schema, chunks, stop_after_released=3)
        assert merged.num_released == 3
        assert merged.num_attempts == 4
        assert merged["passed"][-1]

    def test_truncated_block_copies_the_prefix_it_keeps(self, toy_schema):
        block = make_block(toy_schema, passed=[True, False, True, True, False])
        kept = block.until_released(2)
        assert kept.num_attempts == 3
        for name in COLUMNS:
            column = kept[name]
            assert len(column) == 3
            assert column.base is None or column.base.nbytes == column.nbytes, name
        assert block.until_released(10) is block

    def test_arrays_round_trip(self, toy_schema):
        report = SynthesisReport(schema=toy_schema)
        for index in range(4):
            report.record(
                make_block(toy_schema, passed=[index % 2 == 0], seed_index=index, value=index)
            )
        rebuilt = SynthesisReport.from_arrays(toy_schema, report.to_arrays())
        assert_same_columns(report, rebuilt)

    def test_from_arrays_adopts_the_arrays(self, toy_schema):
        arrays = make_block(toy_schema, passed=[True, False]).to_arrays()
        rebuilt = SynthesisReport.from_arrays(toy_schema, arrays)
        for name in COLUMNS:
            assert rebuilt[name] is arrays[name]

    def test_empty_arrays_round_trip(self, toy_schema):
        report = SynthesisReport(schema=toy_schema)
        rebuilt = SynthesisReport.from_arrays(toy_schema, report.to_arrays())
        assert rebuilt.num_attempts == 0
        assert rebuilt["candidates"].shape == (0, len(toy_schema))


class TestFromArraysValidation:
    @pytest.fixture
    def arrays(self, toy_schema):
        return dict(make_block(toy_schema, passed=[True, False, True]).to_arrays())

    def test_missing_column(self, toy_schema, arrays):
        del arrays["passed"]
        with pytest.raises(ValueError, match="missing column"):
            SynthesisReport.from_arrays(toy_schema, arrays)

    @pytest.mark.parametrize(
        "name,tamper",
        [
            ("passed", lambda column: column[:-1]),
            ("passed", lambda column: np.append(column, True)),
            ("candidates", lambda column: column[:, :-1]),
            ("thresholds", lambda column: column[:, None]),
        ],
        ids=["short", "overlong", "narrow-candidates", "two-dimensional"],
    )
    def test_shapes_must_agree(self, toy_schema, arrays, name, tamper):
        arrays[name] = tamper(arrays[name])
        with pytest.raises(ValueError, match=f"'{name}' has shape"):
            SynthesisReport.from_arrays(toy_schema, arrays)

    def test_dtypes_must_cast_safely(self, toy_schema, arrays):
        arrays["seed_indices"] = arrays["seed_indices"] + 0.5
        with pytest.raises(ValueError, match="'seed_indices' has dtype"):
            SynthesisReport.from_arrays(toy_schema, arrays)

    def test_safe_casts_are_accepted(self, toy_schema, arrays):
        arrays["seed_indices"] = arrays["seed_indices"].astype(np.int32)
        arrays["thresholds"] = np.full(3, 5)
        report = SynthesisReport.from_arrays(toy_schema, arrays)
        assert report["seed_indices"].dtype == np.int64
        assert report["thresholds"].tolist() == [5.0, 5.0, 5.0]


def _plain_loop_prefix(mask, target):
    """Length of the until-N prefix, by the mechanism's one-attempt loop."""
    kept = released = 0
    for passed in mask:
        if released >= target:
            break
        kept += 1
        released += passed
    return kept


@settings(max_examples=200, deadline=None)
@given(mask=st.lists(st.booleans(), max_size=40), data=st.data())
def test_merged_truncation_matches_the_plain_loop(toy_schema, mask, data):
    cuts = sorted(data.draw(st.lists(st.integers(0, len(mask)), max_size=6)))
    bounds = list(zip([0, *cuts], [*cuts, len(mask)]))
    parts = [make_block(toy_schema, mask[a:b], seed_index=a) for a, b in bounds]
    at_boundaries = [sum(mask[:b]) for _, b in bounds]
    targets = {0, sum(mask) + 1, data.draw(st.sampled_from(at_boundaries))}
    targets.add(data.draw(st.integers(0, len(mask) + 1)))
    for target in sorted(targets):
        merged = SynthesisReport.merged(toy_schema, parts, stop_after_released=target)
        kept = _plain_loop_prefix(mask, target)
        assert_same_columns(make_block(toy_schema, mask[:kept]), merged)
        assert merged.num_released == min(target, sum(mask))
    assert_same_columns(make_block(toy_schema, mask), SynthesisReport.merged(toy_schema, parts))


#: Values at every edge of the dtypes an integer column can be narrowed to.
DTYPE_EDGES = [-1, 0, 2**7, 2**8, 2**15, 2**16, 2**31, 2**63 - 1]


def _smallest_itemsize(column) -> int:
    """Bytes per value of the smallest signed or unsigned dtype holding ``column``."""
    low, high = int(column.min()), int(column.max())
    for size in (1, 2, 4):
        bits = 8 * size
        if 0 <= low and high < 2**bits or -(2 ** (bits - 1)) <= low and high < 2 ** (bits - 1):
            return size
    return 8


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_narrowed_columns_widen_back_exactly(toy_schema, data):
    rows = data.draw(st.integers(0, 5))
    edge = st.sampled_from(DTYPE_EDGES).flatmap(
        lambda value: st.sampled_from([value - 1, value, value + 1])
    ).filter(lambda value: -(2**63) <= value < 2**63)

    def integers(*shape):
        values = data.draw(st.lists(edge, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
        return np.array(values, dtype=np.int64).reshape(shape)

    arrays = {
        "seed_indices": integers(rows),
        "candidates": integers(rows, len(toy_schema)),
        "passed": np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)), bool),
        "plausible_seeds": integers(rows),
        "partition_indices": integers(rows),
        "thresholds": np.linspace(-1.0, 1.0, rows),
        "records_checked": integers(rows),
        "count_saturated": np.zeros(rows, dtype=bool),
    }
    narrowed = narrow_columns(arrays)
    for name, column in arrays.items():
        if column.dtype == np.int64 and rows:
            assert narrowed[name].dtype.itemsize == _smallest_itemsize(column), name
            assert narrowed[name].dtype.kind in "iu", name
        else:
            assert narrowed[name] is column, name
    report = SynthesisReport.from_arrays(toy_schema, narrowed)
    for name, dtype in COLUMNS.items():
        assert report[name].dtype == dtype, name
        assert report[name].shape == arrays[name].shape, name
        assert np.array_equal(report[name], arrays[name]), name
