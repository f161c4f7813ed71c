"""Released rows are a pure function of (model, base seed, attempt index).

Batch size, chunk size, worker count and fold composition only decide how
the attempts are scheduled, so every combination must release the same rows
with the same accounting as a plain in-process ``generate`` per request.
The in-process combinations are drawn by hypothesis; the worker-pool cases
are parametrized, because each pool costs a process start-up.  The pool
cases also propose a fixed budget long enough that a 2,048-attempt chunk
runs as one batch above the sampling kernel's switch to the binary search,
against a reference proposed in batches below it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import FoldSpec, SynthesisEngine
from repro.generative.parameters import SEARCH_MIN_ROWS
from repro.testing.invariants import assert_reports_identical
from repro.testing.scenarios import get_scenario

#: Three lanes: different targets, an explicit attempt budget that binds, and
#: a repeated base seed.
SPECS = (
    FoldSpec(num_released=23, base_seed=31),
    FoldSpec(num_released=15, base_seed=2**40 + 7, max_attempts=25),
    FoldSpec(num_released=14, base_seed=31),
)
FIXED_ATTEMPTS = 150
#: Two chunks at the production chunk size: 2,048 and 952 attempts.
BULK_ATTEMPTS = 3000


@pytest.fixture(scope="module")
def fit():
    return get_scenario("toy-correlated").fit(seed=0)


@pytest.fixture(scope="module")
def reference(fit):
    """Each lane served alone, and a fixed budget, at the default sizes."""
    with SynthesisEngine(fit.model, fit.seeds, fit.params) as engine:
        lanes = [
            engine.generate(spec.num_released, spec.base_seed, max_attempts=spec.max_attempts)
            for spec in SPECS
        ]
        fixed = engine.run_attempts(FIXED_ATTEMPTS, base_seed=SPECS[1].base_seed)
    assert lanes[1].num_released < SPECS[1].num_released  # the budget binds
    return lanes, fixed


@pytest.fixture(scope="module")
def bulk_reference(fit):
    """BULK_ATTEMPTS attempts proposed in-process in batches below the switch."""
    with SynthesisEngine(
        fit.model, fit.seeds, fit.params, batch_size=SEARCH_MIN_ROWS - 1
    ) as engine:
        return engine.run_attempts(BULK_ATTEMPTS, base_seed=SPECS[0].base_seed)


def _check(engine: SynthesisEngine, reference, order) -> None:
    lanes, fixed = reference
    folded = engine.generate_folded([SPECS[i] for i in order])
    for position, lane in enumerate(order):
        context = f"lane {lane} at fold position {position}"
        assert_reports_identical(lanes[lane], folded[position], context=context)
    assert_reports_identical(
        lanes[0], engine.generate(SPECS[0].num_released, SPECS[0].base_seed)
    )
    assert_reports_identical(
        fixed, engine.run_attempts(FIXED_ATTEMPTS, base_seed=SPECS[1].base_seed)
    )


@settings(max_examples=15, deadline=None)
@given(
    batch_size=st.sampled_from((1, 8, 256, 4096)),
    chunk_size=st.one_of(st.integers(1, 40), st.sampled_from((64, 512, 2048))),
    order=st.permutations(range(len(SPECS))),
)
def test_in_process_rows_never_depend_on_the_sizes_or_the_fold(
    fit, reference, batch_size, chunk_size, order
):
    with SynthesisEngine(
        fit.model, fit.seeds, fit.params, chunk_size=chunk_size, batch_size=batch_size
    ) as engine:
        _check(engine, reference, order)


@pytest.mark.parametrize(
    "batch_size,chunk_size", [(1, 64), (8, 7), (256, 2048), (4096, 30), (2048, 2048)]
)
def test_worker_pool_rows_never_depend_on_the_sizes_or_the_fold(
    fit, reference, bulk_reference, batch_size, chunk_size
):
    # Workers rebuild their tables, and the CDFs derived from them, from
    # read-only shared-memory views.
    with SynthesisEngine(
        fit.model, fit.seeds, fit.params,
        num_workers=2, chunk_size=chunk_size, batch_size=batch_size,
    ) as engine:
        _check(engine, reference, order=(2, 0, 1))
        assert_reports_identical(
            bulk_reference,
            engine.run_attempts(BULK_ATTEMPTS, base_seed=SPECS[0].base_seed),
            context="fixed budget",
        )
