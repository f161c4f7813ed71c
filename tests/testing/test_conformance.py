"""Scenario-matrix conformance suite.

The full cross-product — every registered scenario × both structure-learning
engines × {1, 2} engine workers × 2 seeds — runs the shared invariant
checkers end to end.  Cells are marked ``conformance``; a small subset
(scenarios tagged ``smoke``, seed 0) additionally carries
``conformance_smoke`` and is what the CI workflow gates on
(``pytest -m conformance_smoke``).  Locally the whole matrix runs as part of
the plain test suite.
"""

import pytest

from repro.core.stream import attempt_stream
from repro.testing.invariants import (
    check_accountant_conservation,
    check_batched_mechanism_parity,
    check_engine_parity,
    check_rng_reproducibility,
    check_structure_engine_equivalence,
    check_theorem1_bounds,
)
from repro.testing.scenarios import get_scenario, scenario_names

ENGINES = ("vectorized", "reference")
WORKER_COUNTS = (1, 2)
SEEDS = (0, 1)
SCENARIOS = tuple(scenario_names())
SMOKE_SCENARIOS = frozenset(scenario_names(tags={"smoke"}))

#: Fit results are deterministic per (scenario, engine, seed); cache them so
#: the worker-count dimension reuses the same fitted model.
_FIT_CACHE: dict = {}


def _fit(name: str, engine: str, seed: int):
    key = (name, engine, seed)
    if key not in _FIT_CACHE:
        _FIT_CACHE[key] = get_scenario(name).fit(seed=seed, engine=engine)
    return _FIT_CACHE[key]


def _matrix_cells():
    for name in SCENARIOS:
        for engine in ENGINES:
            for workers in WORKER_COUNTS:
                for seed in SEEDS:
                    marks = [pytest.mark.conformance]
                    if name in SMOKE_SCENARIOS and seed == 0:
                        marks.append(pytest.mark.conformance_smoke)
                    yield pytest.param(
                        name,
                        engine,
                        workers,
                        seed,
                        marks=marks,
                        id=f"{name}-{engine}-w{workers}-s{seed}",
                    )


def test_matrix_meets_the_acceptance_floor():
    """The declared cross-product is at least 6 scenarios × 2 × 2 × 2."""
    assert len(SCENARIOS) >= 6
    assert len(ENGINES) == 2
    assert tuple(WORKER_COUNTS) == (1, 2)
    assert len(SEEDS) == 2


@pytest.mark.parametrize("name,engine,workers,seed", list(_matrix_cells()))
def test_scenario_matrix_cell(name, engine, workers, seed):
    scenario = get_scenario(name)
    fit = _fit(name, engine, seed)

    if workers == 1:
        # Serial cell: the run must be a pure function of its seed, every
        # attempt must obey the privacy-test semantics, batched Mechanism 1
        # must match single-record re-evaluation, and the ledger must
        # conserve its recorded spend.
        from repro.core.engine import SynthesisEngine

        with SynthesisEngine(
            fit.model,
            fit.seeds,
            fit.params,
            num_workers=1,
            chunk_size=scenario.chunk_size,
            batch_size=scenario.batch_size,
        ) as serial_engine:
            reference = serial_engine.run_attempts(scenario.attempts, base_seed=seed)
        check_rng_reproducibility(
            lambda stream: fit.pipeline.mechanism.run_attempts(
                scenario.chunk_size, stream, batch_size=scenario.batch_size
            ),
            seed=seed,
        )
        check_theorem1_bounds(reference, fit.params, num_seed_records=len(fit.seeds))
        check_batched_mechanism_parity(
            fit.pipeline.mechanism,
            attempt_stream(seed),
            batch_size=scenario.batch_size,
        )
        check_accountant_conservation(fit.accountant)
    else:
        # Pooled cell: the spawn-context worker pool must be bit-identical to
        # the serial chunked reference, in both fixed-budget and until-N
        # mode.  One pool serves both comparisons — spawn startup is the
        # dominant cost of this suite, so every pooled cell pays it once.
        from repro.core.engine import SynthesisEngine

        with SynthesisEngine(
            fit.model,
            fit.seeds,
            fit.params,
            num_workers=workers,
            chunk_size=scenario.chunk_size,
            batch_size=scenario.batch_size,
        ) as pool:
            pool.start()
            check_engine_parity(
                fit.model,
                fit.seeds,
                fit.params,
                base_seed=seed,
                num_attempts=scenario.attempts,
                chunk_size=scenario.chunk_size,
                batch_size=scenario.batch_size,
                worker_counts=(),
                engines=[pool],
            )
            reference = check_engine_parity(
                fit.model,
                fit.seeds,
                fit.params,
                base_seed=seed,
                num_released=scenario.target_released,
                max_attempts=scenario.attempts * 4,
                chunk_size=scenario.chunk_size,
                batch_size=scenario.batch_size,
                worker_counts=(),
                engines=[pool],
            )
        assert reference.num_released <= scenario.target_released
        if reference.num_released == scenario.target_released:
            # Truncation at the Nth release: the final recorded attempt is it.
            assert reference["passed"][-1]


@pytest.mark.conformance
@pytest.mark.parametrize("name", SCENARIOS)
@pytest.mark.parametrize("seed", SEEDS)
def test_structure_engines_agree(name, seed):
    """Bit-exact entropies + identical structures (non-DP); identical spend
    and stream position (DP) — for every scenario's data distribution."""
    dataset = get_scenario(name).dataset(seed=seed)
    check_structure_engine_equivalence(dataset)
    check_structure_engine_equivalence(
        dataset, seed=seed, epsilon_entropy=0.5, epsilon_count=0.1
    )
