"""Conformance subsystem: invariant checkers, scenario registry, golden store.

The paper's guarantees — Theorem 1 plausible-deniability bounds, DP budget
composition, seed-based release — are exactly the properties every fast path
in this codebase must preserve.  This package makes asserting them reusable:

* :mod:`repro.testing.invariants` — checkers for engine parity, RNG
  reproducibility, accountant spend conservation, Theorem 1 bounds, and
  bit-exact structure-learning engine equivalence, plus the scalar Mechanism 1
  oracle (``reference_attempt`` / ``reference_propose``);
* :mod:`repro.testing.scenarios` — a registry of diverse synthetic schema
  families (wide/narrow, skewed/uniform, high-cardinality, correlated,
  tiny-n) usable as fixtures by tests and benchmarks alike;
* :mod:`repro.testing.golden` — a golden-run regression store of canonical
  per-scenario digests, with a ``python -m repro.testing record/check`` CLI;
* :mod:`repro.testing.exact` — the exact output law of Mechanism 1 on an
  enumerable schema (Definition 1), and the chi-square sampler check of
  ``run_attempts`` against it with its committed stream mutants;
* :mod:`repro.testing.faults` — a chaos harness of injectable fault points
  (worker SIGKILL at a chosen chunk, dispatch delay, journal-tail
  truncation) for proving the recovery paths deterministic.
"""

from repro.testing.faults import (
    DispatchDelayFault,
    KillWorkerAtChunk,
    truncate_file_tail,
)

from repro.testing.golden import (
    DEFAULT_GOLDEN_PATH,
    GoldenDrift,
    check_goldens,
    compute_goldens,
    format_drifts,
    record_goldens,
    scenario_digest,
    write_drift_report,
)
from repro.testing.invariants import (
    InvariantViolation,
    assert_reports_identical,
    check_accountant_conservation,
    check_batched_mechanism_parity,
    check_engine_parity,
    check_rng_reproducibility,
    check_structure_engine_equivalence,
    check_theorem1_bounds,
    reference_attempt,
    reference_propose,
    report_accounting,
)
from repro.testing.scenarios import (
    Scenario,
    ScenarioFit,
    correlated_toy_matrix,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
    toy_schema,
)

__all__ = [
    "DispatchDelayFault",
    "KillWorkerAtChunk",
    "truncate_file_tail",
    "InvariantViolation",
    "assert_reports_identical",
    "check_accountant_conservation",
    "check_batched_mechanism_parity",
    "check_engine_parity",
    "check_rng_reproducibility",
    "check_structure_engine_equivalence",
    "check_theorem1_bounds",
    "reference_attempt",
    "reference_propose",
    "report_accounting",
    "Scenario",
    "ScenarioFit",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "toy_schema",
    "correlated_toy_matrix",
    "DEFAULT_GOLDEN_PATH",
    "GoldenDrift",
    "scenario_digest",
    "compute_goldens",
    "record_goldens",
    "check_goldens",
    "format_drifts",
    "write_drift_report",
]
