"""Reusable invariant checkers for the paper's guarantees and fast-path parity.

PR 1-3 each re-proved the same properties with bespoke test code: the batched
Mechanism 1 against the single-record loop, the vectorized structure engine
against the reference loop, the parallel engine against the serial chunked
run.  This module turns those proofs into first-class checkers that any test,
benchmark or future fast path can call:

* :func:`check_engine_parity` — a :class:`~repro.core.engine.SynthesisEngine`
  run is bit-identical across worker counts (released rows *and* the full
  per-attempt accounting);
* :func:`check_rng_reproducibility` — a run is a pure function of its seed;
* :func:`check_batched_mechanism_parity` — batched Mechanism 1 attempts equal,
  column for column, the scalar oracle's on the same attempt indices
  (:func:`reference_propose`, the paper's one-candidate loop step, and
  :func:`reference_attempt`, its privacy test);
* :func:`check_accountant_conservation` — the privacy ledger never
  under-reports spend under any composition mode;
* :func:`check_theorem1_bounds` — every recorded attempt obeys the
  plausible-seed test semantics, and the Theorem 1 (ε, δ) algebra is
  internally consistent;
* :func:`check_structure_engine_equivalence` — the ``"vectorized"`` and
  ``"reference"`` structure-learning engines produce bit-exact entropies and
  identical structures (and, under DP, identical spend and stream positions).

Checkers raise :class:`InvariantViolation` (an ``AssertionError`` subclass, so
pytest renders it natively) with a description of the first divergence.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from repro.core.engine import SynthesisEngine
from repro.core.mechanism import SynthesisMechanism
from repro.core.results import SynthesisReport
from repro.core.stream import AttemptStream, AttemptWords, attempt_stream
from repro.datasets.dataset import Dataset
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.structure import (
    DependencyStructure,
    StructureLearner,
    StructureLearningConfig,
)
from repro.privacy.accountant import PrivacyAccountant
from repro.privacy.plausible_deniability import (
    PlausibleDeniabilityParams,
    plausible_seed_count,
    theorem1_delta,
    theorem1_epsilon,
    theorem1_guarantee,
)

__all__ = [
    "InvariantViolation",
    "report_accounting",
    "assert_reports_identical",
    "check_engine_parity",
    "check_rng_reproducibility",
    "check_batched_mechanism_parity",
    "reference_attempt",
    "reference_candidate",
    "reference_propose",
    "check_accountant_conservation",
    "check_theorem1_bounds",
    "check_structure_engine_equivalence",
]


class InvariantViolation(AssertionError):
    """A checked invariant does not hold; the message names the divergence."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


def report_accounting(report: SynthesisReport) -> dict[str, list]:
    """The full per-attempt accounting of a report, as comparable plain lists."""
    arrays = report.to_arrays()
    return {name: arrays[name].tolist() for name in arrays}


def assert_reports_identical(
    expected: SynthesisReport, actual: SynthesisReport, context: str = ""
) -> None:
    """Require two reports to agree on every attempt field, bit for bit."""
    prefix = f"{context}: " if context else ""
    expected_arrays = expected.to_arrays()
    actual_arrays = actual.to_arrays()
    for name in expected_arrays:
        if not np.array_equal(expected_arrays[name], actual_arrays[name]):
            raise InvariantViolation(
                f"{prefix}reports diverge in {name!r} "
                f"(expected {expected.num_attempts} attempts / "
                f"{expected.num_released} released, got {actual.num_attempts} "
                f"attempts / {actual.num_released} released)"
            )


# --------------------------------------------------------------------------- #
# Engine parity and reproducibility
# --------------------------------------------------------------------------- #
def _engine_run(
    engine: SynthesisEngine,
    base_seed: int,
    num_attempts: int | None,
    num_released: int | None,
    max_attempts: int | None,
) -> SynthesisReport:
    if num_attempts is not None:
        return engine.run_attempts(num_attempts, base_seed=base_seed)
    assert num_released is not None
    return engine.generate(num_released, base_seed=base_seed, max_attempts=max_attempts)


def check_engine_parity(
    model: BayesianNetworkSynthesizer,
    seed_dataset: Dataset,
    params: PlausibleDeniabilityParams,
    *,
    base_seed: int = 0,
    num_attempts: int | None = None,
    num_released: int | None = None,
    max_attempts: int | None = None,
    chunk_size: int = 16,
    batch_size: int = 8,
    worker_counts: Sequence[int] = (2,),
    engines: Sequence[SynthesisEngine] = (),
) -> SynthesisReport:
    """Require every worker count to reproduce the serial engine run exactly.

    Exactly one of ``num_attempts`` (fixed budget) or ``num_released``
    (until-N mode, optionally bounded by ``max_attempts``) selects the run
    mode.  Pre-started pools can be passed via ``engines``, with any chunk
    and batch sizes (attempts are counter-addressed, so neither may change
    the run); otherwise a fresh pool is started per entry of
    ``worker_counts`` on the reference's sizes.  At least one candidate
    beyond the serial reference is required — a call that would compare
    nothing is rejected rather than passing vacuously.  Returns the serial
    reference report.
    """
    if (num_attempts is None) == (num_released is None):
        raise ValueError("pass exactly one of num_attempts / num_released")
    if not engines and not any(workers > 1 for workers in worker_counts):
        raise ValueError(
            "no candidate engines to compare against the serial reference "
            "(engines is empty and worker_counts has no entry > 1); parity "
            "would pass vacuously — run the serial engine directly instead"
        )
    with SynthesisEngine(
        model, seed_dataset, params, num_workers=1,
        chunk_size=chunk_size, batch_size=batch_size,
    ) as reference_engine:
        reference = _engine_run(
            reference_engine, base_seed, num_attempts, num_released, max_attempts
        )

    def _check(candidate_engine: SynthesisEngine) -> None:
        candidate = _engine_run(
            candidate_engine, base_seed, num_attempts, num_released, max_attempts
        )
        assert_reports_identical(
            reference,
            candidate,
            context=(
                f"{candidate_engine.num_workers}-worker engine (chunk "
                f"{candidate_engine.chunk_size}, batch {candidate_engine.batch_size}) "
                "vs serial"
            ),
        )

    for engine in engines:
        _check(engine)
    for workers in worker_counts:
        if workers == 1 or any(e.num_workers == workers for e in engines):
            continue
        with SynthesisEngine(
            model, seed_dataset, params, num_workers=workers,
            chunk_size=chunk_size, batch_size=batch_size,
        ) as pool:
            _check(pool)
    return reference


def check_rng_reproducibility(
    run: Callable[[AttemptStream], SynthesisReport],
    seed: int = 0,
    repeats: int = 2,
) -> SynthesisReport:
    """Require ``run`` to be a pure function of its base seed.

    ``run`` receives a fresh ``attempt_stream(seed)`` each time; every repeat
    must produce bit-identical accounting.  Returns the first report.
    """
    if repeats < 2:
        raise ValueError("repeats must be at least 2 to compare anything")
    first = run(attempt_stream(seed))
    for repeat in range(1, repeats):
        again = run(attempt_stream(seed))
        assert_reports_identical(
            first, again, context=f"repeat {repeat} with seed {seed}"
        )
    return first


# --------------------------------------------------------------------------- #
# Batched Mechanism 1 vs the scalar oracle
# --------------------------------------------------------------------------- #
def reference_attempt(
    mechanism: SynthesisMechanism,
    seed_index: int,
    candidate: np.ndarray,
    words: AttemptWords,
) -> SynthesisReport:
    """The scalar oracle: one candidate's privacy test, as a 1-row block.

    Steps 3-4 of Mechanism 1 transcribed record by record: the model's
    probabilities of generating ``candidate`` from the true seed and from
    every seed record, then the (k, γ) test on them, with the threshold
    noise and the scan generator of the attempt ``words`` holds (a block of
    one attempt).  No index, no batch.
    """
    seeds = mechanism.seed_dataset
    model = mechanism.model
    params = mechanism.params
    seed_probability = model.seed_probability(seeds.record(seed_index), candidate)
    dataset_probabilities = model.batch_seed_probabilities(seeds.data, candidate)
    count, partition, checked, saturated = plausible_seed_count(
        seed_probability,
        dataset_probabilities,
        params.gamma,
        params.max_check_plausible,
        params.max_plausible,
        words.scan_rng(0),
    )
    threshold = float(params.k)
    if params.is_randomized:
        threshold += float(words.laplace(1.0 / params.epsilon0)[0])
    return SynthesisReport(
        seeds.schema,
        {
            "seed_indices": [seed_index],
            "candidates": [candidate],
            "passed": [count >= threshold],
            "plausible_seeds": [count],
            "partition_indices": [partition],
            "thresholds": [threshold],
            "records_checked": [checked],
            "count_saturated": [saturated],
        },
    )


def reference_candidate(
    model: BayesianNetworkSynthesizer, seed: np.ndarray, words: AttemptWords
) -> np.ndarray:
    """Step 2 for one attempt, record by record: ω, then σ's re-sampled positions.

    Reads the attempt's ω choice and one uniform per re-sampled σ position
    from ``words`` (a block of one attempt) and inverts each conditional's
    CDF at it, scaled onto the row's cumulative total.
    """
    schema = model.schema
    m = len(schema)
    omegas = model.omegas
    omega = omegas[int(words.omega_indices(len(omegas))[0])] if len(omegas) > 1 else omegas[0]
    record = np.array(seed, dtype=np.int64)
    for position in range(m - omega, m):
        attribute = model.structure.order[position]
        table = model.tables[attribute]
        parents = model.structure.parents[attribute]
        parent_buckets = np.array(
            [int(schema[p].bucketize(np.array([record[p]]))[0]) for p in parents],
            dtype=np.int64,
        )
        cdf = np.cumsum(table.distribution(parent_buckets if parents else None))
        uniform = words.position(position)[0] * cdf[-1]
        record[attribute] = min(int(np.sum(cdf <= uniform)), table.cardinality - 1)
    return record


def reference_propose(
    mechanism: SynthesisMechanism, stream: AttemptStream
) -> SynthesisReport:
    """One step of the paper's one-candidate loop (Mechanism 1, steps 1-4).

    Takes the next attempt's words from ``stream``, samples its seed,
    generates its candidate with :func:`reference_candidate` and tests it
    with :func:`reference_attempt`.
    """
    seeds = mechanism.seed_dataset
    words = stream.take(1, len(seeds.schema))
    seed_index = int(words.seed_indices(len(seeds))[0])
    candidate = reference_candidate(mechanism.model, seeds.record(seed_index), words)
    return reference_attempt(mechanism, seed_index, candidate, words)


#: How :func:`check_batched_mechanism_parity` names each report column.
_COLUMN_LABELS = {
    "seed_indices": "seed",
    "candidates": "candidate",
    "plausible_seeds": "plausible count",
    "partition_indices": "partition",
    "records_checked": "records_checked",
    "count_saturated": "saturation flag",
    "thresholds": "threshold",
    "passed": "decision",
}


def check_batched_mechanism_parity(
    mechanism: SynthesisMechanism,
    stream: AttemptStream,
    batch_size: int = 40,
) -> SynthesisReport:
    """Require a batched block to equal the scalar oracle on the same attempts.

    The next ``batch_size`` attempts of ``stream`` run through
    :meth:`~repro.core.mechanism.SynthesisMechanism.propose_batch`, and each
    attempt index again through :func:`reference_propose`, which reads that
    attempt's own words.  Every column must agree value for value: seed,
    candidate, count, partition, scanned records, saturation, threshold and
    decision — under the randomized test and the early-termination knobs
    too, since each attempt's noise and scan generator are its own.
    Returns the batched block.
    """
    cursor = stream.at(stream.position)
    block = mechanism.propose_batch(batch_size, stream)
    batched = block.to_arrays()
    reference = SynthesisReport.merged(
        block.schema,
        [reference_propose(mechanism, cursor) for _ in range(batch_size)],
    ).to_arrays()
    for name, label in _COLUMN_LABELS.items():
        differ = np.flatnonzero(
            np.any((batched[name] != reference[name]).reshape(batch_size, -1), axis=1)
        )
        if differ.size:
            index = int(differ[0])
            raise InvariantViolation(
                f"attempt {cursor.position - batch_size + index} (seed "
                f"{batched['seed_indices'][index]}): batched {label} "
                f"{batched[name][index]} != reference {reference[name][index]}"
            )
    return block


# --------------------------------------------------------------------------- #
# Privacy-accountant spend conservation
# --------------------------------------------------------------------------- #
def check_accountant_conservation(
    accountant: PrivacyAccountant,
) -> tuple[float, float] | None:
    """Require the ledger's composed guarantees to conserve recorded spend.

    Checks, for a non-empty ledger (an empty one passes vacuously):

    * each scope's sequential (non-advanced) guarantee equals the exact sum of
      its entries' per-query spends;
    * advanced composition never reports more ε than sequential, and never
      less than the largest single-query ε (no spend vanishes);
    * δ never drops below the largest single-query δ;
    * the parallel-composition (disjoint scopes) total is the max over
      scopes, and never exceeds the sequential-over-scopes total.

    Returns the sequential total ``(ε, δ)``, or ``None`` for an empty ledger.
    """
    if not accountant.entries:
        return None
    scope_sequential: dict[str, tuple[float, float]] = {}
    for scope in accountant.scopes():
        entries = [entry for entry in accountant.entries if entry.scope == scope]
        epsilon = 0.0
        delta = 0.0
        for entry in entries:
            epsilon += entry.epsilon * entry.count
            delta += min(1.0, entry.delta * entry.count)
        delta = min(1.0, delta)
        reported = accountant.scope_guarantee(scope, use_advanced=False)
        _require(
            math.isclose(reported[0], epsilon, rel_tol=1e-12, abs_tol=0.0)
            and math.isclose(reported[1], delta, rel_tol=1e-12, abs_tol=0.0),
            f"scope {scope!r}: sequential guarantee {reported} does not equal "
            f"the recorded spend ({epsilon}, {delta})",
        )
        scope_sequential[scope] = (epsilon, delta)

        advanced = accountant.scope_guarantee(scope, use_advanced=True)
        _require(
            advanced[0] <= epsilon * (1 + 1e-12),
            f"scope {scope!r}: advanced composition ε {advanced[0]} exceeds "
            f"the sequential bound {epsilon}",
        )
        max_entry_epsilon = max(entry.epsilon for entry in entries)
        max_entry_delta = max(entry.delta for entry in entries)
        _require(
            advanced[0] >= max_entry_epsilon * (1 - 1e-12),
            f"scope {scope!r}: advanced composition ε {advanced[0]} "
            f"under-reports the largest single query ({max_entry_epsilon})",
        )
        _require(
            advanced[1] >= max_entry_delta * (1 - 1e-12),
            f"scope {scope!r}: composed δ {advanced[1]} under-reports the "
            f"largest single query ({max_entry_delta})",
        )

    joint = accountant.total_guarantee(use_advanced=False, disjoint_scopes=False)
    disjoint = accountant.total_guarantee(use_advanced=False, disjoint_scopes=True)
    expected_disjoint = (
        max(eps for eps, _ in scope_sequential.values()),
        max(delta for _, delta in scope_sequential.values()),
    )
    _require(
        disjoint == expected_disjoint,
        f"disjoint-scope total {disjoint} is not the max over scopes "
        f"{expected_disjoint}",
    )
    _require(
        disjoint[0] <= joint[0] * (1 + 1e-12) and disjoint[1] <= joint[1] + 1e-15,
        f"parallel-composition total {disjoint} exceeds the sequential total {joint}",
    )
    return joint


# --------------------------------------------------------------------------- #
# Theorem 1 / privacy-test semantics
# --------------------------------------------------------------------------- #
def check_theorem1_bounds(
    report: SynthesisReport,
    params: PlausibleDeniabilityParams,
    num_seed_records: int | None = None,
) -> None:
    """Require every attempt to obey the privacy-test and Theorem 1 semantics.

    Per attempt: the seed generated the candidate so its partition index is a
    real bucket (>= 0); the scan never examines more records than allowed; the
    deterministic test passes iff the plausible count reaches k exactly, and
    the randomized test iff it reaches the recorded noisy threshold.  For the
    randomized test the Theorem 1 algebra is also checked: the reported
    (ε, δ, t) reproduces the closed forms, ε decreases and δ increases in t.
    """
    scan_limit = num_seed_records if num_seed_records is not None else None
    if params.max_check_plausible is not None:
        scan_limit = (
            params.max_check_plausible
            if scan_limit is None
            else min(scan_limit, params.max_check_plausible)
        )
    columns = report.to_arrays()
    plausible = columns["plausible_seeds"]
    partitions = columns["partition_indices"]
    checked = columns["records_checked"]
    thresholds = columns["thresholds"]
    passed = columns["passed"]

    def require_rows(holds: np.ndarray, message: Callable[[int], str]) -> None:
        violations = np.flatnonzero(~holds)
        if violations.size:
            raise InvariantViolation(f"attempt {violations[0]}: {message(violations[0])}")

    require_rows(
        partitions >= 0,
        lambda i: "the true seed fell outside every probability bucket "
        f"(partition {partitions[i]})",
    )
    require_rows(plausible >= 0, lambda i: f"negative plausible-seed count {plausible[i]}")
    if params.max_check_plausible is None:
        require_rows(
            plausible >= 1,
            lambda i: f"a full scan must count the true seed itself, got {plausible[i]}",
        )
    if scan_limit is not None:
        require_rows(
            checked <= scan_limit,
            lambda i: f"scanned {checked[i]} records, limit {scan_limit}",
        )
    if params.max_plausible is not None:
        require_rows(
            plausible <= params.max_plausible,
            lambda i: f"plausible count {plausible[i]} exceeds "
            f"max_plausible {params.max_plausible}",
        )
    if params.is_randomized:
        require_rows(
            passed == (plausible >= thresholds),
            lambda i: f"randomized decision {passed[i]} contradicts count "
            f"{plausible[i]} vs threshold {thresholds[i]}",
        )
    else:
        require_rows(
            thresholds == float(params.k),
            lambda i: f"deterministic threshold {thresholds[i]} != k={params.k}",
        )
        require_rows(
            passed == (plausible >= params.k),
            lambda i: f"deterministic decision {passed[i]} contradicts "
            f"count {plausible[i]} vs k={params.k}",
        )

    if params.is_randomized and params.k >= 2:
        assert params.epsilon0 is not None
        epsilon, delta, t = theorem1_guarantee(params.k, params.gamma, params.epsilon0)
        _require(1 <= t < params.k, f"Theorem 1 chose t={t} outside [1, k)")
        _require(
            epsilon == theorem1_epsilon(params.epsilon0, params.gamma, t)
            and delta == theorem1_delta(params.epsilon0, params.k, t),
            f"Theorem 1 guarantee ({epsilon}, {delta}, t={t}) does not "
            "reproduce the closed forms",
        )
        epsilons = [
            theorem1_epsilon(params.epsilon0, params.gamma, candidate)
            for candidate in range(1, params.k)
        ]
        deltas = [
            theorem1_delta(params.epsilon0, params.k, candidate)
            for candidate in range(1, params.k)
        ]
        _require(
            all(a > b for a, b in zip(epsilons, epsilons[1:])),
            "Theorem 1 ε must be strictly decreasing in t",
        )
        _require(
            # Strictly increasing except where e^(-ε0 (k - t)) underflows to
            # exactly 0.0 (large k·ε0): consecutive underflowed values tie at
            # 0.0 without any mathematical violation.
            all(a < b for a, b in zip(deltas, deltas[1:]) if not (a == 0.0 and b == 0.0)),
            "Theorem 1 δ must be increasing in t",
        )


# --------------------------------------------------------------------------- #
# Structure-learning engine equivalence
# --------------------------------------------------------------------------- #
def check_structure_engine_equivalence(
    dataset: Dataset,
    *,
    seed: int | None = None,
    **config_kwargs,
) -> DependencyStructure:
    """Require the vectorized and reference structure engines to agree.

    Without DP (no ``epsilon_entropy`` in ``config_kwargs``) the engines must
    produce bit-exact entropy tables and identical learned structures.  With
    DP (pass ``seed`` for the noise stream) the noise is assigned to entropy
    values in a different order by design, so the checked contract is instead:
    identical ledger spend, identical generator stream position after
    learning, and a valid DAG from both engines.  Returns the vectorized
    engine's structure.
    """
    accountants = {
        engine: PrivacyAccountant() for engine in ("reference", "vectorized")
    }
    learners = {
        engine: StructureLearner(
            StructureLearningConfig(engine=engine, **config_kwargs),
            accountants[engine],
        )
        for engine in ("reference", "vectorized")
    }
    is_dp = config_kwargs.get("epsilon_entropy") is not None
    if not is_dp:
        reference_tables = learners["reference"].entropy_tables(dataset)
        vectorized_tables = learners["vectorized"].entropy_tables(dataset)
        names = ("H(x)", "H(bkt)", "H(x,bkt)", "H(bkt,bkt)")
        for name, expected, actual in zip(names, reference_tables, vectorized_tables):
            if not np.array_equal(expected, actual):
                raise InvariantViolation(
                    f"{name} entropies are not bit-identical across engines"
                )
        reference_structure = learners["reference"].learn(dataset)
        vectorized_structure = learners["vectorized"].learn(dataset)
        _require(
            reference_structure.parents == vectorized_structure.parents
            and reference_structure.order == vectorized_structure.order,
            "non-DP learned structures differ across engines: "
            f"{reference_structure.parents} vs {vectorized_structure.parents}",
        )
        return vectorized_structure

    if seed is None:
        raise ValueError("DP structure equivalence requires a seed for the noise stream")
    import networkx as nx

    results = {}
    for engine, learner in learners.items():
        rng = np.random.default_rng(seed)
        structure = learner.learn(dataset, rng)
        _require(
            nx.is_directed_acyclic_graph(structure.as_digraph()),
            f"{engine} engine produced a cyclic DP structure",
        )
        results[engine] = (structure, rng.bit_generator.state)
    _require(
        accountants["reference"].entries == accountants["vectorized"].entries,
        "DP engines recorded different privacy spend",
    )
    _require(
        results["reference"][1] == results["vectorized"][1],
        "DP engines consumed a different number of random variates "
        "(generator stream positions diverge)",
    )
    return results["vectorized"][0]
