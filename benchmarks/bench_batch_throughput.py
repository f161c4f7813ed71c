"""Mechanism 1 throughput on the ACS workload, against the scalar oracle.

The paper's headline scalability claim (Section 5, Figure 5) is that
seed-based synthesis is embarrassingly parallel and can emit millions of
records.  ``SynthesisMechanism.run_attempts`` pushes whole blocks of seeds
through vectorized generation and the prefix-key privacy test, amortizing
the per-record Python overhead of the paper's one-candidate loop, which
survives as the test oracle ``repro.testing.invariants.reference_propose``.
This benchmark measures candidate throughput for both on the same fitted
model, ``run_attempts`` at batch 256 (the default before attempts were
counter-addressed) and at the production default 2,048, and asserts for each
batch size:

* ``run_attempts`` is at least 10x faster per candidate than the oracle, and
* its privacy-test pass rate matches the oracle's within sampling noise
  (batching is a pure performance optimization).

Both batch sizes propose the same attempts, so their pass rates must be
equal.

Scale knobs (environment variables):

* ``REPRO_BENCH_BATCH_RAW_RECORDS`` (default 40000) — raw ACS-like records;
* ``REPRO_BENCH_BATCH_SINGLE_ATTEMPTS`` (default 300) — oracle candidates;
* ``REPRO_BENCH_BATCH_BATCHED_ATTEMPTS`` (default 3000) — ``run_attempts`` candidates.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest
from conftest import run_once

from repro.core.mechanism import SynthesisMechanism
from repro.core.results import SynthesisReport
from repro.core.stream import attempt_stream
from repro.datasets.acs import load_acs
from repro.datasets.splits import split_dataset
from repro.experiments.harness import ExperimentResult
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.testing.invariants import reference_propose


def _int_env(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


RAW_RECORDS = _int_env("REPRO_BENCH_BATCH_RAW_RECORDS", 40_000)
SINGLE_ATTEMPTS = _int_env("REPRO_BENCH_BATCH_SINGLE_ATTEMPTS", 300)
BATCHED_ATTEMPTS = _int_env("REPRO_BENCH_BATCH_BATCHED_ATTEMPTS", 3_000)
BATCH_SIZES = (256, 2048)


@pytest.fixture(scope="module")
def batch_mechanism() -> SynthesisMechanism:
    """Mechanism 1 on the ACS workload (omega=9, gamma=4, deterministic test).

    k is raised above the paper's 50 so the privacy test actually rejects a
    fraction of the candidates at this scaled-down seed-set size — with the
    paper's k every candidate passes and the pass-rate comparison would be
    vacuous.  The deterministic test keeps that comparison free of threshold
    noise; the generation and probability work being timed is identical for
    the randomized test.  The prefix-key index is built here, so neither
    timed ``run_attempts`` row pays its one-off sort.
    """
    dataset = load_acs(num_records=RAW_RECORDS, seed=11)
    splits = split_dataset(dataset, rng=np.random.default_rng(17))
    spec = GenerativeModelSpec(omega=9, epsilon_structure=None, epsilon_parameters=None)
    model = fit_bayesian_network(
        splits.structure, splits.parameters, spec=spec, rng=np.random.default_rng(18)
    )
    params = PlausibleDeniabilityParams(k=200, gamma=4.0)
    return SynthesisMechanism(model, splits.seeds, params).prepare()


def _run_comparison(mechanism: SynthesisMechanism) -> ExperimentResult:
    start = time.perf_counter()
    stream = attempt_stream(31)
    single = SynthesisReport.merged(
        mechanism.seed_dataset.schema,
        [reference_propose(mechanism, stream) for _ in range(SINGLE_ATTEMPTS)],
    )
    single_seconds = time.perf_counter() - start

    result = ExperimentResult(
        name="Batched Mechanism 1 throughput (ACS workload, omega=9, k=200, gamma=4)",
        headers=["path", "attempts", "seconds", "candidates / second", "pass rate"],
        notes=f"seed records: {len(mechanism.seed_dataset)}",
    )
    result.add_row(
        "scalar oracle",
        single.num_attempts,
        single_seconds,
        single.num_attempts / single_seconds,
        single.pass_rate,
    )
    for batch_size in BATCH_SIZES:
        start = time.perf_counter()
        batched = mechanism.run_attempts(
            BATCHED_ATTEMPTS, attempt_stream(32), batch_size=batch_size
        )
        batched_seconds = time.perf_counter() - start
        result.add_row(
            f"run_attempts, batch {batch_size}",
            batched.num_attempts,
            batched_seconds,
            batched.num_attempts / batched_seconds,
            batched.pass_rate,
        )
    return result


def test_batched_throughput_and_pass_rate(benchmark, batch_mechanism, record_result):
    result = run_once(benchmark, lambda: _run_comparison(batch_mechanism))
    record_result("batch_throughput.txt", result)

    single_rate, *batched_rates = result.column("candidates / second")
    single_pass, *batched_passes = result.column("pass rate")

    for batch_size, batched_rate, batched_pass in zip(
        BATCH_SIZES, batched_rates, batched_passes
    ):
        assert batched_rate >= 10.0 * single_rate, (
            f"run_attempts at batch {batch_size} must be >= 10x faster than the "
            f"oracle: {batched_rate:.0f} vs {single_rate:.0f} candidates/s"
        )

        # Two-proportion comparison: both draw i.i.d. candidates from the same
        # distribution, so the pass rates differ only by noise.
        pooled = (
            single_pass * SINGLE_ATTEMPTS + batched_pass * BATCHED_ATTEMPTS
        ) / (SINGLE_ATTEMPTS + BATCHED_ATTEMPTS)
        sigma = np.sqrt(
            max(pooled * (1.0 - pooled), 1e-4)
            * (1.0 / SINGLE_ATTEMPTS + 1.0 / BATCHED_ATTEMPTS)
        )
        assert abs(single_pass - batched_pass) < 5.0 * sigma + 1e-9, (
            f"pass rates diverge beyond noise at batch {batch_size}: "
            f"{single_pass:.3f} vs {batched_pass:.3f} (sigma {sigma:.4f})"
        )
    # The same attempts release the same rows whatever the batch size.
    assert len(set(batched_passes)) == 1, batched_passes
