"""Parallel synthesis engine scaling on the ACS workload.

The paper's Section 5 / Figure 5 argument is that seed-based synthesis is
embarrassingly parallel: every proposal depends only on its own seed, so
throughput should scale with cores.  This benchmark measures the chunk-
dispatching :class:`~repro.core.engine.SynthesisEngine` at a fixed attempt
budget for several worker counts, with each pool started (workers spawned,
shared-memory seed matrix and model tables attached, match index built)
*before* timing begins — the numbers are steady-state chunk throughput, not
process startup.

Because every attempt draws from its own counter-addressed words, every
worker count produces the identical merged report; the benchmark asserts
that too, so the speedup column is a pure scheduling measurement.

Floors (only asserted when the machine actually has the cores):

* full mode — >= 2.5x throughput at 4 workers vs the in-process serial
  reference (needs >= 4 CPUs);
* ``--smoke`` (CI) — the 2-worker pool must beat 1 worker on wall-clock at
  the same attempt budget (needs >= 2 CPUs).

Scale knobs (environment variables):

* ``REPRO_BENCH_ENGINE_RAW_RECORDS`` (default 40000, smoke 12000);
* ``REPRO_BENCH_ENGINE_ATTEMPTS`` (default 20000, smoke 6000);
* ``REPRO_BENCH_ENGINE_CHUNK`` (default 256) — attempts per dispatched chunk;
* ``REPRO_BENCH_ENGINE_SMOKE`` — any non-empty value selects smoke scale.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.engine import SynthesisEngine
from repro.datasets.acs import load_acs
from repro.datasets.splits import split_dataset
from repro.experiments.harness import ExperimentResult
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

FULL_RAW_RECORDS = 40_000
FULL_ATTEMPTS = 20_000
SMOKE_RAW_RECORDS = 12_000
SMOKE_ATTEMPTS = 6_000
FULL_FLOOR_WORKERS = 4
FULL_FLOOR = 2.5
BATCH_SIZE = 128


def _int_env(name: str, default: int) -> int:
    value = os.environ.get(name)
    return int(value) if value else default


def _smoke_env() -> bool:
    return bool(os.environ.get("REPRO_BENCH_ENGINE_SMOKE"))


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _build_workload(raw_records: int):
    dataset = load_acs(num_records=raw_records, seed=11)
    splits = split_dataset(dataset, rng=np.random.default_rng(17))
    spec = GenerativeModelSpec(omega=9, epsilon_structure=None, epsilon_parameters=None)
    model = fit_bayesian_network(
        splits.structure, splits.parameters, spec=spec, rng=np.random.default_rng(18)
    )
    params = PlausibleDeniabilityParams(k=50, gamma=4.0, epsilon0=1.0)
    return model, splits.seeds, params


def run_benchmark(
    raw_records: int,
    num_attempts: int,
    chunk_size: int,
    worker_counts: tuple[int, ...],
) -> tuple[ExperimentResult, dict[int, float]]:
    """Time the engine at a fixed attempt budget for each worker count."""
    model, seeds, params = _build_workload(raw_records)

    result = ExperimentResult(
        name=(
            f"Parallel engine scaling (ACS workload, omega=9, k=50, "
            f"attempts={num_attempts}, chunk={chunk_size}, batch={BATCH_SIZE})"
        ),
        headers=["workers", "attempts", "seconds", "attempts / second", "speedup"],
        notes=(
            f"seed records: {len(seeds)}; pool startup excluded; identical "
            f"merged reports across worker counts; cpus available: "
            f"{_available_cpus()}"
        ),
    )
    seconds: dict[int, float] = {}
    reference_released = None
    for workers in worker_counts:
        with SynthesisEngine(
            model,
            seeds,
            params,
            num_workers=workers,
            chunk_size=chunk_size,
            batch_size=BATCH_SIZE,
        ) as engine:
            engine.start()
            start = time.perf_counter()
            report = engine.run_attempts(num_attempts, base_seed=23)
            elapsed = time.perf_counter() - start
        seconds[workers] = elapsed
        released = report.released_dataset().data
        if reference_released is None:
            reference_released = released
        elif not np.array_equal(reference_released, released):
            raise AssertionError(
                f"{workers}-worker release set diverged from the serial reference"
            )
        baseline = seconds[worker_counts[0]]
        result.add_row(
            workers,
            report.num_attempts,
            elapsed,
            report.num_attempts / elapsed if elapsed > 0 else float("inf"),
            baseline / elapsed if elapsed > 0 else float("inf"),
        )
    return result, seconds


def _scale() -> tuple[int, int, int, tuple[int, ...]]:
    smoke = _smoke_env()
    raw_records = _int_env(
        "REPRO_BENCH_ENGINE_RAW_RECORDS", SMOKE_RAW_RECORDS if smoke else FULL_RAW_RECORDS
    )
    attempts = _int_env(
        "REPRO_BENCH_ENGINE_ATTEMPTS", SMOKE_ATTEMPTS if smoke else FULL_ATTEMPTS
    )
    chunk = _int_env("REPRO_BENCH_ENGINE_CHUNK", 256)
    worker_counts = (1, 2) if smoke else (1, 2, 4)
    return raw_records, attempts, chunk, worker_counts


def _check_floors(seconds: dict[int, float], smoke: bool) -> list[str]:
    """Floor violations, as human-readable failure strings (empty = pass)."""
    cpus = _available_cpus()
    failures = []
    if smoke:
        if cpus >= 2 and 2 in seconds and seconds[2] >= seconds[1]:
            failures.append(
                f"2-worker engine must beat 1 worker on wall-clock: "
                f"{seconds[2]:.2f}s vs {seconds[1]:.2f}s"
            )
    else:
        if cpus >= FULL_FLOOR_WORKERS and FULL_FLOOR_WORKERS in seconds:
            speedup = seconds[1] / seconds[FULL_FLOOR_WORKERS]
            if speedup < FULL_FLOOR:
                failures.append(
                    f"{FULL_FLOOR_WORKERS}-worker speedup {speedup:.2f}x below "
                    f"the {FULL_FLOOR}x floor"
                )
    return failures


def _record_json(raw_records, attempts, chunk, worker_counts, seconds) -> None:
    from conftest import write_benchmark_json

    best = min(seconds.values())
    write_benchmark_json(
        "bench_parallel_engine",
        params={
            "raw_records": raw_records,
            "attempts": attempts,
            "chunk_size": chunk,
            "batch_size": BATCH_SIZE,
            "worker_counts": list(worker_counts),
        },
        wall_time=sum(seconds.values()),
        throughput=attempts / best if best > 0 else None,
        extra={"seconds_per_worker_count": {str(w): s for w, s in seconds.items()}},
    )


def test_parallel_engine_scaling(record_result):
    raw_records, attempts, chunk, worker_counts = _scale()
    result, seconds = run_benchmark(raw_records, attempts, chunk, worker_counts)
    record_result("parallel_engine.txt", result)
    _record_json(raw_records, attempts, chunk, worker_counts, seconds)
    failures = _check_floors(seconds, _smoke_env())
    assert not failures, "; ".join(failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes; assert only that 2 workers beat 1",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        os.environ["REPRO_BENCH_ENGINE_SMOKE"] = "1"

    raw_records, attempts, chunk, worker_counts = _scale()
    result, seconds = run_benchmark(raw_records, attempts, chunk, worker_counts)
    print(result.to_text())
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "parallel_engine.txt").write_text(result.to_text() + "\n")
    _record_json(raw_records, attempts, chunk, worker_counts, seconds)

    cpus = _available_cpus()
    needed = 2 if args.smoke else FULL_FLOOR_WORKERS
    if cpus < needed:
        print(
            f"NOTE: only {cpus} cpu(s) available; the {needed}-worker floor "
            "was measured but not asserted"
        )
        return 0
    failures = _check_floors(seconds, args.smoke)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("OK: scaling floors satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())
