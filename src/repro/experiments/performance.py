"""Figure 5: generation performance (model learning vs synthesis time).

The paper's Figure 5 plots the cumulative time to produce increasing numbers
of synthetic records (ω=9, k=50, γ=4), separating the one-off model-learning
cost from the per-record synthesis cost, and notes that generation is
embarrassingly parallel.  This experiment measures the same breakdown on the
scaled-down dataset and additionally reports the multi-process speed-up.
"""

from __future__ import annotations

import time

from repro.core.engine import SynthesisEngine
from repro.core.stream import attempt_stream
from repro.experiments.harness import ExperimentContext, ExperimentResult

__all__ = ["run_performance_measurement", "run_parallel_scaling"]


def run_performance_measurement(
    context: ExperimentContext | None = None,
    checkpoints: tuple[int, ...] = (250, 500, 1_000, 2_000),
    batch_size: int = 256,
) -> ExperimentResult:
    """Figure 5: cumulative time to synthesize increasing numbers of records.

    Candidates are proposed in vectorized batches of ``batch_size``, as
    consecutive attempts of one stream.  The mechanism's prefix-key index is
    built inside the model-learning timer, so the synthesis column times
    synthesis alone.
    """
    ctx = context if context is not None else ExperimentContext()

    learn_start = time.perf_counter()
    mechanism = ctx.mechanism("omega=9").prepare()
    model_learning_seconds = time.perf_counter() - learn_start

    result = ExperimentResult(
        name="Figure 5 — synthetic generation performance (omega=9, k=50, gamma=4)",
        headers=[
            "synthetics produced",
            "model learning (s)",
            "synthesis (s)",
            "total (s)",
            "records / second",
        ],
    )
    stream = attempt_stream(int(ctx.rng(80).integers(2**63)))
    produced = 0
    synthesis_seconds = 0.0
    for checkpoint in sorted(checkpoints):
        batch = checkpoint - produced
        if batch <= 0:
            continue
        start = time.perf_counter()
        mechanism.run_attempts(batch, stream, batch_size=batch_size)
        synthesis_seconds += time.perf_counter() - start
        produced = checkpoint
        rate = produced / synthesis_seconds if synthesis_seconds > 0 else float("inf")
        result.add_row(
            produced,
            model_learning_seconds,
            synthesis_seconds,
            model_learning_seconds + synthesis_seconds,
            rate,
        )
    return result


def run_parallel_scaling(
    context: ExperimentContext | None = None,
    num_attempts: int = 1_000,
    worker_counts: tuple[int, ...] = (1, 2, 4),
    batch_size: int = 256,
    chunk_size: int = 128,
) -> ExperimentResult:
    """Throughput of the parallel synthesis engine for several worker counts.

    Each worker count uses a persistent engine whose pool is started (and
    whose workers have attached the shared-memory seed matrix and model
    tables) before timing begins, so the numbers reflect steady-state chunk
    throughput rather than process startup.  The single-worker row runs
    in-process; every row produces the identical release set, so the
    speedup column is a pure scheduling measurement.
    """
    ctx = context if context is not None else ExperimentContext()
    model = ctx.model("omega=9")
    seeds = ctx.splits.seeds
    params = ctx.privacy_params()

    result = ExperimentResult(
        name="Figure 5 (companion) — parallel engine scaling",
        headers=["workers", "attempts", "seconds", "attempts / second", "speedup"],
        notes="the synthesis of each record is independent of all others",
    )
    baseline_seconds: float | None = None
    for workers in worker_counts:
        with SynthesisEngine(
            model,
            seeds,
            params,
            num_workers=workers,
            chunk_size=chunk_size,
            batch_size=batch_size,
        ) as engine:
            engine.start()
            start = time.perf_counter()
            report = engine.run_attempts(num_attempts, base_seed=ctx.seed)
            elapsed = time.perf_counter() - start
        if baseline_seconds is None:
            baseline_seconds = elapsed
        result.add_row(
            workers,
            report.num_attempts,
            elapsed,
            report.num_attempts / elapsed if elapsed > 0 else float("inf"),
            baseline_seconds / elapsed if elapsed > 0 else float("inf"),
        )
    return result
