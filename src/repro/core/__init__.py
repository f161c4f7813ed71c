"""Core of the paper: Mechanism 1 and the end-to-end synthesis pipeline.

* :mod:`repro.core.config` — configuration objects tying together the privacy
  test parameters and the generative-model specification;
* :mod:`repro.core.mechanism` — Mechanism 1 (seed → candidate → privacy test →
  release) with both the deterministic and randomized privacy tests; its one
  proposal loop is ``run_attempts`` over ``propose_batch``;
* :mod:`repro.core.results` — release bookkeeping (attempts as columns, pass
  rates);
* :mod:`repro.core.pipeline` — the full tool: split the data, fit the DP
  generative model, generate and filter synthetics, report the privacy budget;
* :mod:`repro.core.stream` — counter-addressed randomness: every draw of
  attempt i is a function of (base seed, i, slot);
* :mod:`repro.core.engine` — the chunk-dispatching synthesis engine that runs
  every until-N release, in-process or on a persistent shared-memory worker
  pool (Section 5 / Figure 5), with until-N dispatch and checkpointing;
  neither the worker count nor the chunk or batch size changes the rows;
* :mod:`repro.core.run_store` — disk-backed artifact store and run
  checkpoints shared by the pipeline, the experiments and the CLI.
"""

from repro.core.config import GenerationConfig
from repro.core.engine import (
    ChunkProgress,
    ChunkRetryExhaustedError,
    EngineBrokenError,
    SynthesisEngine,
)
from repro.core.mechanism import SynthesisMechanism
from repro.core.pipeline import SynthesisPipeline
from repro.core.results import SynthesisReport
from repro.core.run_store import RunStore

__all__ = [
    "ChunkProgress",
    "ChunkRetryExhaustedError",
    "EngineBrokenError",
    "GenerationConfig",
    "RunStore",
    "SynthesisEngine",
    "SynthesisMechanism",
    "SynthesisPipeline",
    "SynthesisReport",
]
