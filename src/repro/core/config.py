"""Configuration of the synthesis pipeline.

This mirrors the config file of the paper's C++ tool (Section 5): the privacy
parameters (k, γ, ε0, ``max_plausible``, ``max_check_plausible``), the
generative-model parameters (ω, DP epsilons for structure and parameter
learning) and the data split fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.generative.builder import GenerativeModelSpec
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

__all__ = ["GenerationConfig"]


@dataclass
class GenerationConfig:
    """Everything needed to run the synthesis tool end to end.

    Parameters
    ----------
    privacy:
        Plausible-deniability test parameters (k, γ, ε0, early-termination
        knobs).  The paper's defaults are k=50, γ=4, ε0=1.
    model:
        Generative-model specification (ω, DP budgets for model learning).
    seed_fraction, structure_fraction, parameter_fraction:
        Fractions of the input data assigned to the DS / DT / DP splits; the
        remainder is held out as a test set.
    max_attempts_per_release:
        Upper bound on how many candidates the mechanism may try per released
        record before giving up (guards against parameter combinations where
        almost nothing passes the test).
    batch_size:
        Most candidates per vectorized proposal batch of Mechanism 1, a
        positive int (default 8,192; 1 is a batch of one).  An in-process
        engine keeps each batch inside its chunk, so there the default
        proposes ``chunk_size``-attempt batches; on a worker pool it also
        bounds a worker's assignment at ``batch_size // chunk_size``
        consecutive chunks, computed as one batch.  A speed knob only:
        attempts are counter-addressed (:mod:`repro.core.stream`), so it
        never changes the released rows.
    num_workers:
        Worker processes of :class:`~repro.core.engine.SynthesisEngine`,
        which runs every release: 1 (the default) runs it in-process, larger
        values on a shared-memory worker pool.  A performance knob only: the
        released rows are the same for every worker count.
    chunk_size:
        Attempts per engine chunk (default 2,048).  It never changes the
        released rows; it is the grid of a run's checkpoints, progress
        events and crash retries, so resuming an engine run id requires the
        same chunk size.
    max_chunk_retries:
        How many times the engine supervisor may re-execute a chunk lost to
        a crashed worker before failing the job (0 = any crash fails the
        job).  Purely operational: retried chunks are bit-identical to the
        lost originals, so this knob never affects released rows and is
        excluded from fit artifact keys.
    """

    privacy: PlausibleDeniabilityParams = field(
        default_factory=lambda: PlausibleDeniabilityParams(k=50, gamma=4.0, epsilon0=1.0)
    )
    model: GenerativeModelSpec = field(default_factory=GenerativeModelSpec)
    seed_fraction: float = 0.55
    structure_fraction: float = 0.175
    parameter_fraction: float = 0.175
    max_attempts_per_release: int = 1000
    batch_size: int = 8192
    num_workers: int = 1
    chunk_size: int = 2048
    max_chunk_retries: int = 2

    def __post_init__(self) -> None:
        fractions = (self.seed_fraction, self.structure_fraction, self.parameter_fraction)
        if min(fractions) < 0:
            raise ValueError("split fractions must be non-negative")
        if sum(fractions) > 1.0 + 1e-9:
            raise ValueError("split fractions must sum to at most 1")
        if self.max_attempts_per_release < 1:
            raise ValueError("max_attempts_per_release must be positive")
        if self.batch_size is None or self.batch_size < 1:
            raise ValueError(
                f"batch_size must be a positive int, got {self.batch_size!r} "
                "(1 proposes one candidate per batch)"
            )
        if self.num_workers is None or self.num_workers < 1:
            raise ValueError(
                f"num_workers must be a positive int, got {self.num_workers!r} "
                "(1 runs the engine in-process)"
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if self.max_chunk_retries < 0:
            raise ValueError("max_chunk_retries must be non-negative")

    @classmethod
    def paper_defaults(cls, num_attributes: int = 11, total_epsilon: float = 1.0) -> "GenerationConfig":
        """The default parameters of the paper's evaluation (Section 6.1).

        k = 50, γ = 4, ε0 = 1, ω = 9, and an overall model-learning budget of
        ``total_epsilon`` (the paper uses ε = 1, with some results at ε = 0.1)
        split across the structure- and parameter-learning queries.
        """
        return cls(
            privacy=PlausibleDeniabilityParams(k=50, gamma=4.0, epsilon0=1.0),
            model=GenerativeModelSpec.with_total_epsilon(
                total_epsilon, num_attributes=num_attributes, omega=9
            ),
        )
