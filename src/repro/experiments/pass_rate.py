"""Figure 6: fraction of candidate synthetics that pass the privacy test.

The paper sweeps the plausible-deniability threshold k for several ω values
(γ = 2) and reports the percentage of generated candidates that pass the
privacy test.  The pass rate falls as k grows (stricter privacy) and rises
with ω (the fewer attributes are copied from the seed, the more records are
plausible seeds), yet stays substantial even for strict settings — which is
what makes large-scale synthesis practical.
"""

from __future__ import annotations

import numpy as np

from repro.core.mechanism import SynthesisMechanism
from repro.core.stream import attempt_stream
from repro.experiments.harness import ExperimentContext, ExperimentResult
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

__all__ = ["run_pass_rate_sweep", "plausible_seed_counts", "pass_rate_for_parameters"]


def _omega_label(omega: int | tuple[int, ...]) -> str:
    if isinstance(omega, tuple):
        return f"omega in [{min(omega)}-{max(omega)}]"
    return f"omega={omega}"


def plausible_seed_counts(
    model: BayesianNetworkSynthesizer,
    seeds,
    num_candidates: int,
    gamma: float,
    rng: np.random.Generator,
    batch_size: int = 2048,
) -> np.ndarray:
    """Plausible-seed count of ``num_candidates`` freshly generated candidates.

    For every candidate the count is the number of seed records whose
    generation probability falls into the same geometric bucket as the true
    seed's — the quantity the privacy test compares against k.  Computing the
    counts once lets a whole k-sweep reuse the same candidates.  The counts
    are Mechanism 1's own: the first ``num_candidates`` attempts of a stream
    keyed by a base seed drawn from ``rng``, run with k = 1 so that the
    mechanism reports every attempt's count whatever the sweep's k.
    ``batch_size`` is the mechanism's speed knob and cannot change a count.
    """
    mechanism = SynthesisMechanism(model, seeds, PlausibleDeniabilityParams(k=1, gamma=gamma))
    stream = attempt_stream(int(rng.integers(2**63)))
    return mechanism.run_attempts(num_candidates, stream, batch_size=batch_size)[
        "plausible_seeds"
    ]


def pass_rate_for_parameters(
    context: ExperimentContext,
    omega: int | tuple[int, ...],
    k: int,
    gamma: float,
    num_candidates: int,
    rng: np.random.Generator | None = None,
) -> float:
    """Fraction of candidates passing the deterministic test for one (k, γ, ω)."""
    generator = rng if rng is not None else context.rng(89)
    model = context.model_for_omega(omega)
    counts = plausible_seed_counts(
        model, context.splits.seeds, num_candidates, gamma, generator
    )
    return float(np.mean(counts >= k))


def run_pass_rate_sweep(
    context: ExperimentContext | None = None,
    k_values: tuple[int, ...] = (10, 25, 50, 100, 150, 250),
    omegas: tuple[int | tuple[int, ...], ...] = (7, 8, 9, 10, (5, 6, 7, 8, 9, 10, 11)),
    gamma: float = 2.0,
    num_candidates: int = 200,
) -> ExperimentResult:
    """Figure 6: pass-rate curves over k for each ω (γ = 2).

    Uses the deterministic privacy test so the sweep isolates the effect of k
    and ω (the randomized test adds threshold noise on top, which only blurs
    the curve near the threshold).
    """
    ctx = context if context is not None else ExperimentContext()

    headers = ["k"] + [_omega_label(omega) for omega in omegas]
    result = ExperimentResult(
        name="Figure 6 — privacy-test pass rate vs k (gamma=2)",
        headers=headers,
        notes="fraction of candidate synthetics passing the deterministic privacy test",
    )

    # Generate candidates once per omega; every k threshold reuses the counts.
    counts_per_omega = []
    for omega_index, omega in enumerate(omegas):
        model = ctx.model_for_omega(omega)
        counts = plausible_seed_counts(
            model, ctx.splits.seeds, num_candidates, gamma, ctx.rng(90 + omega_index)
        )
        counts_per_omega.append(counts)

    for k in k_values:
        rates = [float(np.mean(counts >= k)) for counts in counts_per_omega]
        result.add_row(k, *rates)
    return result
