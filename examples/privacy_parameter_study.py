"""Study the privacy parameters: Theorem 1 trade-offs and pass rates.

Scenario (Sections 2 and 6 of the paper): before releasing data, the data
holder must choose the plausible-deniability parameters (k, γ, ε0).  The
script shows the two sides of that decision:

* the formal (ε, δ)-differential-privacy guarantee each setting implies for a
  released record (Theorem 1), and
* the practical cost: the fraction of candidate synthetics that survive the
  privacy test (Figure 6), which determines how fast data can be generated.

Run with:  python examples/privacy_parameter_study.py
"""

import numpy as np

from repro.core import SynthesisMechanism
from repro.core.stream import attempt_stream
from repro.datasets import load_acs
from repro.datasets.splits import split_dataset
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network
from repro.privacy import (
    PlausibleDeniabilityParams,
    minimum_k_for_delta,
    theorem1_guarantee,
)


def theorem1_table() -> None:
    print("Theorem 1 guarantees per released record (gamma=4, epsilon0=1):")
    print(f"  {'k':>5s}  {'epsilon':>8s}  {'delta':>10s}  {'t':>4s}")
    for k in (10, 25, 50, 100, 200):
        epsilon, delta, t = theorem1_guarantee(k=k, gamma=4.0, epsilon0=1.0)
        print(f"  {k:>5d}  {epsilon:>8.3f}  {delta:>10.2e}  {t:>4d}")
    needed = minimum_k_for_delta(delta_target=1e-9, epsilon0=1.0, t=20)
    print(f"for delta <= 1e-9 with t=20 one needs k >= {needed}")


def pass_rate_table() -> None:
    data = load_acs(num_records=60_000, seed=5)
    splits = split_dataset(data, rng=np.random.default_rng(0))
    # With k = 1 every attempt passes and reports its plausible-seed count,
    # so one run of 300 attempts per omega serves every k of the table.
    count_only = PlausibleDeniabilityParams(k=1, gamma=2.0)
    print("\nprivacy-test pass rate (gamma=2, 300 candidates per cell):")
    header = "  omega   " + "".join(f"k={k:<6d}" for k in (25, 50, 100, 200))
    print(header)
    for omega in (7, 9, 11):
        model = fit_bayesian_network(
            splits.structure,
            splits.parameters,
            spec=GenerativeModelSpec(omega=omega, epsilon_structure=None, epsilon_parameters=None),
            rng=np.random.default_rng(2),
        )
        mechanism = SynthesisMechanism(model, splits.seeds, count_only)
        counts = mechanism.run_attempts(300, attempt_stream(1))["plausible_seeds"]
        rates = "".join(f"{np.mean(counts >= k):<8.1%}" for k in (25, 50, 100, 200))
        print(f"  {omega:<8d}{rates}")

    params = PlausibleDeniabilityParams(k=50, gamma=2.0, epsilon0=1.0)
    print(f"\nexample parameter object: {params}")


def main() -> None:
    theorem1_table()
    pass_rate_table()


if __name__ == "__main__":
    main()
