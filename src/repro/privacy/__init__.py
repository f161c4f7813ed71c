"""Privacy substrate: Laplace mechanism, DP composition, plausible deniability.

This package contains the paper's privacy machinery:

* the Laplace mechanism and DP composition theorems (Appendix A) used by the
  differentially-private model-learning pipeline (Section 3.5),
* the plausible-deniability criterion (Definition 1), the deterministic and
  randomized privacy tests (Privacy Tests 1 and 2), and the Theorem 1 algebra
  linking the randomized test to (ε, δ)-differential privacy.
"""

from repro.privacy.accountant import BudgetEntry, PrivacyAccountant
from repro.privacy.composition import (
    advanced_composition,
    amplification_by_sampling,
    sequential_composition,
)
from repro.privacy.laplace import laplace_mechanism, laplace_noise
from repro.privacy.release import (
    DatasetReleaseGuarantee,
    dataset_release_guarantee,
    max_releasable_records,
)
from repro.privacy.plausible_deniability import (
    DeterministicPrivacyTest,
    PlausibleDeniabilityParams,
    RandomizedPrivacyTest,
    batch_plausible_seed_counts,
    make_privacy_test,
    partition_number,
    partition_numbers,
    plausible_seed_count,
    satisfies_plausible_deniability,
    theorem1_delta,
    theorem1_epsilon,
    theorem1_guarantee,
    minimum_k_for_delta,
)

__all__ = [
    "laplace_noise",
    "laplace_mechanism",
    "sequential_composition",
    "advanced_composition",
    "amplification_by_sampling",
    "PrivacyAccountant",
    "BudgetEntry",
    "PlausibleDeniabilityParams",
    "DeterministicPrivacyTest",
    "RandomizedPrivacyTest",
    "make_privacy_test",
    "partition_number",
    "partition_numbers",
    "plausible_seed_count",
    "batch_plausible_seed_counts",
    "satisfies_plausible_deniability",
    "theorem1_epsilon",
    "theorem1_delta",
    "theorem1_guarantee",
    "minimum_k_for_delta",
    "DatasetReleaseGuarantee",
    "dataset_release_guarantee",
    "max_releasable_records",
]
