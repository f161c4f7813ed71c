"""Generative models: the seed-based Bayesian-network synthesizer and baselines.

This package implements Section 3 of the paper:

* :mod:`repro.generative.structure` — dependency-structure learning via greedy
  Correlation-based Feature Selection, with a differentially-private variant;
* :mod:`repro.generative.parameters` — Dirichlet-multinomial conditional
  probability tables, with differentially-private counts;
* :mod:`repro.generative.bayesian_network` — the seed-based synthesizer that
  copies ``m - ω`` attributes from the seed and re-samples the remaining ω;
* :mod:`repro.generative.marginal` — the independent-marginals baseline;
* :mod:`repro.generative.builder` — an end-to-end fitting helper that trains
  the DP model from the DT / DP splits and tracks the privacy budget.

There is no abstract model interface: Mechanism 1
(:mod:`repro.core.mechanism`) runs on the Bayesian-network synthesizer and
calls its batch kernels (``generate_batch``, ``fixed_prefix_keys``,
``candidate_factor_suffix_products``, ``batch_probability_matrix``) directly.
The marginal baseline feeds only the utility experiments.
"""

from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network, fit_marginal_model
from repro.generative.marginal import MarginalSynthesizer
from repro.generative.parameters import (
    ConditionalParameters,
    ParameterLearner,
    sample_dirichlet_rows,
)
from repro.generative.structure import (
    DependencyStructure,
    StructureLearner,
    StructureLearningConfig,
)

__all__ = [
    "DependencyStructure",
    "StructureLearner",
    "StructureLearningConfig",
    "ConditionalParameters",
    "ParameterLearner",
    "sample_dirichlet_rows",
    "BayesianNetworkSynthesizer",
    "MarginalSynthesizer",
    "GenerativeModelSpec",
    "fit_bayesian_network",
    "fit_marginal_model",
]
