"""Ablation: MAP point-estimate vs posterior-sampled conditional tables.

The paper samples the multinomial parameters from the Dirichlet posterior
(Eq. 12) "to increase the variety of data samples" instead of using the most
likely parameters (Eq. 13).  This ablation fits both variants and compares the
statistical fidelity and the diversity (unique-record fraction) of the
generated data.
"""

import numpy as np
from conftest import run_once

from repro.core.stream import attempt_stream
from repro.experiments.harness import ExperimentResult
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network
from repro.stats.distance import pairwise_attribute_distances


def _generate(context, sample_parameters, num_records=1_500):
    spec = GenerativeModelSpec(
        omega=11,
        epsilon_structure=None,
        epsilon_parameters=None,
        sample_parameters=sample_parameters,
    )
    model = fit_bayesian_network(
        context.splits.structure, context.splits.parameters, spec=spec, rng=context.rng(120)
    )
    # Ancestral sampling: every attribute re-sampled, whatever the seed rows.
    m = len(model.schema)
    words = attempt_stream(int(context.rng(121).integers(2**63))).take(num_records, m)
    seeds = np.zeros((num_records, m), dtype=np.int64)
    return model.generate_batch(seeds, words, omegas=np.full(num_records, m))


def _compare(context):
    reference = context.reals_dataset(1_500).data
    cardinalities = context.dataset.schema.cardinalities
    result = ExperimentResult(
        name="Ablation — MAP vs posterior-sampled conditional tables",
        headers=["parameterization", "mean pairwise TVD vs reals", "unique record fraction"],
    )
    for label, sample_parameters in (("MAP point estimate", False), ("posterior sample", True)):
        records = _generate(context, sample_parameters)
        distances = pairwise_attribute_distances(reference, records, cardinalities)
        unique_fraction = len(np.unique(records, axis=0)) / len(records)
        result.add_row(label, float(np.mean(list(distances.values()))), unique_fraction)
    return result


def test_ablation_parameter_sampling(benchmark, context, record_result):
    result = run_once(benchmark, lambda: _compare(context))
    record_result("ablation_parameters.txt", result)

    map_fidelity = result.rows[0][1]
    sampled_fidelity = result.rows[1][1]
    # Posterior sampling injects extra variance but must not destroy fidelity.
    assert sampled_fidelity < map_fidelity + 0.1
    assert all(0.0 < row[2] <= 1.0 for row in result.rows)
