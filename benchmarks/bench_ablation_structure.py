"""Ablation: effect of the parent-cost budget and bucketization on the model.

The structure learner's `maxcost` constraint (Eq. 6) and the bucketization of
parent attributes (Eq. 7) control the complexity of the conditional tables.
This ablation fits the un-noised model under several budgets and reports the
number of edges and the pairwise statistical fidelity of sampled records.
"""

import numpy as np
from conftest import run_once

from repro.core.stream import attempt_stream
from repro.experiments.harness import ExperimentResult
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network
from repro.generative.structure import StructureLearningConfig
from repro.stats.distance import pairwise_attribute_distances


def _fidelity(context, model, num_records=1_500):
    # Ancestral sampling: every attribute re-sampled, whatever the seed rows.
    m = len(model.schema)
    words = attempt_stream(int(context.rng(111).integers(2**63))).take(num_records, m)
    seeds = np.zeros((num_records, m), dtype=np.int64)
    records = model.generate_batch(seeds, words, omegas=np.full(num_records, m))
    reference = context.reals_dataset(num_records).data
    distances = pairwise_attribute_distances(
        reference, records, context.dataset.schema.cardinalities
    )
    return float(np.mean(list(distances.values())))


def _sweep_parent_cost(context, budgets=(1, 25, 100, 300)):
    result = ExperimentResult(
        name="Ablation — parent-cost budget (un-noised model, omega=11)",
        headers=["max parent cost", "edges", "mean pairwise TVD vs reals"],
    )
    for budget in budgets:
        spec = GenerativeModelSpec(
            omega=11,
            epsilon_structure=None,
            epsilon_parameters=None,
            structure=StructureLearningConfig(max_parent_cost=budget),
        )
        model = fit_bayesian_network(
            context.splits.structure, context.splits.parameters, spec=spec, rng=context.rng(112)
        )
        result.add_row(budget, model.structure.num_edges, _fidelity(context, model))
    return result


def test_ablation_parent_cost_budget(benchmark, context, record_result):
    result = run_once(benchmark, lambda: _sweep_parent_cost(context))
    record_result("ablation_structure_cost.txt", result)

    edges = result.column("edges")
    fidelity = result.column("mean pairwise TVD vs reals")
    # A cost budget of 1 forces an edgeless (independent) model; larger
    # budgets add edges and improve pairwise fidelity.
    assert edges[0] == 0
    assert edges[-1] > edges[0]
    assert fidelity[-1] < fidelity[0]
