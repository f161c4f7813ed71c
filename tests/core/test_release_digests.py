"""Pinned digests of the batched kernels on the ACS fixtures.

The golden registry (``repro.testing check``) has no ``bucket_map`` attribute
and no ω above 6, so it cannot see a change to how the kernels bucketize,
index configurations or sample at ACS scale.  These digests were recorded
with the straightforward per-call kernels (commit 67f8b42); any change to the
kernels must reproduce every released row, threshold and count bit for bit.
The learned ``unnoised_model`` conditions on no bucketized attribute, so a
hand-built network whose parents include SCHL (``bucket_map``) and AGEP/WKHP
(``bucket_size``) covers bucketization, with a mixed ω set.
"""

import hashlib

import numpy as np

from repro.core.mechanism import SynthesisMechanism
from repro.core.results import COLUMNS
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.parameters import ParameterLearner
from repro.generative.structure import DependencyStructure
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

PROPOSE_BATCH_DIGEST = "4f596c38a6484524a8dbd42289cc81673364fb995eca7f8351e8d7c2e641c341"
MIXED_OMEGA_DIGEST = "a6e90bbc7f9135ab0e5f4599cc72b923eb1c3d0d431d5d3e97c1a6a6e581315d"
BUCKETIZED_PARENTS_DIGEST = "d05497fa4ec7246deb84e688b0ed9575bc2c861abdb613b79a8b1f3f69fed919"


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _propose_batch_columns(model, seeds, rng) -> list:
    # The randomized test, so the Laplace thresholds are part of the digest;
    # k = 200 rejects about a quarter of unnoised_model's candidates.
    params = PlausibleDeniabilityParams(k=200, gamma=4.0, epsilon0=1.0)
    mechanism = SynthesisMechanism(model, seeds, params)
    columns = []
    for batch_size in (1, 7, 256):
        for _ in range(3):
            block = mechanism.propose_batch(batch_size, rng).to_arrays()
            columns.extend(block[name] for name in COLUMNS)
    return columns


def test_propose_batch_blocks_match_pinned_digest(unnoised_model, acs_splits):
    columns = _propose_batch_columns(
        unnoised_model, acs_splits.seeds, np.random.default_rng(1501)
    )
    assert _digest(columns) == PROPOSE_BATCH_DIGEST


def test_generate_batch_with_mixed_omegas_matches_pinned_digest(unnoised_model, acs_splits):
    seeds = acs_splits.seeds.data[:600]
    m = len(unnoised_model.schema)
    rng = np.random.default_rng(1502)
    omegas = rng.integers(0, m + 1, size=len(seeds))
    records = unnoised_model.generate_batch(seeds, rng, omegas=omegas)
    assert _digest([omegas, records]) == MIXED_OMEGA_DIGEST


def test_bucketized_parents_match_pinned_digest(acs_splits):
    schema = acs_splits.parameters.schema
    index = schema.index_of
    parent_names = {
        "SCHL": ("AGEP",),
        "MAR": ("SCHL", "AGEP"),
        "OCCP": ("SCHL", "SEX"),
        "WKHP": ("AGEP",),
        "COW": ("WKHP",),
        "WAGP": ("WKHP", "SCHL"),
        "RELP": ("MAR",),
    }
    structure = DependencyStructure.from_parent_map(
        {index(child): tuple(index(p) for p in parents) for child, parents in parent_names.items()},
        len(schema),
    )
    tables = ParameterLearner().learn(acs_splits.parameters, structure)
    model = BayesianNetworkSynthesizer(schema, structure, tables, omega=(4, 7, 11))
    rng = np.random.default_rng(1503)
    columns = _propose_batch_columns(model, acs_splits.seeds, rng)
    seeds = acs_splits.seeds.data[:300]
    columns.append(model.candidate_factor_suffix_products(seeds))
    columns.append(model.generate_batch(seeds, rng))
    assert _digest(columns) == BUCKETIZED_PARENTS_DIGEST
