"""Pinned digests of the batched kernels on the ACS fixtures.

The golden registry (``repro.testing check``) has no ``bucket_map`` attribute
and no ω above 6, so it cannot see a change to how the kernels bucketize,
index configurations or sample at ACS scale.  These digests were recorded
when attempts became counter-addressed (stream version 2); any change to the
kernels must reproduce every released row, threshold and count bit for bit.
Attempts are a pure function of (base seed, attempt index), so the same
attempts proposed in batches of 1, 7 and 256 must give one digest.  The
learned ``unnoised_model`` conditions on no bucketized attribute, so a
hand-built network whose parents include SCHL (``bucket_map``) and AGEP/WKHP
(``bucket_size``) covers bucketization, with a mixed ω set.
"""

import hashlib

import numpy as np

from repro.core.mechanism import SynthesisMechanism
from repro.core.results import COLUMNS
from repro.core.stream import attempt_stream
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.parameters import ParameterLearner
from repro.generative.structure import DependencyStructure
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams

PROPOSE_BATCH_DIGEST = "fdd18ff8d16b84a919d7622e60ed12fec9a3b1de242a8d57d23ce573b92c758d"
MIXED_OMEGA_DIGEST = "5825c19ed007bc452e52181081afbce8d8b3043a18580dc0879ee96343e639bd"
BUCKETIZED_PARENTS_DIGESTS = (
    "670b673608e02a31188cc8b8144aeae4a682b3b3ab9897f9c5c219952f3e6f92",
    "61420460d445fb93ab337986c4068f834d2003e00263c0665d6e10da65adfe3d",
)


def _digest(arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


#: Attempts each digest covers: a 1, 7 or 256 batch grid ends mid-batch.
ATTEMPTS = 792


def _propose_batch_digests(model, seeds, base_seed) -> dict[int, str]:
    """Digest of the same attempts' columns, per proposal batch size."""
    # The randomized test, so the Laplace thresholds are part of the digest;
    # k = 200 rejects about a quarter of unnoised_model's candidates.
    params = PlausibleDeniabilityParams(k=200, gamma=4.0, epsilon0=1.0)
    mechanism = SynthesisMechanism(model, seeds, params)
    digests = {}
    for batch_size in (1, 7, 256):
        stream = attempt_stream(base_seed)
        blocks = []
        while stream.position < ATTEMPTS:
            size = min(batch_size, ATTEMPTS - stream.position)
            blocks.append(mechanism.propose_batch(size, stream).to_arrays())
        digests[batch_size] = _digest(
            np.concatenate([block[name] for block in blocks]) for name in COLUMNS
        )
    return digests


def test_propose_batch_blocks_match_pinned_digest(unnoised_model, acs_splits):
    digests = _propose_batch_digests(unnoised_model, acs_splits.seeds, 1501)
    assert digests == dict.fromkeys((1, 7, 256), PROPOSE_BATCH_DIGEST)


def test_generate_batch_with_mixed_omegas_matches_pinned_digest(unnoised_model, acs_splits):
    seeds = acs_splits.seeds.data[:600]
    m = len(unnoised_model.schema)
    omegas = np.random.default_rng(1502).integers(0, m + 1, size=len(seeds))
    records = unnoised_model.generate_batch(
        seeds, attempt_stream(1502).take(len(seeds), m), omegas=omegas
    )
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
    digests = _propose_batch_digests(model, acs_splits.seeds, 1503)
    assert len(set(digests.values())) == 1  # batch sizes 1, 7 and 256 agree
    seeds = acs_splits.seeds.data[:300]
    columns = [
        model.candidate_factor_suffix_products(seeds),
        model.generate_batch(seeds, attempt_stream(1504).take(len(seeds), len(schema))),
    ]
    assert (digests[1], _digest(columns)) == BUCKETIZED_PARENTS_DIGESTS
