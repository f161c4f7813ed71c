"""One walk over σ per proposal batch.

``generate_batch(..., suffix_products=out)`` forms the candidates' factors
q_ω(y) in the walk that samples them, and the prefix-key index answers the
largest ω's counts from each seed record's own key multiplicity.  These tests
pin both against their oracles bit for bit
(``candidate_factor_suffix_products``, and ``_SeedMatchIndex.multiplicities``
of ``fixed_prefix_keys``) and check that a proposal batch no longer calls
them.  Both walks form configuration indices from the same per-parent
lookups, so the indices are pinned on their own against
``ConditionalParameters.configuration_indices`` of bucketized records.
"""

import numpy as np
import pytest

from repro.core.mechanism import SynthesisMechanism, _SeedMatchIndex
from repro.core.stream import attempt_stream
from repro.generative.bayesian_network import BayesianNetworkSynthesizer
from repro.generative.parameters import ConditionalParameters, ParameterLearner
from repro.generative.structure import DependencyStructure
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams
from repro.testing.scenarios import get_scenario, scenario_names

OMEGA_SETS = (9, (9, 9), (2, 3), (4, 7, 11))
BATCH_SIZES = (1, 7, 32, 255, 256, 2048)
PARAMS = PlausibleDeniabilityParams(k=20, gamma=4.0, epsilon0=1.0)


@pytest.fixture(scope="module")
def bucketized_network(acs_splits):
    """A hand-built network whose parents include bucketized attributes."""
    schema = acs_splits.parameters.schema
    index = schema.index_of
    parent_names = {
        "SCHL": ("AGEP",),
        "MAR": ("SCHL", "AGEP"),
        "OCCP": ("SCHL", "SEX"),
        "WKHP": ("AGEP",),
        "COW": ("WKHP",),
        "WAGP": ("WKHP", "SCHL"),
    }
    structure = DependencyStructure.from_parent_map(
        {
            index(child): tuple(index(parent) for parent in parents)
            for child, parents in parent_names.items()
        },
        len(schema),
    )
    return BayesianNetworkSynthesizer(
        schema, structure, ParameterLearner().learn(acs_splits.parameters, structure), omega=9
    )


def _with_omegas(model, omegas) -> BayesianNetworkSynthesizer:
    return BayesianNetworkSynthesizer(model.schema, model.structure, model.tables, omegas)


def _generate(model, seeds_dataset, num_rows, base_seed, explicit="drawn"):
    """``generate_batch`` with and without the output array, on the same attempts.

    ``explicit`` is "drawn" (ω drawn from the configured set), "above" (explicit
    per-row ω, the largest one above the configured maximum, or the maximum
    itself when that is already m) or "below" (explicit ω all below it, so the
    walk starts at positions where no row is re-sampled).
    """
    m = len(model.schema)
    words = attempt_stream(base_seed).take(num_rows, m)
    seeds = seeds_dataset.data[words.seed_indices(len(seeds_dataset))]
    omegas = None
    rng = np.random.default_rng(base_seed)
    if explicit == "above":
        top = min(max(model.omegas) + 1, m)
        omegas = rng.integers(0, top + 1, num_rows)
        omegas[0] = top
    elif explicit == "below":
        omegas = rng.integers(0, max(model.omegas), num_rows)
    suffix_products = np.full((m + 1, num_rows), np.nan)
    records = model.generate_batch(seeds, words, omegas=omegas, suffix_products=suffix_products)
    plain = model.generate_batch(seeds, words, omegas=omegas)
    drawn = model.omegas if omegas is None else (*model.omegas, *omegas.tolist())
    return plain, records, suffix_products, max(drawn)


@pytest.mark.parametrize("explicit", ["drawn", "above", "below"])
@pytest.mark.parametrize("num_rows", BATCH_SIZES)
@pytest.mark.parametrize("omegas", OMEGA_SETS, ids=str)
def test_filled_rows_equal_the_suffix_product_oracle(
    unnoised_model, acs_splits, omegas, num_rows, explicit
):
    model = _with_omegas(unnoised_model, omegas)
    m = len(model.schema)
    plain, records, filled, widest = _generate(
        model, acs_splits.seeds, num_rows, 2401, explicit
    )
    assert np.array_equal(records, plain)
    oracle = model.candidate_factor_suffix_products(records)
    assert np.array_equal(filled[m - widest:], oracle[m - widest:])
    # Rows above m - widest are not the walk's: left as they were.
    assert np.isnan(filled[: m - widest]).all()


@pytest.mark.parametrize("num_rows", (7, 256))
def test_filled_rows_equal_the_oracle_with_bucketized_parents(
    bucketized_network, acs_splits, num_rows
):
    for omegas in OMEGA_SETS:
        model = _with_omegas(bucketized_network, omegas)
        m = len(model.schema)
        plain, records, filled, widest = _generate(model, acs_splits.seeds, num_rows, 2402)
        assert np.array_equal(records, plain)
        oracle = model.candidate_factor_suffix_products(records)
        assert np.array_equal(filled[m - widest:], oracle[m - widest:]), omegas


def test_generate_batch_rejects_a_malformed_output_array(unnoised_model, acs_splits):
    m = len(unnoised_model.schema)
    words = attempt_stream(0).take(4, m)
    seeds = acs_splits.seeds.data[:4]
    for bad in (np.empty((m, 4)), np.empty((m + 1, 5)), np.empty((m + 1, 4), dtype=np.float32)):
        with pytest.raises(ValueError, match="suffix_products"):
            unnoised_model.generate_batch(seeds, words, suffix_products=bad)


@pytest.mark.parametrize("omegas", OMEGA_SETS, ids=str)
def test_seed_counts_are_each_seeds_own_multiplicity(unnoised_model, acs_splits, omegas):
    model = _with_omegas(unnoised_model, omegas)
    index = _SeedMatchIndex(model, acs_splits.seeds.data)
    widest = max(model.omegas)
    expected = index.multiplicities(
        widest, model.fixed_prefix_keys(acs_splits.seeds.data, widest)
    )
    assert np.array_equal(index.seed_counts, expected)
    for row in range(0, len(acs_splits.seeds), 97):
        seed_row = acs_splits.seeds.data[row : row + 1]
        own = index.multiplicities(widest, model.fixed_prefix_keys(seed_row, widest))
        assert index.seed_counts[row] == own[0] >= 1


def _spy(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def spied(self, *args):
        calls.append((name, args))
        return original(self, *args)

    monkeypatch.setattr(owner, name, spied)


def _spied_batch(monkeypatch, model, seeds, num_rows):
    mechanism = SynthesisMechanism(model, seeds, PARAMS).prepare()
    calls = []
    _spy(monkeypatch, BayesianNetworkSynthesizer, "candidate_factor_suffix_products", calls)
    _spy(monkeypatch, BayesianNetworkSynthesizer, "fixed_prefix_keys", calls)
    _spy(monkeypatch, _SeedMatchIndex, "multiplicities", calls)
    mechanism.propose_batch(num_rows, attempt_stream(2403))
    return calls


def test_single_omega_batch_neither_keys_nor_recomputes_factors(
    monkeypatch, unnoised_model, acs_splits
):
    for num_rows in (32, 2048):
        assert _spied_batch(monkeypatch, unnoised_model, acs_splits.seeds, num_rows) == []


def test_mixed_omega_batch_keys_only_below_the_largest(monkeypatch, unnoised_model, acs_splits):
    model = _with_omegas(unnoised_model, (4, 7, 11))
    calls = _spied_batch(monkeypatch, model, acs_splits.seeds, 300)
    assert all(name != "candidate_factor_suffix_products" for name, _ in calls)
    keyed = {args[1] for name, args in calls if name == "fixed_prefix_keys"}
    counted = {args[0] for name, args in calls if name == "multiplicities"}
    assert keyed == counted == {4, 7}


def _covering_records(model) -> np.ndarray:
    """Records on which every table meets every one of its configurations.

    Each configuration appears twice: with every parent at the first and at
    the last code of its bucket, so the last bucket's last code is covered.
    Attributes that are no parent of the table stay at code 0.
    """
    schema = model.schema
    blocks = []
    for table in model.tables:
        digits = ()
        if table.parents:
            digits = np.unravel_index(
                np.arange(table.num_configurations), table.parent_cardinalities
            )
        for end in ("first", "last"):
            rows = np.zeros((table.num_configurations, len(schema)), dtype=np.int64)
            for parent, parent_digits in zip(table.parents, digits):
                bucket_table = schema[parent].bucket_table
                if end == "first":
                    codes = np.unique(bucket_table, return_index=True)[1]
                else:
                    reversed_first = np.unique(bucket_table[::-1], return_index=True)[1]
                    codes = len(bucket_table) - 1 - reversed_first
                rows[:, parent] = codes[parent_digits]
            blocks.append(rows)
    return np.concatenate(blocks)


@pytest.fixture(scope="module", params=[*scenario_names(), "bucketized-network"])
def network(request, acs_splits):
    """(model, seeds, params): every registry scenario's fit, and ``bucketized_network``."""
    if request.param == "bucketized-network":
        return request.getfixturevalue("bucketized_network"), acs_splits.seeds, PARAMS
    fit = get_scenario(request.param).fit(seed=0)
    return fit.model, fit.seeds, fit.params


def test_configuration_indices_come_from_per_parent_lookups(monkeypatch, network):
    model, seeds, params = network
    records = _covering_records(model)
    columns = np.ascontiguousarray(records.T)
    bucketized = model.bucketize_records(records)
    for position, attribute in enumerate(model.structure.order):
        table = model.tables[attribute]
        expected = table.configuration_indices(
            bucketized[:, list(model.structure.parents[attribute])]
        )
        assert np.array_equal(np.unique(expected), np.arange(table.num_configurations))
        assert np.array_equal(model._configurations(columns, position), expected), position

    # No proposal batch bucketizes a record or multiplies by strides.
    def refuse(*args):
        raise AssertionError("a proposal batch bucketized records or multiplied by strides")

    monkeypatch.setattr(BayesianNetworkSynthesizer, "_bucketize", refuse)
    monkeypatch.setattr(ConditionalParameters, "_configuration_indices", refuse)
    m = len(model.schema)
    for omegas in OMEGA_SETS:
        clipped = tuple(min(omega, m) for omega in np.atleast_1d(omegas).tolist())
        mechanism = SynthesisMechanism(_with_omegas(model, clipped), seeds, params).prepare()
        stream = attempt_stream(2404)
        for num_rows in (1, 32, 255, 256, 2048):
            assert mechanism.propose_batch(num_rows, stream).num_attempts == num_rows
