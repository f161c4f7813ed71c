"""Fitted models survive pickling, including pickles written by older code.

Run stores pickle fitted models (``SynthesisPipeline.fit``, the service
registry's rebuild-from-store, ``ExperimentContext``), and unpickling skips
``__init__``.  The lookup arrays the batch kernels read are derived from the
fitted fields, kept out of the pickled state and rebuilt on load, so a model
pickled before they existed still loads and releases the same rows.
"""

import json
import pickle
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.core.mechanism import SynthesisMechanism
from repro.core.stream import attempt_stream
from repro.datasets.schema import Attribute
from repro.generative.parameters import ConditionalParameters
from repro.testing.scenarios import get_scenario

FIXTURES = Path(__file__).parent / "fixtures"


def test_model_pickled_by_older_code_releases_the_recorded_rows():
    # The pickle was written at commit 67f8b42, whose objects pickled their
    # whole __dict__ and held no derived lookup arrays: the toy-correlated
    # scenario's fit (seed 0).  The JSON holds the rows run_attempts releases
    # from it on one base seed's attempt stream (recorded when attempts
    # became counter-addressed, with the model freshly fitted by that code).
    payload = pickle.loads((FIXTURES / "toy_correlated_model.pkl").read_bytes())
    expected = json.loads((FIXTURES / "toy_correlated_released.json").read_text())
    params = get_scenario("toy-correlated").privacy_params()
    mechanism = SynthesisMechanism(payload["model"], payload["seeds"], params)
    report = mechanism.run_attempts(
        expected["attempts"],
        attempt_stream(expected["base_seed"]),
        batch_size=expected["batch_size"],
    )
    assert report.released_dataset().data.tolist() == expected["released"]


def test_pickled_state_holds_no_derived_arrays(unnoised_model):
    assert set(unnoised_model.__getstate__()) == {"_schema", "_structure", "_tables", "_omegas"}
    table_fields = {field.name for field in fields(ConditionalParameters)}
    for table in unnoised_model.tables:
        assert set(table.__getstate__()) == table_fields
    attribute_fields = {field.name for field in fields(Attribute)}
    for attribute in unnoised_model.schema:
        assert set(attribute.__getstate__()) == attribute_fields


def test_unpickled_model_generates_the_same_rows(unnoised_model, acs_splits):
    clone = pickle.loads(pickle.dumps(unnoised_model))
    seeds = acs_splits.seeds.data[:200]
    m = len(unnoised_model.schema)
    omegas = np.random.default_rng(3).integers(0, m + 1, size=len(seeds))
    words = attempt_stream(4).take(len(seeds), m)
    for model_omegas in (None, omegas):
        expected = unnoised_model.generate_batch(seeds, words, omegas=model_omegas)
        actual = clone.generate_batch(seeds, words, omegas=model_omegas)
        assert np.array_equal(actual, expected)
    assert np.array_equal(
        clone.candidate_factor_suffix_products(seeds),
        unnoised_model.candidate_factor_suffix_products(seeds),
    )


def test_tables_cannot_be_swapped_out(unnoised_model):
    assert isinstance(unnoised_model.tables, tuple)
