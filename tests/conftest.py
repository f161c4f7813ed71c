"""Shared fixtures for the test suite.

Heavy objects (the ACS-like dataset, fitted generative models) are
session-scoped so the whole suite stays fast; individual tests that need to
mutate state build their own small instances instead.  The small-dataset and
schema builders live in the conformance scenario registry
(:mod:`repro.testing.scenarios`) so tests and benchmarks draw from one source.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.datasets.acs import load_acs
from repro.datasets.dataset import Dataset
from repro.datasets.schema import Schema
from repro.datasets.splits import split_dataset
from repro.generative.builder import GenerativeModelSpec, fit_bayesian_network, fit_marginal_model
from repro.testing import scenarios


@pytest.fixture(scope="session", autouse=True)
def no_dispatcher_outlives_the_suite():
    """Fail the session if a request-scheduler dispatcher is still alive.

    Dispatchers live until their scheduler (or the ``ServiceApp`` owning it)
    is closed, so a test that never closes one leaves parked threads, and
    their pooled engines, behind.  Teardown runs after every module-scoped
    app has closed and waits up to 5 s for the dispatchers to exit.
    """
    yield
    deadline = time.monotonic() + 5.0
    while True:
        survivors = sorted(
            thread.name
            for thread in threading.enumerate()
            if thread.name.startswith("repro-scheduler-")
        )
        if not survivors or time.monotonic() >= deadline:
            break
        time.sleep(0.05)
    if survivors:
        pytest.fail(
            f"{len(survivors)} scheduler dispatcher(s) outlived the test "
            f"session (close every RequestScheduler / ServiceApp): {survivors}"
        )


@pytest.fixture(scope="session")
def toy_schema() -> Schema:
    """A small 4-attribute schema with one bucketized numerical attribute."""
    return scenarios.toy_schema()


@pytest.fixture(scope="session")
def toy_dataset(toy_schema: Schema) -> Dataset:
    """A 2000-record correlated toy dataset."""
    return Dataset(
        toy_schema, scenarios.correlated_toy_matrix(2000, np.random.default_rng(0))
    )


@pytest.fixture(scope="session")
def toy_dataset_small(toy_schema: Schema) -> Dataset:
    """A 300-record correlated toy dataset (for quick structural tests)."""
    return Dataset(
        toy_schema, scenarios.correlated_toy_matrix(300, np.random.default_rng(1))
    )


@pytest.fixture(scope="session")
def acs_dataset() -> Dataset:
    """A small cleaned ACS-like dataset shared across the suite."""
    return load_acs(num_records=6000, seed=13)


@pytest.fixture(scope="session")
def acs_splits(acs_dataset: Dataset):
    """DS / DT / DP / test splits of the shared ACS-like dataset."""
    return split_dataset(acs_dataset, rng=np.random.default_rng(3))


@pytest.fixture(scope="session")
def unnoised_model(acs_splits):
    """A non-private Bayesian-network synthesizer fitted on the shared splits."""
    spec = GenerativeModelSpec(omega=9, epsilon_structure=None, epsilon_parameters=None)
    return fit_bayesian_network(
        acs_splits.structure, acs_splits.parameters, spec=spec, rng=np.random.default_rng(4)
    )


@pytest.fixture(scope="session")
def marginal_model(acs_splits):
    """A non-private marginals baseline fitted on the shared splits."""
    return fit_marginal_model(acs_splits.parameters, epsilon=None, rng=np.random.default_rng(5))


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic RNG per test."""
    return np.random.default_rng(1234)
