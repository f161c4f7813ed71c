"""Conformance: the exact privacy test's counting paths agree bit for bit.

Mechanism 1 has one privacy test — the exact (k, γ) plausible-seed count —
computed one of three ways: the sorted prefix-key index
(``SynthesisMechanism._fast_batch_counts``, the production path), the dense
probability-matrix scan (``batch_plausible_seed_counts``, used when the
model's prefix keys would overflow int64), and the paper's subset scans
under ``max_check_plausible`` / ``max_plausible``.  This suite runs the full
registry through the index and through the dense scan and compares
everything release-relevant — decisions, thresholds, counts, partitions,
seeds, candidates and released rows — for both the deterministic Privacy
Test 1 and the Laplace-noised Privacy Test 2, plus, at the pipeline level,
the released-rows and privacy-ledger digests computed with the golden-store
recipes.

Identical Privacy Test 2 thresholds pin the randomness discipline: both paths
read each attempt's Laplace threshold from that attempt's own words, so
neither can shift another attempt's draws.

The index only applies without scan knobs, so each cell strips the
scenario's knobs; the subset-scan cells then set budgets that provably cannot
change a decision.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.mechanism import SynthesisMechanism
from repro.core.pipeline import SynthesisPipeline
from repro.core.run_store import RunStore
from repro.core.stream import attempt_stream
from repro.testing.scenarios import get_scenario, scenario_names

MODES = ("deterministic", "randomized")
SCENARIOS = tuple(scenario_names())
SMOKE_SCENARIOS = frozenset(scenario_names(tags={"smoke"}))

#: Fits are deterministic per scenario; every cell reuses the seed-0 fit.
_FIT_CACHE: dict = {}


class _DenseScanMechanism(SynthesisMechanism):
    """Mechanism 1 with the prefix-key index switched off."""

    def _fast_batch_counts(self, seed_indices, candidates, suffix_products=None):
        return None


def _fit(name: str):
    if name not in _FIT_CACHE:
        _FIT_CACHE[name] = get_scenario(name).fit(seed=0)
    return _FIT_CACHE[name]


def _params(name: str, mode: str, max_check_plausible=None, max_plausible=None):
    """The scenario's (k, γ) under the mode's test, with only the given knobs."""
    return dataclasses.replace(
        _fit(name).params,
        epsilon0=None if mode == "deterministic" else 1.0,
        max_check_plausible=max_check_plausible,
        max_plausible=max_plausible,
    )


def _run(name: str, mechanism: SynthesisMechanism):
    scenario = get_scenario(name)
    return mechanism.run_attempts(
        scenario.attempts, attempt_stream(7), batch_size=scenario.batch_size
    )


def _assert_index_ran(mechanism: SynthesisMechanism) -> None:
    # Without this the comparisons below could pass vacuously, dense vs dense.
    assert mechanism._match_index is not None and mechanism._match_index.supported


def _assert_same_run(expected, actual, label: str, skip=()) -> None:
    expected_arrays = expected.to_arrays()
    actual_arrays = actual.to_arrays()
    assert expected_arrays.keys() == actual_arrays.keys()
    for field in expected_arrays.keys() - set(skip):
        assert np.array_equal(expected_arrays[field], actual_arrays[field]), (
            f"{label}: runs diverged in {field!r}"
        )
    assert np.array_equal(
        expected.released_dataset().data, actual.released_dataset().data
    )


def _cells(modes=MODES):
    for name in SCENARIOS:
        for mode in modes:
            marks = [pytest.mark.conformance]
            if name in SMOKE_SCENARIOS:
                marks.append(pytest.mark.conformance_smoke)
            yield pytest.param(name, mode, marks=marks, id=f"{name}-{mode}")


def test_matrix_covers_the_full_registry():
    assert len(SCENARIOS) >= 7
    assert len(list(_cells())) == len(SCENARIOS) * 2


@pytest.mark.parametrize("name,mode", list(_cells()))
def test_index_decisions_bit_identical_to_dense_scan(name, mode):
    fit = _fit(name)
    params = _params(name, mode)
    indexed = SynthesisMechanism(fit.model, fit.seeds, params)
    dense = _DenseScanMechanism(fit.model, fit.seeds, params)

    indexed_report = _run(name, indexed)
    dense_report = _run(name, dense)

    _assert_index_ran(indexed)
    assert dense._match_index is None
    _assert_same_run(dense_report, indexed_report, f"{name}/{mode}")


@pytest.mark.parametrize("name,mode", list(_cells()))
def test_pipeline_release_and_ledger_digests_match(name, mode, monkeypatch):
    """End to end through the pipeline: released rows and privacy-ledger
    digests (golden-store recipes) are identical whether the mechanism counts
    through the index or the dense scan."""
    scenario = get_scenario(name)
    config = dataclasses.replace(scenario.config(), privacy=_params(name, mode))
    digests = {}
    # The pipeline releases through its engine's own mechanism, so the index
    # pass is observed where it runs: every batch it counted.
    index_counts: list[bool] = []
    fast_batch_counts = SynthesisMechanism._fast_batch_counts

    def observed_fast_batch_counts(mechanism, seed_indices, candidates, suffix_products=None):
        counts = fast_batch_counts(mechanism, seed_indices, candidates, suffix_products)
        index_counts.append(counts is not None)
        return counts

    for label in ("index", "dense"):
        monkeypatch.setattr(
            SynthesisMechanism,
            "_fast_batch_counts",
            observed_fast_batch_counts
            if label == "index"
            else _DenseScanMechanism._fast_batch_counts,
        )
        pipeline = SynthesisPipeline(
            scenario.dataset(0), config=config, rng=np.random.default_rng(11)
        )
        pipeline.fit()
        report = pipeline.generate(
            scenario.target_released, max_attempts=scenario.attempts * 4
        )
        if label == "index":
            # Without this the comparison could pass vacuously, dense vs dense.
            assert index_counts and all(index_counts)
        digests[label] = {
            "released": RunStore.artifact_key(
                "golden-released", {"rows": report.released_dataset().data}
            ),
            "ledger": RunStore.artifact_key(
                "golden-ledger",
                {
                    "entries": [
                        [e.label, e.epsilon, e.delta, e.count, e.scope]
                        for e in pipeline.accountant.entries
                    ]
                },
            ),
            "attempts": report.num_attempts,
            "released_count": report.num_released,
        }
    assert digests["index"] == digests["dense"]


@pytest.mark.parametrize("name,mode", list(_cells()))
def test_full_budget_subset_scan_matches_the_index(name, mode):
    # max_check_plausible covering the whole seed set scans every record:
    # no scan-order draw, so the run is the index's bit for bit.
    fit = _fit(name)
    indexed = SynthesisMechanism(fit.model, fit.seeds, _params(name, mode))
    scanned = SynthesisMechanism(
        fit.model,
        fit.seeds,
        _params(name, mode, max_check_plausible=len(fit.seeds)),
    )

    indexed_report = _run(name, indexed)
    scanned_report = _run(name, scanned)

    _assert_index_ran(indexed)
    assert scanned._match_index is None
    _assert_same_run(indexed_report, scanned_report, f"{name}/{mode}")


@pytest.mark.parametrize("name,mode", list(_cells(modes=("deterministic",))))
def test_max_plausible_at_k_keeps_every_decision(name, mode):
    # Under Privacy Test 1 a count capped at k passes iff the full count
    # does; only the count itself and its saturation flag may differ.  (A
    # Laplace threshold above k would make the cap visible, so Test 2 is
    # out of scope here.)
    fit = _fit(name)
    k = fit.params.k
    indexed = SynthesisMechanism(fit.model, fit.seeds, _params(name, mode))
    capped = SynthesisMechanism(
        fit.model, fit.seeds, _params(name, mode, max_plausible=k)
    )

    indexed_report = _run(name, indexed)
    capped_report = _run(name, capped)

    _assert_index_ran(indexed)
    _assert_same_run(
        indexed_report,
        capped_report,
        f"{name}/{mode}",
        skip=("plausible_seeds", "count_saturated"),
    )
    full = indexed_report.to_arrays()["plausible_seeds"]
    capped_arrays = capped_report.to_arrays()
    assert np.array_equal(capped_arrays["plausible_seeds"], np.minimum(full, k))
    assert np.array_equal(capped_arrays["count_saturated"], full >= k)
    assert np.any(full > k)  # the cap really bound some count
