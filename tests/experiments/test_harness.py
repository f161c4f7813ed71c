"""Tests for the experiment harness (results tables and shared context)."""

import pytest

from repro.experiments.harness import OMEGA_VARIANTS, ExperimentContext, ExperimentResult


class TestExperimentResult:
    def test_add_row_and_columns(self):
        result = ExperimentResult(name="demo", headers=["name", "value"])
        result.add_row("a", 1.0)
        result.add_row("b", 2.0)
        assert result.column("value") == [1.0, 2.0]
        assert result.row_by_key("b") == ["b", 2.0]

    def test_add_row_validates_width(self):
        result = ExperimentResult(name="demo", headers=["a", "b"])
        with pytest.raises(ValueError):
            result.add_row(1)

    def test_unknown_column_and_row(self):
        result = ExperimentResult(name="demo", headers=["a"])
        result.add_row(1)
        with pytest.raises(KeyError):
            result.column("missing")
        with pytest.raises(KeyError):
            result.row_by_key("missing")

    def test_to_text_contains_headers_rows_and_notes(self):
        result = ExperimentResult(name="demo", headers=["key", "value"], notes="a note")
        result.add_row("x", 0.123456)
        text = result.to_text()
        assert "demo" in text
        assert "key" in text
        assert "0.1235" in text
        assert "a note" in text

    def test_to_text_with_no_rows(self):
        result = ExperimentResult(name="empty", headers=["a"])
        assert "empty" in result.to_text()


class TestExperimentContext:
    @pytest.fixture(scope="class")
    def context(self):
        return ExperimentContext(
            num_raw_records=4000, synthetic_records=150, k=10, seed=3
        )

    def test_omega_variants_cover_the_paper_settings(self):
        assert set(OMEGA_VARIANTS) == {
            "omega=11",
            "omega=10",
            "omega=9",
            "omega in [9-11]",
            "omega in [5-11]",
        }

    def test_dataset_and_splits_are_cached(self, context):
        assert context.dataset is context.dataset
        assert context.splits is context.splits

    def test_model_cached_per_variant(self, context):
        assert context.model("omega=9") is context.model("omega=9")
        assert context.model("omega=9") is not context.model("omega=10")

    def test_unknown_variant_rejected(self, context):
        with pytest.raises(KeyError):
            context.model("omega=99")

    def test_model_for_arbitrary_omega(self, context):
        model = context.model_for_omega(7)
        assert model.omegas == (7,)

    def test_synthetic_dataset_has_requested_size(self, context):
        synthetic = context.synthetic_dataset("omega=11")
        assert len(synthetic) == context.synthetic_records

    def test_marginals_dataset_size(self, context):
        assert len(context.marginals_dataset) == context.synthetic_records

    def test_reals_dataset_size(self, context):
        assert len(context.reals_dataset()) == context.synthetic_records

    def test_comparison_datasets_keys(self, context):
        datasets = context.comparison_datasets(["omega=11"])
        assert set(datasets) == {"reals", "marginals", "omega=11"}

    def test_max_table_cells_adaptive_and_disableable(self, context):
        assert context.max_table_cells() >= 100
        fixed = ExperimentContext(num_raw_records=4000, adaptive_table_cells=False)
        assert fixed.max_table_cells() is None

    def test_injected_dataset_drives_the_context(self):
        from repro.core.run_store import dataset_fingerprint
        from repro.testing.scenarios import get_scenario

        scenario = get_scenario("toy-correlated")
        dataset = scenario.dataset(seed=0)
        context = ExperimentContext(dataset=dataset, k=8, seed=3)
        assert context.dataset is dataset
        assert context.splits.total_records == len(dataset)
        # The injected data's fingerprint keys the context's artifacts, so a
        # scenario-driven context can never collide with an ACS-driven one.
        assert context._artifact_payload()["dataset"] == dataset_fingerprint(dataset)
        acs_context = ExperimentContext(num_raw_records=2000, seed=3)
        assert "dataset" not in acs_context._artifact_payload()

    def test_generation_config_reflects_context(self, context):
        config = context.generation_config()
        assert config.privacy.k == context.k


class TestContextRngStreams:
    def test_streams_are_seedsequence_children(self):
        import numpy as np

        context = ExperimentContext(num_raw_records=4000, seed=7)
        children = np.random.SeedSequence(7).spawn(3)
        for offset, child in enumerate(children):
            expected = np.random.default_rng(child).integers(2**63, size=4)
            actual = context.rng(offset).integers(2**63, size=4)
            assert np.array_equal(expected, actual)

    def test_adjacent_seeds_do_not_share_streams(self):
        import numpy as np

        # Regression: with the old seed + offset derivation, (seed=7,
        # offset=1) and (seed=8, offset=0) were the same stream.
        first = ExperimentContext(num_raw_records=4000, seed=7).rng(1)
        second = ExperimentContext(num_raw_records=4000, seed=8).rng(0)
        assert not np.array_equal(
            first.integers(2**63, size=8), second.integers(2**63, size=8)
        )


class TestContextRunStore:
    _SUBPROCESS_SCRIPT = """
import sys
from repro.core.run_store import RunStore
from repro.experiments.harness import ExperimentContext

context = ExperimentContext(
    num_raw_records=4000, synthetic_records=50, k=10, seed=3,
    run_store=RunStore(sys.argv[1]),
)
model = context.model("omega=9")
print("edges:", model.structure.num_edges)
"""

    def test_model_reused_across_processes(self, tmp_path, monkeypatch):
        # Process 1 (a real subprocess) fits the model and stores it; process
        # 2 (this test) must load it from the store without refitting.
        import subprocess
        import sys

        from repro.core.run_store import RunStore

        store_path = tmp_path / "store"
        completed = subprocess.run(
            [sys.executable, "-c", self._SUBPROCESS_SCRIPT, str(store_path)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stderr

        import repro.experiments.harness as harness_module

        def _boom(*args, **kwargs):
            raise AssertionError("the stored model must be loaded, not refitted")

        monkeypatch.setattr(harness_module, "fit_bayesian_network", _boom)
        context = ExperimentContext(
            num_raw_records=4000, synthetic_records=50, k=10, seed=3,
            run_store=RunStore(store_path),
        )
        model = context.model("omega=9")
        assert model.omegas == (9,)
        # The fit's privacy spend travels with the artifact.
        assert len(context.accountant.entries) > 0

    def test_synthetics_reused_within_store(self, tmp_path):
        import numpy as np

        from repro.core.run_store import RunStore

        store = RunStore(tmp_path / "store")
        make = lambda: ExperimentContext(
            num_raw_records=4000, synthetic_records=40, k=10, seed=3, run_store=store
        )
        first = make().synthetic_dataset("omega=9")
        fresh_context = make()
        second = fresh_context.synthetic_dataset("omega=9")
        assert np.array_equal(first.data, second.data)

    def test_synthetics_from_an_older_release_path_are_not_served(self, tmp_path):
        # A store filled before the release-scheme marker holds datasets
        # drawn by the removed per-record loop; plant one under that key.
        import numpy as np

        from repro.core.run_store import RunStore
        from repro.datasets.dataset import Dataset

        store = RunStore(tmp_path / "store")
        context = ExperimentContext(
            num_raw_records=4000, synthetic_records=40, k=10, seed=3, run_store=store
        )
        payload = context._artifact_payload(OMEGA_VARIANTS["omega=9"])
        payload.update(
            {
                "variant": "omega=9",
                "synthetic_records": 40,
                "k": context.k,
                "gamma": context.gamma,
                "epsilon0": context.epsilon0,
            }
        )
        stale = Dataset(context.dataset.schema, context.splits.seeds.data[:40])
        store.save_artifact(RunStore.artifact_key("context-synthetic", payload), stale)
        released = context.synthetic_dataset("omega=9")
        assert len(released) == 40
        assert not np.array_equal(released.data, stale.data)
