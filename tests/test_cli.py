"""Tests for the command-line generator tool."""

import dataclasses
import json
import re

import pytest

from repro.cli import _release_warning, build_config, main
from repro.datasets.dataset import Dataset
from repro.datasets.metadata import read_metadata
from repro.service.session import SessionBudget


class TestBuildConfig:
    def test_defaults_are_demo_scaled(self):
        config = build_config({}, num_attributes=11)
        # The paper's k=50 assumes ~1.2M seed records and releases nothing at
        # the CLI's demo scale, so the default is deliberately smaller.
        assert config.privacy.k == 10
        assert config.privacy.gamma == 4.0
        assert config.model.omega == 9

    def test_overrides_applied(self):
        config = build_config(
            {"k": 10, "gamma": 2.0, "omega": [5, 6], "total_epsilon": 0.5}, num_attributes=11
        )
        assert config.privacy.k == 10
        assert config.model.omega == (5, 6)

    def test_unnoised_model_when_total_epsilon_is_null(self):
        config = build_config({"total_epsilon": None}, num_attributes=11)
        assert config.model.epsilon_structure is None
        assert config.model.epsilon_parameters is None

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            build_config({"not_a_key": 1}, num_attributes=11)

    @pytest.mark.parametrize("key,hint", [("batch_size", "8192"), ("workers", "1")])
    def test_null_engine_knob_rejected(self, key, hint):
        # null no longer selects a serial or per-record path; the message
        # names the integer to use instead.
        with pytest.raises(ValueError, match=f"'{key}'.*not null.*use {hint}"):
            build_config({key: None}, num_attributes=11)

    def test_engine_knobs_default_to_one_in_process_path(self):
        config = build_config({}, num_attributes=11)
        assert config.num_workers == 1
        assert (config.batch_size, config.chunk_size) == (8192, 2048)

    def test_removed_approximate_key_rejected(self):
        # Config files that still select the removed approximate privacy
        # test fail at the boundary instead of silently running exact.
        with pytest.raises(ValueError, match="unknown config keys.*approximate"):
            build_config({"approximate": True}, num_attributes=11)


class TestReleaseWarning:
    def test_zero_releases_produce_a_warning(self):
        warning = _release_warning(0, 100, k=50, num_seed_records=2000)
        assert warning is not None
        assert "k=50" in warning
        assert "2000" in warning

    def test_successful_release_produces_no_warning(self):
        assert _release_warning(1, 100, k=50, num_seed_records=2000) is None
        assert _release_warning(100, 100, k=10, num_seed_records=2000) is None

    def test_zero_requested_produces_no_warning(self):
        assert _release_warning(0, 0, k=50, num_seed_records=2000) is None


class TestEndToEndCli:
    def test_sample_data_then_generate(self, tmp_path, capsys):
        demo_dir = tmp_path / "demo"
        exit_code = main(
            ["sample-data", "--output-dir", str(demo_dir), "--records", "4000", "--seed", "3"]
        )
        assert exit_code == 0
        assert (demo_dir / "acs.csv").exists()
        assert (demo_dir / "metadata.json").exists()
        assert (demo_dir / "config.json").exists()

        config_path = demo_dir / "config.json"
        config_path.write_text(
            json.dumps({"k": 10, "gamma": 4.0, "epsilon0": 1.0, "omega": 9, "total_epsilon": 1.0})
        )
        output_path = tmp_path / "synthetic.csv"
        exit_code = main(
            [
                "generate",
                "--input", str(demo_dir / "acs.csv"),
                "--metadata", str(demo_dir / "metadata.json"),
                "--config", str(config_path),
                "--output", str(output_path),
                "--records", "20",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "records released" in captured.out

        schema = read_metadata(demo_dir / "metadata.json")
        released = Dataset.from_csv(schema, output_path)
        assert len(released) == 20
        assert released.schema == schema

    def test_worker_count_never_changes_the_release(self, tmp_path, capsys):
        # No --workers, --workers 1 and --workers 2 run the same engine
        # release: byte-identical CSVs and the same candidate count.
        demo_dir = tmp_path / "demo"
        main(["sample-data", "--output-dir", str(demo_dir), "--records", "4000", "--seed", "9"])
        capsys.readouterr()
        outputs = {}
        for label, flags in (("default", []), ("1", ["--workers", "1"]), ("2", ["--workers", "2"])):
            output_path = tmp_path / f"synthetic-{label}.csv"
            exit_code = main(
                [
                    "generate",
                    "--input", str(demo_dir / "acs.csv"),
                    "--metadata", str(demo_dir / "metadata.json"),
                    "--config", str(demo_dir / "config.json"),
                    "--output", str(output_path),
                    "--records", "60",
                    *flags,
                ]
            )
            assert exit_code == 0
            tried = re.search(r"candidates tried:\s+(\d+)", capsys.readouterr().out)
            outputs[label] = (output_path.read_bytes(), tried.group(1))
        assert outputs["default"] == outputs["1"] == outputs["2"]
        assert outputs["default"][0].count(b"\n") == 61  # header + 60 rows


class TestServeArguments:
    def test_serve_requires_an_input_source(self):
        with pytest.raises(SystemExit, match="either --scenario or both"):
            main(["serve", "--port", "0"])

    def test_serve_scenario_and_input_are_exclusive(self):
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(
                [
                    "serve",
                    "--scenario", "tiny-n",
                    "--input", "x.csv",
                    "--metadata", "x.json",
                ]
            )

    def test_serve_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["serve", "--scenario", "not-a-scenario", "--port", "0"])

    def test_serve_budget_flags_are_the_session_budget_fields(self, capsys):
        # One flag per SessionBudget field, and no flag for a removed one:
        # a stale flag fails in argparse instead of being silently ignored.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        flags = set(re.findall(r"--budget-[a-z-]+", capsys.readouterr().out))
        assert flags == {
            "--budget-" + field.name.replace("_", "-")
            for field in dataclasses.fields(SessionBudget)
        }
