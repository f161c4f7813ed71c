"""Tests for the generation configuration."""

import pytest

from repro.core.config import GenerationConfig
from repro.generative.builder import GenerativeModelSpec
from repro.privacy.plausible_deniability import PlausibleDeniabilityParams


class TestGenerationConfig:
    def test_defaults(self):
        config = GenerationConfig()
        assert config.privacy.k == 50
        assert config.privacy.gamma == 4.0
        assert config.privacy.epsilon0 == 1.0

    def test_paper_defaults_match_section_6_1(self):
        config = GenerationConfig.paper_defaults()
        assert config.privacy.k == 50
        assert config.privacy.gamma == 4.0
        assert config.privacy.epsilon0 == 1.0
        assert config.model.omega == 9
        assert config.model.epsilon_structure is not None
        assert config.model.epsilon_parameters is not None

    def test_paper_defaults_with_custom_budget(self):
        tight = GenerationConfig.paper_defaults(total_epsilon=0.1)
        loose = GenerationConfig.paper_defaults(total_epsilon=1.0)
        assert tight.model.epsilon_parameters < loose.model.epsilon_parameters

    def test_split_fraction_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(seed_fraction=0.9, structure_fraction=0.2)
        with pytest.raises(ValueError):
            GenerationConfig(seed_fraction=-0.2)

    def test_max_attempts_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(max_attempts_per_release=0)

    def test_engine_knobs_default_to_in_process_batches(self):
        config = GenerationConfig()
        assert config.num_workers == 1
        assert (config.batch_size, config.chunk_size) == (8192, 2048)

    @pytest.mark.parametrize("field", ["batch_size", "num_workers"])
    @pytest.mark.parametrize("value", [None, 0])
    def test_engine_knobs_must_be_positive_ints(self, field, value):
        # None no longer selects a serial or per-record path.
        with pytest.raises(ValueError, match=f"{field} must be a positive int"):
            GenerationConfig(**{field: value})

    def test_custom_components(self):
        config = GenerationConfig(
            privacy=PlausibleDeniabilityParams(k=10, gamma=2.0),
            model=GenerativeModelSpec(omega=5),
        )
        assert config.privacy.k == 10
        assert config.model.omega == 5
