"""Pipeline configuration serialization."""

import dataclasses
import json

import pytest

from repro.core.config import (
    CompensationConfig, EvalConfig, PipelineConfig, RLConfig, TrainConfig,
    fast_pipeline_config,
)


class TestConfigDataclasses:
    def test_defaults_match_paper_protocol(self):
        config = PipelineConfig()
        assert config.sigma == 0.5
        assert config.train.k == 1.0
        assert config.eval.n_samples == 250
        assert config.rl.overhead_limits == (0.01, 0.02, 0.03)
        assert config.eval.candidate_threshold == 0.95

    def test_fast_config_smaller(self):
        fast = fast_pipeline_config()
        full = PipelineConfig()
        assert fast.eval.n_samples < full.eval.n_samples
        assert fast.rl.episodes <= full.rl.episodes

    def test_configs_are_plain_dataclasses(self):
        for cls in (TrainConfig, CompensationConfig, RLConfig, EvalConfig,
                    PipelineConfig):
            assert dataclasses.is_dataclass(cls)

    def test_json_serializable(self):
        config = fast_pipeline_config(sigma=0.4, seed=9)
        blob = json.dumps(dataclasses.asdict(config))
        restored = json.loads(blob)
        assert restored["sigma"] == 0.4
        assert restored["train"]["seed"] == 9

    def test_independent_instances(self):
        a = PipelineConfig()
        b = PipelineConfig()
        a.train.epochs = 999
        assert b.train.epochs != 999

    def test_stale_compensation_field_fails_loudly(self):
        """A record that trained several variation draws per batch cannot
        load as a one-draw config: the removed field raises."""
        payload = fast_pipeline_config().to_dict()
        assert PipelineConfig.from_dict(payload) == fast_pipeline_config()
        payload["compensation"]["variation_samples"] = 2
        with pytest.raises(TypeError, match="variation_samples"):
            PipelineConfig.from_dict(payload)
