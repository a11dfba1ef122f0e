"""Pipeline configuration serialization."""

import dataclasses
import json

import pytest

from repro.core.config import (
    CompensationConfig, EvalConfig, PipelineConfig, RLConfig, TrainConfig,
    fast_pipeline_config,
)
from repro.evaluation.layer_sweep import CANDIDATE_THRESHOLD
from repro.lipschitz import lambda_bound, lognormal_bound

#: Every field a config once had and no longer has, with a value a stale
#: record could carry: several variation draws per compensation batch,
#: then the settings that became constants.
STALE_FIELDS = [
    ("compensation", "variation_samples", 2),
    ("train", "k", 2.0),
    ("train", "grad_clip", None),
    ("compensation", "batch_size", 16),
    ("compensation", "train_sigma_scale", 0.5),
    ("rl", "lr", 0.05),
    ("rl", "entropy_coef", 0.0),
    ("rl", "baseline_momentum", 0.5),
    ("eval", "candidate_threshold", 0.9),
    ("eval", "min_samples", 10),
]


class TestConfigDataclasses:
    def test_defaults_match_paper_protocol(self):
        config = PipelineConfig()
        assert config.sigma == 0.5
        assert config.eval.n_samples == 250
        assert config.rl.overhead_limits == (0.01, 0.02, 0.03)
        assert CANDIDATE_THRESHOLD == 0.95
        assert lambda_bound(0.5) == 1.0 / lognormal_bound(0.5)  # k = 1

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
        """A record that carries a removed setting cannot load as a config
        that would ignore it: each removed field raises."""
        fresh = fast_pipeline_config().to_dict()
        assert PipelineConfig.from_dict(fresh) == fast_pipeline_config()
        for stage, name, value in STALE_FIELDS:
            payload = fast_pipeline_config().to_dict()
            payload[stage][name] = value
            with pytest.raises(TypeError, match=f"argument '{name}'"):
                PipelineConfig.from_dict(payload)
