"""End-to-end CorrectNet pipeline integration (reduced scale)."""

import numpy as np
import pytest

from repro.core import CorrectNet, PipelineConfig, fast_pipeline_config
from repro.core import pipeline as core_pipeline, training as core_training
from repro.core.config import (
    CompensationConfig, EvalConfig, RLConfig, TrainConfig,
)
from repro.data import synth_mnist
from repro.models import LeNet5


@pytest.fixture(scope="module")
def accuracy_sweeps():
    """Every split ``pipeline_result``'s run swept for accuracy, in order
    (the pipeline's own sweep and the trainers')."""
    return []


@pytest.fixture(scope="module")
def pipeline_result(accuracy_sweeps):
    """One shared tiny pipeline run (the expensive fixture of this module)."""
    train, test = synth_mnist(train_per_class=16, test_per_class=8)
    model = LeNet5(num_classes=10, in_channels=1, input_size=16,
                   width_multiplier=1.5, seed=0)
    config = PipelineConfig(
        sigma=0.5,
        train=TrainConfig(epochs=10, batch_size=32, lr=3e-3, beta=1.0, seed=0),
        compensation=CompensationConfig(epochs=4, lr=3e-3, seed=0),
        rl=RLConfig(episodes=3, hidden_size=8, ratio_choices=(0.0, 0.5, 1.0),
                    overhead_limits=(0.05,), seed=0),
        eval=EvalConfig(n_samples=8, search_samples=3, seed=7,
                        max_candidates=2),
    )
    pipeline = CorrectNet(model, train, test, config)
    with pytest.MonkeyPatch.context() as patch:
        for module in (core_pipeline, core_training):
            real = module.accuracy

            def spy(model, dataset, *args, _real=real, **kwargs):
                accuracy_sweeps.append(dataset)
                return _real(model, dataset, *args, **kwargs)

            patch.setattr(module, "accuracy", spy)
        return pipeline, pipeline.run()


class TestPipeline:
    def test_original_accuracy_high(self, pipeline_result):
        # 10 epochs on 160 samples: well above chance, below saturation.
        _, result = pipeline_result
        assert result.original_accuracy > 0.6

    def test_variation_degrades(self, pipeline_result):
        _, result = pipeline_result
        assert result.degraded.mean < result.original_accuracy

    def test_correctnet_recovers(self, pipeline_result):
        """The headline claim at reduced scale: corrected accuracy beats the
        degraded accuracy by a clear margin."""
        _, result = pipeline_result
        assert result.corrected.mean > result.degraded.mean

    def test_overhead_accounting(self, pipeline_result):
        _, result = pipeline_result
        if result.compensated_layers:
            assert 0 < result.overhead < 0.2
        else:
            assert result.overhead == 0.0

    def test_summary_row_format(self, pipeline_result):
        _, result = pipeline_result
        row = result.summary_row()
        assert len(row) == 5
        assert row[4] == len(result.compensated_layers)

    def test_lambda_from_sigma(self, pipeline_result):
        pipeline, _ = pipeline_result
        from repro.lipschitz import lambda_bound
        assert pipeline.lam == pytest.approx(lambda_bound(0.5))

    def test_candidates_are_prefix(self, pipeline_result):
        _, result = pipeline_result
        assert result.candidates == sorted(result.candidates)
        if result.candidates:
            assert result.candidates[0] == 0

    def test_base_history_sweeps_accuracy_once(self, pipeline_result,
                                               accuracy_sweeps):
        """Base training keeps its per-epoch loss and regularizer curves and
        sweeps no split: the run sweeps the test split once, for the
        original accuracy, and never sweeps the train split."""
        pipeline, result = pipeline_result
        history = result.base_history
        assert len(history.loss) == len(history.regularizer) == 10
        assert history.val_accuracy is None
        assert [d is pipeline.test_data for d in accuracy_sweeps] == [True]

    def test_search_results_per_limit(self, pipeline_result):
        pipeline, result = pipeline_result
        if result.candidates:
            assert set(result.search_results) == {0.05}


class TestFastConfig:
    def test_fast_config_shape(self):
        config = fast_pipeline_config(sigma=0.3, seed=5)
        assert config.sigma == 0.3
        assert config.eval.n_samples < 250  # reduced vs paper protocol

    def test_pipeline_model_is_distinct(self, pipeline_result):
        pipeline, result = pipeline_result
        assert result.model is not pipeline.model
