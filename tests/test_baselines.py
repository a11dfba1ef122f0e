"""Baseline methods [8]/[9]/[11]: masks, protection effect, training."""

import numpy as np
import pytest

from repro.baselines import (
    ImportantWeightProtection, RandomSparseAdaptation, StatisticalTraining,
)
from repro.baselines.common import magnitude_masks, masks_overhead, random_masks
from repro.evaluation import MonteCarloEvaluator, accuracy
from repro.models import MLP
from repro.variation import LayerMap, LogNormalVariation, NoVariation


@pytest.fixture()
def trained_mlp(blob_dataset):
    from repro.core import Trainer
    from repro.optim import Adam

    model = MLP(4, [16], 3, flatten_input=True, seed=0)
    trainer = Trainer(model, Adam(list(model.parameters()), lr=0.01), seed=0)
    trainer.fit(blob_dataset, epochs=30, batch_size=16)
    assert accuracy(model, blob_dataset) > 0.9
    return model


class TestMasks:
    def test_magnitude_masks_fraction(self, mlp):
        masks = magnitude_masks(mlp, 0.1)
        protected = sum(m.sum() for m in masks.values())
        weights = sum(m.size for m in masks.values())
        assert protected / weights == pytest.approx(0.1, abs=0.03)

    def test_magnitude_masks_pick_largest(self, mlp):
        masks = magnitude_masks(mlp, 0.2)
        for name, layer_mask in masks.items():
            param = dict(mlp.named_parameters())[name]
            if layer_mask.any() and (~layer_mask).any():
                assert (np.abs(param.data[layer_mask]).min()
                        >= np.abs(param.data[~layer_mask]).max() - 1e-12)

    def test_random_masks_fraction(self, mlp):
        masks = random_masks(mlp, 0.3, np.random.default_rng(0))
        protected = sum(m.sum() for m in masks.values())
        weights = sum(m.size for m in masks.values())
        assert protected / weights == pytest.approx(0.3, abs=0.1)

    def test_zero_fraction_empty(self, mlp):
        masks = magnitude_masks(mlp, 0.0)
        assert all(not m.any() for m in masks.values())

    def test_invalid_fraction(self, mlp):
        with pytest.raises(ValueError):
            magnitude_masks(mlp, 1.5)
        with pytest.raises(ValueError):
            random_masks(mlp, -0.1, np.random.default_rng(0))

    def test_overhead_accounting(self, mlp):
        masks = magnitude_masks(mlp, 0.25)
        overhead = masks_overhead(mlp, masks)
        assert 0 < overhead < 0.3


class TestProtection:
    def test_protection_improves_over_none(self, trained_mlp, blob_dataset):
        var = LogNormalVariation(0.6)
        unprotected = ImportantWeightProtection(trained_mlp, 0.0).evaluate(
            var, blob_dataset, n_samples=10, seed=3
        )
        protected = ImportantWeightProtection(trained_mlp, 0.5).evaluate(
            var, blob_dataset, n_samples=10, seed=3
        )
        assert protected.accuracy_mean >= unprotected.accuracy_mean

    def test_full_protection_recovers_clean(self, trained_mlp, blob_dataset):
        clean = accuracy(trained_mlp, blob_dataset)
        result = ImportantWeightProtection(trained_mlp, 1.0).evaluate(
            LogNormalVariation(0.8), blob_dataset, n_samples=3, seed=0
        )
        assert result.accuracy_mean == pytest.approx(clean, abs=1e-9)

    def test_online_retraining_requires_train_data(self, trained_mlp,
                                                    blob_dataset):
        method = ImportantWeightProtection(trained_mlp, 0.2)
        with pytest.raises(ValueError):
            method.evaluate(LogNormalVariation(0.5), blob_dataset,
                            n_samples=1, online_retraining=True)

    def test_online_retraining_helps(self, trained_mlp, blob_dataset):
        var = LogNormalVariation(0.7)
        method = ImportantWeightProtection(trained_mlp, 0.3)
        static = method.evaluate(var, blob_dataset, n_samples=5, seed=1)
        adapted = method.evaluate(
            var, blob_dataset, n_samples=5, seed=1,
            online_retraining=True, train_data=blob_dataset,
            adapt_steps=15, adapt_lr=0.02,
        )
        assert adapted.accuracy_mean >= static.accuracy_mean - 0.05
        assert adapted.online_retraining

    @pytest.mark.parametrize("spec", [
        LogNormalVariation(0.5),
        LayerMap(LogNormalVariation(0.5), {0: NoVariation()}),
    ], ids=["plain", "layer-map"])
    def test_nominal_weights_restored(self, trained_mlp, blob_dataset, spec):
        """Adaptation writes every masked weight, also a layer the spec
        holds at nominal: each sample adapts from nominal, and the model
        leaves ``evaluate`` as it came in."""
        before = {n: p.data.copy() for n, p in trained_mlp.named_parameters()}
        method = ImportantWeightProtection(trained_mlp, 0.3)
        results = [
            method.evaluate(
                spec, blob_dataset, n_samples=2, seed=0,
                online_retraining=True, train_data=blob_dataset, adapt_steps=3,
            )
            for _ in range(2)
        ]
        for name, param in trained_mlp.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])
        assert results[0] == results[1]


class TestRSA:
    def test_random_masks_used(self, trained_mlp):
        rsa = RandomSparseAdaptation(trained_mlp, 0.2, seed=0)
        rsa2 = RandomSparseAdaptation(trained_mlp, 0.2, seed=1)
        any_diff = any(
            not np.array_equal(rsa.masks[k], rsa2.masks[k]) for k in rsa.masks
        )
        assert any_diff

    def test_evaluate_runs(self, trained_mlp, blob_dataset):
        result = RandomSparseAdaptation(trained_mlp, 0.2, seed=0).evaluate(
            LogNormalVariation(0.5), blob_dataset, n_samples=3, seed=0,
            train_data=blob_dataset, adapt_steps=5,
        )
        assert result.method == "random-sparse-adaptation"
        assert 0 <= result.accuracy_mean <= 1


class TestStatisticalTraining:
    def test_zero_overhead(self, trained_mlp, blob_dataset):
        method = StatisticalTraining(trained_mlp, LogNormalVariation(0.4),
                                     seed=0)
        method.fit(blob_dataset, epochs=3, batch_size=16)
        result = method.evaluate(blob_dataset, n_samples=5, seed=0)
        assert result.overhead == 0.0

    def test_source_model_untouched(self, trained_mlp, blob_dataset):
        before = {n: p.data.copy() for n, p in trained_mlp.named_parameters()}
        method = StatisticalTraining(trained_mlp, LogNormalVariation(0.4),
                                     seed=0)
        method.fit(blob_dataset, epochs=2, batch_size=16)
        for name, param in trained_mlp.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])

    def test_improves_robustness(self, trained_mlp, blob_dataset):
        """Noise-aware training must beat the vanilla model under the same
        variation — the core claim of [11]."""
        var = LogNormalVariation(0.6)
        ev = MonteCarloEvaluator(blob_dataset, n_samples=10, seed=5)
        vanilla = ev.evaluate(trained_mlp, var)
        method = StatisticalTraining(trained_mlp, var, lr=5e-3, seed=0)
        method.fit(blob_dataset, epochs=15, batch_size=16)
        robust = ev.evaluate(method.model, var)
        assert robust.mean >= vanilla.mean - 0.02
