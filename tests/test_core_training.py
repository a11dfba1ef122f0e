"""The shared Trainer: learning, regularization, noise injection, warmup."""

import numpy as np
import pytest

from repro.core import Trainer
from repro.data import ArrayDataset
from repro.evaluation import accuracy
from repro.lipschitz import OrthogonalityRegularizer, layer_spectral_norms
from repro.models import MLP
from repro.optim import Adam, CosineSchedule
from repro.variation import LogNormalVariation, VariationInjector


def _fresh_mlp(seed=0):
    return MLP(4, [16], 3, flatten_input=True, seed=seed)


class TestBasicTraining:
    def test_learns_blobs(self, blob_dataset):
        model = _fresh_mlp()
        trainer = Trainer(model, Adam(list(model.parameters()), lr=0.01),
                          seed=0)
        history = trainer.fit(blob_dataset, epochs=25, batch_size=16,
                              val_data=blob_dataset)
        assert history.val_accuracy > 0.9

    def test_loss_decreases(self, blob_dataset):
        model = _fresh_mlp()
        trainer = Trainer(model, Adam(list(model.parameters()), lr=0.01),
                          seed=0)
        history = trainer.fit(blob_dataset, epochs=10, batch_size=16)
        assert history.loss[-1] < history.loss[0]

    def test_zero_epochs_noop(self, blob_dataset):
        model = _fresh_mlp()
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        Trainer(model, Adam(list(model.parameters()), lr=0.01)).fit(
            blob_dataset, epochs=0
        )
        for name, param in model.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])

    def test_negative_epochs_raises(self, blob_dataset):
        model = _fresh_mlp()
        trainer = Trainer(model, Adam(list(model.parameters()), lr=0.01))
        with pytest.raises(ValueError):
            trainer.fit(blob_dataset, epochs=-1)

    def test_scheduler_applied(self, blob_dataset):
        model = _fresh_mlp()
        opt = Adam(list(model.parameters()), lr=0.01)
        Trainer(model, opt).fit(
            blob_dataset, epochs=4,
            scheduler=CosineSchedule(opt, total_epochs=8, min_lr=0.001),
        )
        # Four of eight epochs: halfway down the cosine.
        assert opt.lr == pytest.approx(0.001 + (0.01 - 0.001) * 0.5)


class TestAccuracySweeps:
    @pytest.mark.parametrize("with_val", [True, False])
    def test_fit_sweeps_only_val_data_once(self, blob_dataset, monkeypatch,
                                           with_val):
        """``fit`` sweeps ``val_data`` once, after the last epoch, and
        never sweeps the train split."""
        from repro.core import training

        swept = []
        real = training.accuracy

        def spy(model, dataset, *args, **kwargs):
            swept.append(dataset)
            return real(model, dataset, *args, **kwargs)

        monkeypatch.setattr(training, "accuracy", spy)
        val = ArrayDataset(blob_dataset.images[::3], blob_dataset.labels[::3])
        model = _fresh_mlp()
        history = Trainer(model, Adam(list(model.parameters()), lr=0.01)).fit(
            blob_dataset, epochs=3, batch_size=16,
            val_data=val if with_val else None,
        )
        assert [d is val for d in swept] == ([True] if with_val else [])
        assert (history.val_accuracy is None) == (not swept)


class TestRegularizedTraining:
    def test_regularizer_reduces_spectral_norms(self, blob_dataset):
        plain = _fresh_mlp()
        Trainer(plain, Adam(list(plain.parameters()), lr=0.01), seed=0).fit(
            blob_dataset, epochs=20, batch_size=16
        )
        regd = _fresh_mlp()
        reg = OrthogonalityRegularizer(0.5, beta=1.0)
        Trainer(regd, Adam(list(regd.parameters()), lr=0.01),
                regularizer=reg, seed=0).fit(blob_dataset, epochs=20,
                                             batch_size=16)
        plain_max = max(layer_spectral_norms(plain).values())
        regd_max = max(layer_spectral_norms(regd).values())
        assert regd_max < plain_max

    def test_history_records_regularizer(self, blob_dataset):
        model = _fresh_mlp()
        reg = OrthogonalityRegularizer(0.5, beta=0.1)
        history = Trainer(
            model, Adam(list(model.parameters()), lr=0.01), regularizer=reg
        ).fit(blob_dataset, epochs=3)
        assert len(history.regularizer) == 3
        assert all(v > 0 for v in history.regularizer)

    def test_warmup_delays_penalty(self, blob_dataset):
        model = _fresh_mlp()
        reg = OrthogonalityRegularizer(0.5, beta=1.0)
        history = Trainer(
            model, Adam(list(model.parameters()), lr=0.01),
            regularizer=reg, regularizer_warmup_epochs=2,
        ).fit(blob_dataset, epochs=4)
        assert history.regularizer[0] == 0.0  # epoch 0: scale 0
        assert history.regularizer[-1] > 0.0


class TestNoiseAwareTraining:
    def test_weights_restored_each_batch(self, blob_dataset):
        """After fit, params hold the optimizer's updates, not a stale
        perturbation: re-running forward twice is deterministic."""
        from repro.autograd import Tensor
        model = _fresh_mlp()
        trainer = Trainer(
            model, Adam(list(model.parameters()), lr=0.01),
            variation=LogNormalVariation(0.4), seed=0,
        )
        trainer.fit(blob_dataset, epochs=2, batch_size=16)
        x = Tensor(blob_dataset.images[:4])
        model.eval()
        np.testing.assert_array_equal(model(x).data, model(x).data)

    def test_a_fit_builds_one_injector(self, blob_dataset, monkeypatch):
        """The injector binds once per trainer, not once per batch."""
        import repro.core.training as training

        built = []

        class CountingInjector(VariationInjector):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(training, "VariationInjector", CountingInjector)
        model = _fresh_mlp()
        Trainer(
            model, Adam(list(model.parameters()), lr=0.01),
            variation=LogNormalVariation(0.3), seed=0,
        ).fit(blob_dataset, epochs=2, batch_size=16)
        assert len(built) == 1

    def test_one_injector_trains_what_one_per_batch_trained(self, blob_dataset):
        """Adam rebinds ``Parameter.data`` but never the ``Parameter``, and
        a draw reads ``param.data`` when it is made: the shared injector
        perturbs the updated weights, bitwise as a per-batch one did."""

        class PerBatchInjector(Trainer):
            def _train_batch(self, images, labels):
                self._injector = VariationInjector(self.model, self.variation)
                return super()._train_batch(images, labels)

        weights = []
        for cls in (Trainer, PerBatchInjector):
            model = _fresh_mlp()
            cls(
                model, Adam(list(model.parameters()), lr=0.01),
                variation=LogNormalVariation(0.3), seed=0,
            ).fit(blob_dataset, epochs=2, batch_size=16)
            weights.append([p.data.tobytes() for p in model.parameters()])
        assert weights[0] == weights[1]

    def test_noise_aware_still_learns(self, blob_dataset):
        model = _fresh_mlp()
        trainer = Trainer(
            model, Adam(list(model.parameters()), lr=0.01),
            variation=LogNormalVariation(0.3), seed=0,
        )
        trainer.fit(blob_dataset, epochs=25, batch_size=16)
        assert accuracy(model, blob_dataset) > 0.8
