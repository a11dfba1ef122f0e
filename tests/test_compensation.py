"""Compensation wrappers, plans, overhead accounting and training."""

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import Tensor
from repro.compensation import (
    CompensatedConv2d, CompensatedLinear, CompensationPlan,
    CompensationTrainer, compensation_parameter_count, is_compensated,
    plan_overhead,
)
from repro.data import ArrayDataset
from repro.models import LeNet5
from repro.variation import LogNormalVariation, weighted_layers


class TestCompensatedConv2d:
    def test_output_shape_matches_original(self):
        conv = nn.Conv2d(3, 6, 3, padding=1, seed=0)
        wrapper = CompensatedConv2d(conv, m=2, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 8, 8)))
        assert wrapper(x).shape == conv(x).shape

    def test_handles_spatial_shrinking_conv(self):
        # valid conv: output 4x4 from 8x8 -> adaptive pooling path
        conv = nn.Conv2d(2, 4, 5, padding=0, seed=0)
        wrapper = CompensatedConv2d(conv, m=1, seed=0)
        x = Tensor(np.random.default_rng(1).normal(size=(1, 2, 8, 8)))
        assert wrapper(x).shape == (1, 4, 4, 4)

    def test_generator_filter_dimensions(self):
        conv = nn.Conv2d(3, 6, 3, seed=0)
        wrapper = CompensatedConv2d(conv, m=2, seed=0)
        # generator: m filters of 1x1x(l+n); compensator: n of 1x1x(n+m)
        assert wrapper.generator.weight.shape == (2, 9, 1, 1)
        assert wrapper.compensator.weight.shape == (6, 8, 1, 1)

    def test_near_identity_at_init(self):
        conv = nn.Conv2d(3, 6, 3, padding=1, seed=0)
        wrapper = CompensatedConv2d(conv, m=2, seed=0)
        x = Tensor(np.random.default_rng(2).normal(size=(2, 3, 6, 6)))
        y0, y1 = conv(x).data, wrapper(x).data
        rel = np.linalg.norm(y1 - y0) / np.linalg.norm(y0)
        assert rel < 1.0  # correction path is a perturbation, not a rewrite

    def test_digital_flags(self):
        wrapper = CompensatedConv2d(nn.Conv2d(2, 2, 1, seed=0), m=1, seed=0)
        assert wrapper.generator.digital and wrapper.compensator.digital
        assert not getattr(wrapper.original, "digital", False)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            CompensatedConv2d(nn.Conv2d(2, 2, 1, seed=0), m=0)

    def test_compensation_parameter_count(self):
        conv = nn.Conv2d(3, 6, 3, seed=0)
        wrapper = CompensatedConv2d(conv, m=2, seed=0)
        expected = (2 * 9 + 2) + (6 * 8 + 6)  # weights + biases
        assert wrapper.compensation_parameters() == expected


class TestCompensatedLinear:
    def test_shapes(self):
        lin = nn.Linear(10, 4, seed=0)
        wrapper = CompensatedLinear(lin, m=3, seed=0)
        x = Tensor(np.random.default_rng(0).normal(size=(5, 10)))
        assert wrapper(x).shape == (5, 4)
        assert wrapper.generator.weight.shape == (3, 14)
        assert wrapper.compensator.weight.shape == (4, 7)

    def test_is_compensated_predicate(self):
        lin = nn.Linear(4, 4, seed=0)
        assert is_compensated(CompensatedLinear(lin, m=1, seed=0))
        assert not is_compensated(lin)


class TestCompensationPlan:
    def test_apply_preserves_source_model(self, lenet):
        before = {n: p.data.copy() for n, p in lenet.named_parameters()}
        CompensationPlan({0: 0.5}).apply(lenet, seed=0)
        for name, param in lenet.named_parameters():
            np.testing.assert_array_equal(param.data, before[name])
        assert compensation_parameter_count(lenet) == 0

    def test_apply_splices_wrapper(self, lenet):
        comp = CompensationPlan({0: 1.0, 1: 0.5}).apply(lenet, seed=0)
        wrappers = [m for m in comp.modules() if is_compensated(m)]
        assert len(wrappers) == 2

    def test_apply_copies_weights(self, lenet):
        comp = CompensationPlan({0: 1.0}).apply(lenet, seed=0)
        src = weighted_layers(lenet)[0][1].weight
        dst = weighted_layers(comp)[0][1].weight
        np.testing.assert_array_equal(src.data, dst.data)
        assert src is not dst

    def test_forward_equivalence_of_uncompensated_layers(self, lenet):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 1, 16, 16)))
        plan = CompensationPlan({})
        clone = plan.apply(lenet, seed=0)
        np.testing.assert_allclose(clone(x).data, lenet(x).data)

    def test_out_of_range_layer_raises(self, lenet):
        with pytest.raises(IndexError):
            CompensationPlan({99: 0.5}).apply(lenet, seed=0)

    def test_filters_for_minimum_one(self, lenet):
        plan = CompensationPlan()
        conv = weighted_layers(lenet)[0][1]
        assert plan.filters_for(conv, 0.01) == 1

    def test_overhead_positive_and_small(self, lenet):
        comp = CompensationPlan({0: 0.5}).apply(lenet, seed=0)
        overhead = plan_overhead(lenet, comp)
        assert 0 < overhead < 0.2

    def test_overhead_grows_with_ratio(self, lenet):
        small = CompensationPlan({0: 0.25}).apply(lenet, seed=0)
        large = CompensationPlan({0: 1.0}).apply(lenet, seed=0)
        assert plan_overhead(lenet, large) > plan_overhead(lenet, small)


class TestCompensationTrainer:
    def _tiny_data(self):
        rng = np.random.default_rng(0)
        images = rng.normal(size=(40, 1, 16, 16))
        labels = rng.integers(0, 10, size=40)
        return ArrayDataset(images, labels)

    def test_requires_compensated_model(self, lenet):
        with pytest.raises(ValueError):
            CompensationTrainer(lenet, LogNormalVariation(0.3))

    def test_original_weights_frozen_and_unchanged(self, lenet):
        comp = CompensationPlan({0: 0.5}).apply(lenet, seed=0)
        original_layer = weighted_layers(comp)[0][1]
        before = original_layer.weight.data.copy()
        trainer = CompensationTrainer(comp, LogNormalVariation(0.3), seed=0)
        trainer.fit(self._tiny_data(), epochs=1, batch_size=8)
        np.testing.assert_array_equal(original_layer.weight.data, before)

    def test_compensation_weights_updated(self, lenet):
        comp = CompensationPlan({0: 0.5}).apply(lenet, seed=0)
        wrapper = next(m for m in comp.modules() if is_compensated(m))
        before = wrapper.generator.weight.data.copy()
        trainer = CompensationTrainer(comp, LogNormalVariation(0.3), seed=0)
        trainer.fit(self._tiny_data(), epochs=1, batch_size=8)
        assert not np.allclose(wrapper.generator.weight.data, before)

    def test_one_accuracy_sweep_per_fit(self, lenet, tiny_train, tiny_test,
                                        monkeypatch):
        """E epochs record E losses but sweep only ``val_data``, once, at
        the end."""
        from repro.core import training

        swept = []
        real = training.accuracy

        def spy(model, dataset, *args, **kwargs):
            swept.append(dataset)
            return real(model, dataset, *args, **kwargs)

        monkeypatch.setattr(training, "accuracy", spy)
        comp = CompensationPlan({0: 0.5}).apply(lenet, seed=0)
        trainer = CompensationTrainer(comp, LogNormalVariation(0.3), seed=0)
        history = trainer.fit(tiny_train, epochs=3, batch_size=16,
                              val_data=tiny_test)
        assert len(history.loss) == 3
        assert 0.0 <= history.val_accuracy <= 1.0
        assert len(swept) == 1 and swept[0] is tiny_test

    def test_loss_decreases(self, tiny_train):
        model = LeNet5(num_classes=10, in_channels=1, input_size=16,
                       width_multiplier=0.5, seed=0)
        comp = CompensationPlan({0: 1.0}).apply(model, seed=0)
        trainer = CompensationTrainer(comp, LogNormalVariation(0.2),
                                      lr=3e-3, seed=0)
        history = trainer.fit(tiny_train, epochs=4, batch_size=16)
        assert history.loss[-1] < history.loss[0]
