"""Variation injection: in-place perturbation, restoration, scoping."""

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import Tensor
from repro.compensation import CompensationPlan
from repro.variation import (
    LogNormalVariation, VariationInjector, weighted_layers,
)


def _snapshot(model):
    return {n: p.data.copy() for n, p in model.named_parameters()}


class TestWeightedLayers:
    def test_order_and_count_lenet(self, lenet):
        layers = weighted_layers(lenet)
        assert len(layers) == 5  # conv, conv, fc, fc, fc
        assert layers[0][0] == "net.0"

    def test_excludes_digital_modules(self, lenet):
        comp = CompensationPlan({0: 0.5}).apply(lenet, seed=0)
        names = [n for n, _ in weighted_layers(comp)]
        assert len(names) == 5  # generator/compensator not counted
        assert not any("generator" in n or "compensator" in n for n in names)


class TestPerturbed:
    """``VariationInjector.applied``: perturb in place, restore on exit."""

    def test_weights_restored_after_context(self, lenet):
        before = _snapshot(lenet)
        with VariationInjector(lenet, LogNormalVariation(0.5)).applied(0):
            pass
        after = _snapshot(lenet)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_weights_changed_inside_context(self, lenet):
        before = _snapshot(lenet)
        with VariationInjector(lenet, LogNormalVariation(0.5)).applied(0):
            inside = _snapshot(lenet)
        changed = any(
            not np.allclose(before[n], inside[n])
            for n in before if n.endswith("weight")
        )
        assert changed

    def test_biases_untouched(self, lenet):
        before = _snapshot(lenet)
        with VariationInjector(lenet, LogNormalVariation(0.9)).applied(0):
            inside = _snapshot(lenet)
        for name in before:
            if name.endswith("bias"):
                np.testing.assert_array_equal(before[name], inside[name])

    def test_restores_on_exception(self, lenet):
        before = _snapshot(lenet)
        with pytest.raises(RuntimeError):
            with VariationInjector(lenet, LogNormalVariation(0.5)).applied(0):
                raise RuntimeError("boom")
        after = _snapshot(lenet)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_layer_subset_only(self, lenet):
        before = _snapshot(lenet)
        with VariationInjector(lenet, "lognormal:0.8;@0=none;@1=none").applied(0):
            inside = _snapshot(lenet)
        # first two conv weights untouched
        np.testing.assert_array_equal(before["net.0.weight"],
                                      inside["net.0.weight"])
        np.testing.assert_array_equal(before["net.3.weight"],
                                      inside["net.3.weight"])
        assert not np.allclose(before["net.7.weight"], inside["net.7.weight"])

    def test_seed_reproducible(self, lenet):
        with VariationInjector(lenet, LogNormalVariation(0.5)).applied(11):
            a = lenet._modules["net"][0].weight.data.copy()
        with VariationInjector(lenet, LogNormalVariation(0.5)).applied(11):
            b = lenet._modules["net"][0].weight.data.copy()
        np.testing.assert_array_equal(a, b)


class TestProtectionMasks:
    def test_protected_entries_stay_nominal(self, lenet):
        name, layer = weighted_layers(lenet)[0]
        nominal = layer.weight.data.copy()
        mask = np.zeros_like(nominal, dtype=bool)
        mask[0] = True  # protect first filter
        injector = VariationInjector(
            lenet, LogNormalVariation(0.9),
            protection_masks={f"{name}.weight": mask},
        )
        with injector.applied(seed=0):
            perturbed_w = layer.weight.data
            np.testing.assert_array_equal(perturbed_w[0], nominal[0])
            assert not np.allclose(perturbed_w[1:], nominal[1:])

    def test_digital_compensation_not_perturbed(self, lenet):
        comp = CompensationPlan({0: 1.0}).apply(lenet, seed=0)
        wrapper = weighted_layers(comp)[0][1]  # the original conv module
        gen_before = None
        for module in comp.modules():
            if getattr(module, "digital", False):
                gen_before = module.weight.data.copy()
                gen_module = module
                break
        with VariationInjector(comp, LogNormalVariation(0.9)).applied(0):
            np.testing.assert_array_equal(gen_module.weight.data, gen_before)


class TestSample:
    def test_sample_does_not_mutate(self, lenet):
        before = _snapshot(lenet)
        injector = VariationInjector(lenet, LogNormalVariation(0.5))
        sampled = injector.sample(seed=0)
        after = _snapshot(lenet)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])
        assert sampled  # non-empty

    def test_sample_matches_applied(self, lenet):
        injector = VariationInjector(lenet, LogNormalVariation(0.5))
        sampled = injector.sample(seed=3)
        with injector.applied(seed=3):
            applied = {
                n: p.data.copy() for n, p in lenet.named_parameters()
                if n.endswith("weight") and "net" in n
            }
        for name, value in sampled.items():
            np.testing.assert_allclose(value, applied[name])


class TestAppliedRestoresOnException:
    def test_injector_applied_restores_on_exception(self, lenet):
        """Weights return to nominal even when the body of
        ``VariationInjector.applied`` raises mid-evaluation."""
        before = _snapshot(lenet)
        injector = VariationInjector(lenet, LogNormalVariation(0.6))
        with pytest.raises(RuntimeError):
            with injector.applied(seed=1):
                raise RuntimeError("forward pass exploded")
        after = _snapshot(lenet)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])


class TestSampleBatch:
    def test_paired_with_applied(self, lenet):
        """Stack slice i is bitwise what ``applied`` installs for the i-th
        spawned stream — the vectorized/loop equivalence contract."""
        from repro.utils.rng import spawn_rngs
        injector = VariationInjector(lenet, LogNormalVariation(0.5))
        stacked = injector.sample_batch(4, seed=99)
        assert stacked  # non-empty
        for i, rng in enumerate(spawn_rngs(99, 4)):
            with injector.applied(rng):
                for name, param in lenet.named_parameters():
                    if name in stacked:
                        np.testing.assert_array_equal(
                            stacked[name][i], param.data
                        )

    def test_does_not_mutate_model(self, lenet):
        before = _snapshot(lenet)
        VariationInjector(lenet, LogNormalVariation(0.5)).sample_batch(3, 0)
        after = _snapshot(lenet)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_respects_protection_masks(self, lenet):
        from repro.variation import weighted_layers
        name, layer = weighted_layers(lenet)[0]
        mask = np.zeros_like(layer.weight.data, dtype=bool)
        mask[0] = True
        injector = VariationInjector(
            lenet, LogNormalVariation(0.9),
            protection_masks={f"{name}.weight": mask},
        )
        stacked = injector.sample_batch(3, seed=0)
        for i in range(3):
            np.testing.assert_array_equal(
                stacked[f"{name}.weight"][i][0], layer.weight.data[0]
            )

    def test_invalid_count_raises(self, lenet):
        injector = VariationInjector(lenet, LogNormalVariation(0.5))
        with pytest.raises(ValueError):
            injector.sample_batch(0, seed=0)


class TestAppliedStack:
    def test_installs_and_restores(self, lenet):
        before = _snapshot(lenet)
        injector = VariationInjector(lenet, LogNormalVariation(0.5))
        stacked = injector.sample_batch(3, seed=5)
        with injector.applied_stack(stacked):
            for name, param in lenet.named_parameters():
                if name in stacked:
                    assert param.data.shape == (3,) + before[name].shape
        after = _snapshot(lenet)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_restores_on_exception(self, lenet):
        before = _snapshot(lenet)
        injector = VariationInjector(lenet, LogNormalVariation(0.5))
        stacked = injector.sample_batch(2, seed=5)
        with pytest.raises(RuntimeError):
            with injector.applied_stack(stacked):
                raise RuntimeError("boom")
        after = _snapshot(lenet)
        for name in before:
            np.testing.assert_array_equal(before[name], after[name])

    def test_shape_mismatch_raises(self, lenet):
        injector = VariationInjector(lenet, LogNormalVariation(0.5))
        stacked = injector.sample_batch(2, seed=5)
        bad = {name: arr[:, :1] for name, arr in stacked.items()}
        with pytest.raises(ValueError):
            with injector.applied_stack(bad):
                pass
