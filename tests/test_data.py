"""Datasets, loaders and augmentations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data import (
    ArrayDataset, DataLoader, add_noise, random_shift,
    synth_cifar10, synth_cifar100, synth_mnist,
)


class TestArrayDataset:
    def test_shapes_validated(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 1, 2, 2)), np.zeros(3))

    def test_indexing(self):
        ds = ArrayDataset(np.ones((3, 1, 2, 2)), np.array([0, 1, 2]))
        image, label = ds[1]
        assert image.shape == (1, 2, 2)
        assert label == 1
        assert len(ds) == 3

    def test_num_classes_and_image_shape(self):
        ds = ArrayDataset(np.ones((4, 3, 5, 5)), np.array([0, 0, 2, 1]))
        assert ds.num_classes == 3
        assert ds.image_shape == (3, 5, 5)

    def test_normalized_stats(self):
        rng = np.random.default_rng(0)
        ds = ArrayDataset(rng.normal(5, 3, size=(50, 2, 4, 4)),
                          np.zeros(50, dtype=int))
        norm = ds.normalized()
        assert abs(norm.images.mean()) < 1e-9
        assert norm.images.std() == pytest.approx(1.0, abs=0.01)


class TestDataLoader:
    def _ds(self, n=10):
        return ArrayDataset(np.arange(n * 4).reshape(n, 1, 2, 2).astype(float),
                            np.arange(n) % 2)

    def test_covers_all_samples(self):
        loader = DataLoader(self._ds(), batch_size=3, seed=0)
        seen = np.concatenate([images[:, 0, 0, 0] for images, _ in loader])
        np.testing.assert_array_equal(np.sort(seen), np.arange(10) * 4.0)

    def test_len_counts_the_partial_last_batch(self):
        loader = DataLoader(self._ds(), batch_size=3, seed=0)
        assert len(loader) == 4
        assert [len(labels) for _, labels in loader] == [3, 3, 3, 1]

    def test_epochs_differ_when_shuffled(self):
        loader = DataLoader(self._ds(), batch_size=10, seed=0)
        e1 = next(iter(loader))[1].copy()
        e2 = next(iter(loader))[1].copy()
        assert not np.array_equal(e1, e2)  # reshuffled across epochs

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self._ds(), batch_size=0)


class TestSyntheticDatasets:
    @pytest.mark.parametrize("factory,channels,classes", [
        (synth_mnist, 1, 10),
        (synth_cifar10, 3, 10),
    ])
    def test_shapes_and_classes(self, factory, channels, classes):
        train, test = factory(train_per_class=4, test_per_class=2)
        assert train.image_shape == (channels, 16, 16)
        assert train.num_classes == classes
        assert len(train) == 4 * classes
        assert len(test) == 2 * classes

    def test_cifar100_class_count_configurable(self):
        train, _ = synth_cifar100(num_classes=20, train_per_class=2,
                                  test_per_class=1)
        assert train.num_classes == 20

    def test_deterministic_generation(self):
        a, _ = synth_mnist(train_per_class=2, test_per_class=1, seed=5)
        b, _ = synth_mnist(train_per_class=2, test_per_class=1, seed=5)
        np.testing.assert_allclose(a.images, b.images)

    def test_balanced_labels(self):
        train, _ = synth_cifar10(train_per_class=3, test_per_class=1)
        counts = np.bincount(train.labels)
        assert (counts == 3).all()

    @pytest.mark.parametrize("factory,threshold", [
        # mnist glyphs are shift-augmented, which hurts raw-pixel NCM (conv
        # nets are fine); the low-frequency cifar classes survive shifts.
        (synth_mnist, 0.35),
        (synth_cifar10, 0.6),
    ])
    def test_classes_separable_by_nearest_mean(self, factory, threshold):
        """Nearest-class-mean must beat chance by a wide margin — the
        datasets exist to be learnable."""
        train, test = factory(train_per_class=16, test_per_class=8)
        means = np.stack([
            train.images[train.labels == c].mean(axis=0).ravel()
            for c in range(10)
        ])
        x = test.images.reshape(len(test), -1)
        pred = ((x[:, None, :] - means[None]) ** 2).sum(-1).argmin(1)
        assert (pred == test.labels).mean() > threshold


class TestAugmentations:
    def test_shift_zero_is_identity(self):
        img = np.random.default_rng(0).normal(size=(1, 4, 4))
        np.testing.assert_allclose(
            random_shift(img, 0, np.random.default_rng(0)), img
        )

    def test_shift_preserves_shape(self):
        img = np.ones((3, 8, 8))
        out = random_shift(img, 2, np.random.default_rng(1))
        assert out.shape == img.shape

    @settings(max_examples=15, deadline=None)
    @given(st.floats(0.01, 1.0))
    def test_noise_scale_controls_std(self, scale):
        img = np.zeros((1, 32, 32))
        out = add_noise(img, scale, np.random.default_rng(0))
        assert out.std() == pytest.approx(scale, rel=0.2)
