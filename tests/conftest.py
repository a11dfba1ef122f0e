"""Shared fixtures: tiny datasets and models sized for fast unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compensation import CompensationTrainer
from repro.data import ArrayDataset, synth_mnist
from repro.models import LeNet5, MLP


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tiny_mnist():
    """Small synthetic MNIST split shared (read-only) across tests."""
    return synth_mnist(train_per_class=8, test_per_class=4)


@pytest.fixture(scope="session")
def tiny_train(tiny_mnist):
    return tiny_mnist[0]


@pytest.fixture(scope="session")
def tiny_test(tiny_mnist):
    return tiny_mnist[1]


@pytest.fixture()
def lenet():
    """A small, fresh LeNet-5 (width 0.5) per test."""
    return LeNet5(num_classes=10, in_channels=1, input_size=16,
                  width_multiplier=0.5, seed=0)


@pytest.fixture()
def mlp():
    """A tiny fresh MLP consuming (N, 1, 2, 2) blob images (4 features)."""
    return MLP(4, [8], 3, flatten_input=True, seed=0)


@pytest.fixture()
def blob_dataset(rng):
    """Linearly separable 3-class blobs as (N, 1, 2, 2) images."""
    n_per = 30
    centers = np.array([[2.0, 0.0, 0.0, -2.0],
                        [-2.0, 0.0, 0.0, 2.0],
                        [0.0, 2.0, -2.0, 0.0]])
    images, labels = [], []
    local = np.random.default_rng(7)
    for cls, center in enumerate(centers):
        pts = center + local.normal(0, 0.4, size=(n_per, 4))
        images.append(pts.reshape(n_per, 1, 2, 2))
        labels.extend([cls] * n_per)
    return ArrayDataset(np.concatenate(images), np.array(labels))


@pytest.fixture()
def fit_calls(monkeypatch):
    """Every ``CompensationTrainer.fit`` call made during the test (the
    trainer's model per call)."""
    calls = []
    original = CompensationTrainer.fit

    def counted(self, *args, **kwargs):
        calls.append(self.model)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CompensationTrainer, "fit", counted)
    return calls
