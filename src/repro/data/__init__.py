"""Datasets and loaders.

The paper evaluates on MNIST, CIFAR-10 and CIFAR-100. This offline
reproduction has no network access, so ``repro.data`` provides procedurally
generated stand-ins with the same tensor layout and class structure:

- :func:`synth_mnist` — 1x16x16 grey images of rendered digit glyphs with
  random shifts and noise (10 classes).
- :func:`synth_cifar10` — 3x16x16 colour images of textured shape
  prototypes (10 classes).
- :func:`synth_cifar100` — the same construction with many more, mutually
  closer classes (default 100), giving the harder many-class workload whose
  accuracy collapses fastest under weight variation (the paper's
  VGG16-Cifar100 headline case).

The robustness phenomena the paper studies (error amplification through
depth, recovery by suppression + compensation) depend on network/error
dynamics, not on natural-image statistics; DESIGN.md documents this
substitution.
"""

from repro.data.dataset import ArrayDataset, Dataset
from repro.data.loader import DataLoader
from repro.data.synthetic import (
    DATASET_FACTORIES,
    SyntheticSpec,
    make_synthetic,
    synth_cifar10,
    synth_cifar100,
    synth_mnist,
)
from repro.data.augment import random_shift, add_noise

__all__ = [
    "Dataset",
    "ArrayDataset",
    "DataLoader",
    "SyntheticSpec",
    "make_synthetic",
    "synth_mnist",
    "synth_cifar10",
    "synth_cifar100",
    "DATASET_FACTORIES",
    "random_shift",
    "add_noise",
]
