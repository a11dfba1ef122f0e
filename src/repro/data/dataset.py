"""Dataset containers and splitting."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.utils.rng import new_rng, SeedLike


class Dataset:
    """Abstract indexable dataset of (image, label) pairs."""

    def __len__(self) -> int:
        raise NotImplementedError

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        raise NotImplementedError


class ArrayDataset(Dataset):
    """In-memory dataset backed by an image array (N, C, H, W) and labels (N,)."""

    def __init__(self, images: np.ndarray, labels: np.ndarray) -> None:
        images = np.asarray(images, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {images.shape}")
        if labels.ndim != 1 or len(labels) != len(images):
            raise ValueError(
                f"labels shape {labels.shape} does not match {len(images)} images"
            )
        self.images = images
        self.labels = labels

    @classmethod
    def from_views(cls, images: np.ndarray, labels: np.ndarray) -> "ArrayDataset":
        """Wrap arrays as-is, skipping the float64/int64 coercion copy.

        The evaluation engines use this to carry float32 images (the eval
        dtype policy), which ``__init__``'s coercion would silently copy
        back to float64. Shapes are still validated; dtypes are the
        caller's contract.
        """
        dataset = cls.__new__(cls)
        if images.ndim != 4:
            raise ValueError(f"images must be (N, C, H, W), got {images.shape}")
        if labels.ndim != 1 or len(labels) != len(images):
            raise ValueError(
                f"labels shape {labels.shape} does not match {len(images)} images"
            )
        dataset.images = images
        dataset.labels = labels
        return dataset

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, index: int) -> Tuple[np.ndarray, int]:
        return self.images[index], int(self.labels[index])

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return tuple(self.images.shape[1:])

    def subset(self, indices: np.ndarray) -> "ArrayDataset":
        return ArrayDataset(self.images[indices], self.labels[indices])

    def normalized(self, mean=None, std=None) -> "ArrayDataset":
        """Return a per-channel standardized copy (mean 0, std 1 by default
        from this dataset's own statistics)."""
        if mean is None:
            mean = self.images.mean(axis=(0, 2, 3), keepdims=True)
        if std is None:
            std = self.images.std(axis=(0, 2, 3), keepdims=True) + 1e-8
        return ArrayDataset((self.images - mean) / std, self.labels)


def train_test_split(
    dataset: ArrayDataset, test_fraction: float = 0.2, seed: SeedLike = 0
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Shuffled split preserving nothing but proportions.

    With a fixed seed the split is deterministic, so train/test never leak
    across calls within an experiment.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = new_rng(seed)
    order = rng.permutation(len(dataset))
    n_test = max(1, int(round(len(dataset) * test_fraction)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return dataset.subset(train_idx), dataset.subset(test_idx)
