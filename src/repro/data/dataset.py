"""Dataset containers."""

from __future__ import annotations

from typing import Tuple

import numpy as np


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

    def normalized(self, mean=None, std=None) -> "ArrayDataset":
        """Return a per-channel standardized copy (mean 0, std 1 by default
        from this dataset's own statistics)."""
        if mean is None:
            mean = self.images.mean(axis=(0, 2, 3), keepdims=True)
        if std is None:
            std = self.images.std(axis=(0, 2, 3), keepdims=True) + 1e-8
        return ArrayDataset((self.images - mean) / std, self.labels)

