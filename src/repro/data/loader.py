"""Mini-batch iteration."""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from repro.data.dataset import ArrayDataset
from repro.utils.rng import new_rng, SeedLike


class DataLoader:
    """Iterate an :class:`ArrayDataset` in shuffled mini-batches.

    Yields ``(images, labels)`` numpy pairs; trainers wrap images in
    :class:`repro.autograd.Tensor`. Reshuffles each epoch from its own rng
    so epochs are reproducible given the loader seed.
    """

    def __init__(
        self,
        dataset: ArrayDataset,
        batch_size: int = 32,
        shuffle: bool = True,
        seed: SeedLike = None,
    ) -> None:
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self._rng = new_rng(seed)

    def __len__(self) -> int:
        return (len(self.dataset) + self.batch_size - 1) // self.batch_size

    def __iter__(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        n = len(self.dataset)
        order = self._rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            yield self.dataset.images[idx], self.dataset.labels[idx]
