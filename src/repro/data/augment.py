"""Image augmentations used by the synthetic dataset generators.

All functions are pure numpy over (C, H, W) single images or (N, C, H, W)
batches and take an explicit rng.
"""

from __future__ import annotations

import numpy as np


def random_shift(
    image: np.ndarray, max_shift: int, rng: np.random.Generator
) -> np.ndarray:
    """Translate an image by up to ``max_shift`` pixels per axis (zero fill)."""
    if max_shift == 0:
        return image
    dy, dx = rng.integers(-max_shift, max_shift + 1, size=2)
    out = np.zeros_like(image)
    h, w = image.shape[-2:]
    src_y = slice(max(0, -dy), min(h, h - dy))
    src_x = slice(max(0, -dx), min(w, w - dx))
    dst_y = slice(max(0, dy), min(h, h + dy))
    dst_x = slice(max(0, dx), min(w, w + dx))
    out[..., dst_y, dst_x] = image[..., src_y, src_x]
    return out


def add_noise(
    image: np.ndarray, scale: float, rng: np.random.Generator
) -> np.ndarray:
    """Additive Gaussian pixel noise."""
    if scale <= 0:
        return image
    return image + rng.normal(0.0, scale, size=image.shape)


def smooth2d(image: np.ndarray) -> np.ndarray:
    """One pass of a cheap five-point box blur (edge-padded); used to give
    prototypes spatial coherence (natural images are dominated by low
    frequencies)."""
    out = image.astype(np.float64)
    padded = np.pad(out, [(0, 0)] * (out.ndim - 2) + [(1, 1), (1, 1)], mode="edge")
    return (
        padded[..., :-2, 1:-1]
        + padded[..., 2:, 1:-1]
        + padded[..., 1:-1, :-2]
        + padded[..., 1:-1, 2:]
        + padded[..., 1:-1, 1:-1]
    ) / 5.0
