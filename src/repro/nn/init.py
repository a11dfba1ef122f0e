"""Weight initialisation.

Plain functions over numpy arrays; layers call them at construction with an
explicit rng so that model initialisation is reproducible.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def _fan_in(shape: Tuple[int, ...]) -> int:
    """Fan-in of linear (out, in) and conv (F, C, KH, KW) weight shapes."""
    if len(shape) == 2:
        return shape[1]
    if len(shape) == 4:
        return shape[1] * shape[2] * shape[3]
    raise ValueError(f"unsupported weight shape for init: {shape}")


def kaiming_normal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """He initialisation for ReLU networks: std = sqrt(2 / fan_in)."""
    return rng.normal(0.0, np.sqrt(2.0) / np.sqrt(_fan_in(shape)), size=shape)


def zeros(shape: Tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=np.float64)
