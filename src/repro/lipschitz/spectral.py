"""Spectral norms of layer weights.

Conv kernels (F, C, KH, KW) are flattened to (F, C*KH*KW) — the matrix a
crossbar actually stores and the one whose norm eq. (9) constrains. The
norm is the exact largest singular value, by SVD.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.nn.graph import weighted_layers
from repro.nn.module import Module


def weight_as_matrix(weight: np.ndarray) -> np.ndarray:
    """Flatten a layer weight to the 2-D operator the crossbar stores."""
    weight = np.asarray(weight)
    if weight.ndim == 2:
        return weight
    if weight.ndim == 4:
        return weight.reshape(weight.shape[0], -1)
    raise ValueError(f"unsupported weight rank {weight.ndim} (shape {weight.shape})")


def spectral_norm(weight: np.ndarray) -> float:
    """Exact largest singular value via SVD."""
    return float(np.linalg.svd(weight_as_matrix(weight), compute_uv=False)[0])


def layer_spectral_norms(model: Module) -> Dict[str, float]:
    """Exact spectral norm of every weighted (crossbar-mapped) layer."""
    return {
        name: spectral_norm(layer._parameters["weight"].data)
        for name, layer in weighted_layers(model)
    }
