"""The modified Lipschitz regularization term of eq. (11).

``Loss = L_ce + beta * sum_i || W_i^T W_i - lambda^2 I ||``

pulls every layer's Gram matrix toward ``lambda^2 I``: the weight matrix
becomes (scaled-)orthogonal, all singular values move to ``lambda``, hence
the spectral norm is bounded by ``lambda`` — and, unlike plain norm
clipping, the layer keeps full rank, preserving accuracy.

Implementation notes
--------------------
* The Gram matrix is formed on the smaller side of the flattened weight
  (``W W^T`` when F < K), which is mathematically equivalent for bounding
  the top singular value and much cheaper for wide layers.
* We penalise the squared Frobenius norm (differentiable everywhere, and
  the form used by the Parseval-networks line of work the paper cites).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.nn.module import Module
from repro.nn.graph import weighted_layers


class OrthogonalityRegularizer:
    """Computes ``beta * sum_i ||Gram(W_i) - lambda^2 I||_F^2`` as a Tensor.

    Parameters
    ----------
    lam:
        Per-layer spectral-norm budget (from
        :func:`repro.lipschitz.lambda_bound`).
    beta:
        Regularization weight (paper's hyperparameter beta).

    Every non-digital weighted layer is regularized.
    """

    def __init__(self, lam: float, beta: float = 1e-2) -> None:
        if lam <= 0:
            raise ValueError(f"lambda must be positive, got {lam}")
        if beta < 0:
            raise ValueError(f"beta must be non-negative, got {beta}")
        self.lam = float(lam)
        self.beta = float(beta)

    def penalty(self, model: Module) -> Tensor:
        """Differentiable penalty term to add to the task loss."""
        total: Optional[Tensor] = None
        lam2 = self.lam**2
        for _, layer in weighted_layers(model):
            param = layer._parameters["weight"]
            w = param if param.ndim == 2 else param.reshape(param.shape[0], -1)
            rows, cols = w.shape
            gram = w.matmul(w.T) if rows <= cols else w.T.matmul(w)
            identity = Tensor(np.eye(min(rows, cols)) * lam2)
            deviation = (gram - identity) ** 2
            # Normalizing by the Gram size equalises the pull across layers
            # of very different widths, so one beta serves the whole net.
            term = deviation.mean()
            total = term if total is None else total + term
        if total is None:
            raise ValueError("model has no weighted layers to regularize")
        return total * self.beta

    def __repr__(self) -> str:
        return f"OrthogonalityRegularizer(lambda={self.lam:.4f}, beta={self.beta})"
