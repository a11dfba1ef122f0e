"""Error suppression by modified Lipschitz constant regularization.

The paper's Section III-A: a layer ``f(x) = (w ∘ e^theta) x + b`` followed
by ReLU amplifies input errors by at most the spectral norm of the
variation-scaled weight matrix (eq. 9). Bounding the log-normal multiplier
by its mean + 3 std converts the stochastic constraint into the
deterministic ``||w||_2 <= lambda`` (eq. 10) with

``lambda = k / (exp(sigma^2/2) + 3 sqrt((exp(sigma^2)-1) exp(sigma^2)))``

which training enforces softly through the orthogonality penalty of
eq. (11). With k = 1 per layer, the composition bound (eq. 5) keeps the
whole network non-expansive, so early-layer errors cannot be amplified by
later layers.
"""

from repro.lipschitz.bounds import lambda_bound, lognormal_bound
from repro.lipschitz.spectral import (
    layer_spectral_norms,
    spectral_norm,
    weight_as_matrix,
)
from repro.lipschitz.regularizer import OrthogonalityRegularizer

__all__ = [
    "lognormal_bound",
    "lambda_bound",
    "spectral_norm",
    "weight_as_matrix",
    "OrthogonalityRegularizer",
    "layer_spectral_norms",
]
