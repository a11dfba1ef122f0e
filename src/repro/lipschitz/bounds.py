"""Closed-form bounds on the log-normal variation multiplier (eq. 10)."""

from __future__ import annotations

import math


def lognormal_bound(sigma: float) -> float:
    """Mean + 3 standard deviations of ``exp(theta)``,
    ``theta ~ N(0, sigma^2)``.

    The paper bounds the random multiplier ``e^theta`` in eq. (9) by
    ``mu + 3 sigma`` of its log-normal distribution:

    ``exp(sigma^2/2) + 3 sqrt((exp(sigma^2) - 1) exp(sigma^2))``.
    """
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    s2 = sigma * sigma
    mean = math.exp(s2 / 2.0)
    std = math.sqrt(max(math.exp(s2) - 1.0, 0.0) * math.exp(s2))
    return mean + 3.0 * std


def lambda_bound(sigma: float) -> float:
    """Spectral-norm budget per layer (eq. 10): ``lambda = k / bound``.

    With the paper's Lipschitz target ``k = 1``, a layer whose weight
    matrix satisfies ``||W||_2 <= lambda`` is non-expansive even under the
    3-sigma worst-case log-normal multiplier, so errors entering the layer
    are suppressed rather than amplified.
    """
    return 1.0 / lognormal_bound(sigma)
