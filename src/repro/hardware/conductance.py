"""Mapping signed weights to RRAM conductance pairs.

A signed weight cannot be one conductance (conductance is positive), so the
standard differential scheme stores ``w`` as a pair ``(G+, G-)`` on two
bitlines with ``w ∝ G+ - G-``. We map the per-matrix weight scale to the
available conductance window ``[g_min, g_max]``:

``G+ = g_min + max(w, 0) * slope``, ``G- = g_min + max(-w, 0) * slope``

with ``slope = (g_max - g_min) / w_scale``. Decoding inverts the affine
map. The mapper is exact (up to float error) for any weight within scale —
the round-trip property the tests pin down.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class ConductanceMapper:
    """Encode/decode between weights and differential conductance pairs.

    Parameters
    ----------
    w_scale:
        Weight magnitude mapped to ``g_max``. ``None`` means auto-scale to
        ``max(|w|)`` of the encoded matrix (per-crossbar scaling, as done in
        practice to use the full conductance range).
    """

    #: The conductance window in siemens, after common HfO2 RRAM reports
    #: (1 uS .. 100 uS).
    g_min = 1e-6
    g_max = 100e-6

    def __init__(self, w_scale: Optional[float] = None) -> None:
        self.w_scale = w_scale

    def scale_for(self, weights: np.ndarray) -> float:
        """Weight scale actually used for ``weights``."""
        if self.w_scale is not None:
            return self.w_scale
        scale = float(np.abs(weights).max())
        return scale if scale > 0 else 1.0

    def encode(self, weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray, float]:
        """Weights -> (G+, G-, scale). Weights beyond scale saturate."""
        scale = self.scale_for(weights)
        span = self.g_max - self.g_min
        normalized = np.clip(weights / scale, -1.0, 1.0)
        g_pos = self.g_min + np.maximum(normalized, 0.0) * span
        g_neg = self.g_min + np.maximum(-normalized, 0.0) * span
        return g_pos, g_neg, scale

    def decode(
        self, g_pos: np.ndarray, g_neg: np.ndarray, scale: float
    ) -> np.ndarray:
        """(G+, G-) -> weights under the scale returned by :meth:`encode`."""
        span = self.g_max - self.g_min
        return (g_pos - g_neg) / span * scale

    def clip(self, conductance: np.ndarray) -> np.ndarray:
        """Clamp conductances into the physical window (after variation,
        programmed values cannot leave [g_min, g_max])."""
        return np.clip(conductance, self.g_min, self.g_max)

    def __repr__(self) -> str:
        return (
            f"ConductanceMapper(g_min={self.g_min}, g_max={self.g_max}, "
            f"w_scale={self.w_scale})"
        )
