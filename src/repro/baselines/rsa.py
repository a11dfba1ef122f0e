"""[9] Random Sparse Adaptation (Mohanty et al., IEDM 2017).

A random sparse subset of weights is mapped to reliable on-chip memory and
*retrained* (the rest of the network, on the inaccurate RRAM array, is left
as manufactured). Structurally identical to importance-based protection
except the subset is random and adaptation is the method's core (the
non-adapted variant is its ablation).
"""

from __future__ import annotations

from repro.baselines.common import random_masks
from repro.baselines.protection import ImportantWeightProtection
from repro.nn.module import Module
from repro.utils.rng import new_rng


class RandomSparseAdaptation(ImportantWeightProtection):
    """Random-subset protection + retraining, sharing the protection
    evaluation machinery. Adaptation of the sparse subset *is* the
    method, so callers evaluate it with ``online_retraining=True``."""

    method_name = "random-sparse-adaptation"

    def __init__(self, model: Module, fraction: float) -> None:
        # Bypass the magnitude-mask constructor; build random masks instead.
        self.model = model
        self.fraction = fraction
        self.masks = random_masks(model, fraction, new_rng(0))
