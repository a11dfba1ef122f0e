"""A plain multi-layer perceptron.

Used by unit/integration tests and as the minimal quickstart model; also a
valid CorrectNet target (compensation falls back to its linear form).
"""

from __future__ import annotations

from typing import Sequence

import repro.nn as nn
from repro.nn.module import Module
from repro.utils.rng import new_rng, SeedLike


class MLP(Module):
    """Fully-connected ReLU network with a flat ``net`` Sequential that
    flattens its input first."""

    #: forward purely delegates to ``net``, so a leading sample axis passes
    #: through untouched (vectorized Monte-Carlo eligibility).
    sample_aware = True

    def __init__(
        self,
        in_features: int,
        hidden: Sequence[int],
        num_classes: int,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        rng = new_rng(seed)

        def _seed() -> int:
            return int(rng.integers(2**31))

        layers = [nn.Flatten()]
        width = in_features
        for h in hidden:
            layers.append(nn.Linear(width, h, seed=_seed()))
            layers.append(nn.ReLU())
            width = h
        layers.append(nn.Linear(width, num_classes, seed=_seed()))
        self.num_classes = num_classes
        self.net = nn.Sequential(*layers)

    def forward(self, x):
        return self.net(x)
