"""The cross-entropy loss module."""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, functional as F
from repro.nn.module import Module


class CrossEntropyLoss(Module):
    """Mean cross-entropy over integer labels (the paper's ``L_ce``)."""

    #: Losses reduce over the batch; they never run on stacked activations.
    sample_aware = False

    def forward(self, logits: Tensor, labels: np.ndarray) -> Tensor:
        return F.cross_entropy(logits, labels)

