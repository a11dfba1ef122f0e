"""Batch normalisation over conv feature maps.

Running statistics live in buffers so they serialize with the model and are
excluded from variation injection (they are digital state, not crossbar
conductances).

Eval mode is the affine fold ``y = x * (gamma / sqrt(var + eps)) + (beta -
mean * gamma / sqrt(var + eps))`` against the running statistics — a
per-channel scale and shift. Because it is elementwise per channel, it is
also *sample-aware*: a channel-major stacked activation (S, C, N, H, W)
from the vectorized Monte-Carlo engine (see ``docs/ARCHITECTURE.md``)
broadcasts against the same folded scale/shift with one extra axis.
Training mode computes batch statistics and only accepts the ordinary
(N, C, H, W) layout; ``repro.evaluation.vectorized.supports_sample_axis``
therefore admits batch norm for stacked execution in eval mode only.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Normalise (N, C, H, W) activations per channel.

    Eval mode also accepts channel-major sample-stacked (S, C, N, H, W)
    activations (the vectorized Monte-Carlo layout).
    """

    def __init__(
        self, num_features: int, eps: float = 1e-5, momentum: float = 0.1
    ) -> None:
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    @property
    def sample_aware(self) -> bool:
        # Eval mode is a per-channel affine fold that broadcasts over a
        # stacked sample axis; training mode computes batch statistics and
        # only understands the ordinary layout (see module docstring).
        return not self.training

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            if x.ndim != 4:
                raise ValueError(
                    f"BatchNorm2d expects (N, C, H, W), got shape {x.shape}"
                )
            axes = (0, 2, 3)
            shape = (1, self.num_features, 1, 1)
            mean = x.mean(axis=axes, keepdims=True)
            var = x.var(axis=axes, keepdims=True)
            m = self.momentum
            self.set_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * mean.data.reshape(-1),
            )
            self.set_buffer(
                "running_var",
                (1 - m) * self.running_var + m * var.data.reshape(-1),
            )
            inv_std = (var + self.eps) ** -0.5
            normalized = (x - mean) * inv_std
            gamma = self.gamma.reshape(shape)
            beta = self.beta.reshape(shape)
            return normalized * gamma + beta
        # Eval: fold running stats into one per-channel scale and shift
        # (computed at feature size C, then broadcast over the activation
        # once — two broadcast ops instead of four). gamma/beta stay in the
        # graph, so fine-tuning through an eval-mode norm still works.
        if x.ndim == 4:  # (N, C, H, W)
            shape = (1, self.num_features, 1, 1)
        elif x.ndim == 5:  # stacked channel-major (S, C, N, H, W)
            shape = (1, self.num_features, 1, 1, 1)
        else:
            raise ValueError(
                "BatchNorm2d expects (N, C, H, W) or stacked (S, C, N, H, W), "
                f"got shape {x.shape}"
            )
        inv_std = Tensor((self.running_var + self.eps) ** -0.5)
        scale = self.gamma * inv_std
        shift = self.beta - Tensor(self.running_mean) * scale
        return x * scale.reshape(shape) + shift.reshape(shape)

    def extra_repr(self) -> str:
        return f"features={self.num_features}, eps={self.eps}"
