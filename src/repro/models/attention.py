"""A small patch-embedding attention classifier (``attnmlp``).

A minimal vision-transformer-style model: a strided convolution embeds
non-overlapping patches into tokens, one pre-norm self-attention block
and one pre-norm MLP block (both residual) mix them, and the classifier
averages the tokens. It exists to put the attention modules —
``SelfAttention``, ``LayerNorm``, token-grid residuals — on every
Monte-Carlo engine: the patch-embed convolution and the four attention
projections plus the MLP linears are ordinary crossbar-mapped weighted
layers, so variation injection, per-layer specs and the paired-seed
contract all apply unchanged.

Token layouts follow the sample-axis contract: (N, T, D) unstacked,
(S, N, T, D) stacked. The patch-embed output arrives as conv maps —
(N, D, P, P), or channel-major (S, D, N, P, P) when stacked — and
``forward`` converts to tokens with an explicit rank dispatch.
"""

from __future__ import annotations

import repro.nn as nn
from repro.nn.module import Module
from repro.utils.rng import new_rng, SeedLike


class AttnMLP(Module):
    """Patch embedding + one attention block + one MLP block + mean-pool head."""

    #: The token reshapes below branch on ndim; children are sample-aware.
    sample_aware = True

    #: Side of the square, non-overlapping patches the embedding cuts.
    PATCH_SIZE = 4
    #: Hidden width of the MLP block, as a multiple of ``dim``.
    MLP_RATIO = 2.0

    def __init__(
        self,
        num_classes: int,
        in_channels: int = 3,
        input_size: int = 16,
        dim: int = 32,
        seed: SeedLike = 0,
    ) -> None:
        super().__init__()
        patch = self.PATCH_SIZE
        if input_size % patch != 0:
            raise ValueError(
                f"input size {input_size} not divisible by patch size {patch}"
            )
        rng = new_rng(seed)

        def _seed() -> int:
            return int(rng.integers(2**31))

        self.num_classes = num_classes
        self.dim = dim
        self.grid = input_size // patch
        hidden = int(dim * self.MLP_RATIO)
        self.patch_embed = nn.Conv2d(
            in_channels, dim, patch, stride=patch, seed=_seed()
        )
        self.attn_block = nn.Residual(
            nn.Sequential(
                nn.LayerNorm(dim),
                nn.SelfAttention(dim, seed=_seed()),
            )
        )
        self.mlp_block = nn.Residual(
            nn.Sequential(
                nn.LayerNorm(dim),
                _TokenLinear(dim, hidden, seed=_seed()),
                nn.ReLU(),
                _TokenLinear(hidden, dim, seed=_seed()),
            )
        )
        self.norm = nn.LayerNorm(dim)
        self.head = nn.Linear(dim, num_classes, seed=_seed())

    def forward(self, x):
        maps = self.patch_embed(x)
        if maps.ndim == 5:  # stacked channel-major (S, D, N, P, P)
            s, d, n = maps.shape[0], maps.shape[1], maps.shape[2]
            tokens = maps.transpose(0, 2, 3, 4, 1).reshape(s, n, self.grid**2, d)
        else:  # (N, D, P, P)
            n, d = maps.shape[0], maps.shape[1]
            tokens = maps.transpose(0, 2, 3, 1).reshape(n, self.grid**2, d)
        tokens = self.mlp_block(self.attn_block(tokens))
        pooled = self.norm(tokens).mean(axis=-2)  # token mean: (..., N, D)
        return self.head(pooled)


class _TokenLinear(Module):
    """A :class:`~repro.nn.layers.Linear` applied over token grids.

    Flattens (N, T, D) tokens — or stacked (S, N, T, D) — to the 2-D/3-D
    layouts the linear kernel (and its analog twin) accept, applies the
    projection, and restores the token layout. The wrapped layer is the
    weighted, crossbar-mapped unit; this wrapper is pure layout glue.
    """

    sample_aware = True  # the reshapes below branch on ndim

    def __init__(self, in_features: int, out_features: int, seed: SeedLike = None) -> None:
        super().__init__()
        self.linear = nn.Linear(in_features, out_features, seed=seed)
        self.out_features = out_features

    def forward(self, x):
        if x.ndim == 4:  # stacked tokens (S, N, T, D)
            s, n, t, d = x.shape
            out = self.linear(x.reshape(s, n * t, d))
            return out.reshape(out.shape[0], n, t, self.out_features)
        n, t, d = x.shape
        out = self.linear(x.reshape(n * t, d))
        if out.ndim == 3:  # stacked weights lifted the output to (S, N*T, F)
            return out.reshape(out.shape[0], n, t, self.out_features)
        return out.reshape(n, t, self.out_features)
