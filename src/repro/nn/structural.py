"""Structural modules: the residual fan-in node and attention blocks.

These are the modules that take the layer library beyond ``Sequential``
chains: the residual skip (``Residual``), the global-pool and layer-norm
glue of modern CNN/attention models, and a small multi-head
``SelfAttention`` block. All of them honor the sample-axis contract of
the vectorized Monte-Carlo engine (see ``docs/ARCHITECTURE.md``): stacked
activations are batch-major ``(S, N, F)`` for features/tokens and
channel-major ``(S, C, N, H, W)`` for conv maps, and the fan-in must
align *mixed* stacked-ness — a branch without varied layers stays
unstacked — which :func:`repro.autograd.functional.fanin_add` handles
layout-aware.

Traversal contract: ``Residual`` registers its branches in forward
evaluation order (body before shortcut), so the canonical walk of
:mod:`repro.nn.graph` — registration-order pre-order — equals execution
order on these graphs, and every consumer (injector, ``analogize``,
sweeps, cost model) agrees on layer indexing.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.autograd import Tensor, functional as F
from repro.nn.layers import Identity, Linear
from repro.nn.module import Module, Parameter
from repro.utils.rng import new_rng, SeedLike


class Residual(Module):
    """``body(x) + shortcut(x)`` with an identity default shortcut.

    ``body`` and ``shortcut`` are registered in evaluation order (body
    first), which is the order the canonical graph walk — and therefore
    the paper's layer-i indexing — sees their weighted layers in. A branch
    without varied weights returns unstacked activations;
    :func:`repro.autograd.functional.fanin_add` aligns the layouts, so
    each stacked slice equals the unstacked sum of the reference loop.
    """

    sample_aware = True  # combine is layout-aware fanin_add; delegates else

    def __init__(self, body: Module, shortcut: Optional[Module] = None) -> None:
        super().__init__()
        self.body = body
        self.shortcut = Identity() if shortcut is None else shortcut

    def forward(self, x: Tensor) -> Tensor:
        return F.fanin_add(self.body(x), self.shortcut(x))


class GlobalAvgPool2d(Module):
    """Average each feature map to a single value; returns batch-major.

    (N, C, H, W) -> (N, C); stacked channel-major (S, C, N, H, W) ->
    (S, N, C). Like ``Flatten``, this is where the sample axis returns to
    batch-major layout — the maps are gone after the reduction, so the
    transpose is cheap. The spatial reduction runs over the trailing two
    axes in both layouts, hence identical per-element summation order and
    bitwise-paired results.
    """

    sample_aware = True  # the ndim == 5 branch below is the stacked path

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 5:
            pooled = x.mean(axis=(3, 4))  # (S, C, N)
            return pooled.transpose(0, 2, 1)  # (S, N, C) batch-major
        if x.ndim != 4:
            raise ValueError(
                f"GlobalAvgPool2d expects (N, C, H, W) or stacked "
                f"(S, C, N, H, W), got shape {x.shape}"
            )
        return x.mean(axis=(2, 3))


class LayerNorm(Module):
    """Normalise the trailing feature axis, with learnable affine.

    The parameters are named ``gamma``/``beta`` (like batch norm): they
    are digital peripheral state, not crossbar conductances, so the
    canonical ``weighted_layers`` walk does not see them and variation
    injection leaves them alone. The trailing-axis statistics are
    layout-independent — (N, T, D) and stacked (S, N, T, D) reduce over
    the same per-token values in the same order — so the forward needs no
    rank dispatch and results stay bitwise-paired.
    """

    sample_aware = True  # trailing-axis math only: rank-agnostic

    #: Added to the variance before the inverse square root.
    EPS = 1e-5

    def __init__(self, num_features: int) -> None:
        super().__init__()
        self.num_features = num_features
        self.gamma = Parameter([1.0] * num_features)
        self.beta = Parameter([0.0] * num_features)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"LayerNorm({self.num_features}) got trailing axis "
                f"{x.shape[-1]} (shape {x.shape})"
            )
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        inv_std = (var + self.EPS) ** -0.5
        return (x - mean) * inv_std * self.gamma + self.beta

    def extra_repr(self) -> str:
        return f"features={self.num_features}"


class SelfAttention(Module):
    """Multi-head scaled dot-product self-attention over token grids.

    Input is a token tensor (N, T, D) — or sample-stacked (S, N, T, D) —
    and the output has the same layout. The q/k/v/out projections are
    ordinary :class:`~repro.nn.layers.Linear` layers applied to
    token-flattened 2-D/3-D activations, so they are crossbar-mapped
    weighted layers: the injector perturbs them, ``analogize`` swaps them
    for :class:`~repro.hardware.analog_layers.AnalogLinear`, and stacked
    (S, out, in) weights ride through unchanged. The attention math
    itself — batched matmuls over the trailing two axes plus a
    trailing-axis softmax — broadcasts over any mix of stacked and
    unstacked operands, which is what keeps mixed layer-subset injection
    correct.
    """

    sample_aware = True  # every reshape/transpose below is ndim-dispatched

    #: Attention heads; ``dim`` must divide among them.
    NUM_HEADS = 2

    def __init__(self, dim: int, seed: SeedLike = None) -> None:
        super().__init__()
        if dim % self.NUM_HEADS != 0:
            raise ValueError(
                f"embedding dim {dim} not divisible by num_heads {self.NUM_HEADS}"
            )
        self.dim = dim
        self.head_dim = dim // self.NUM_HEADS
        self.scale = 1.0 / math.sqrt(self.head_dim)
        rng = new_rng(seed)

        def _seed() -> int:
            return int(rng.integers(2**31))

        self.q_proj = Linear(dim, dim, seed=_seed())
        self.k_proj = Linear(dim, dim, seed=_seed())
        self.v_proj = Linear(dim, dim, seed=_seed())
        self.out_proj = Linear(dim, dim, seed=_seed())

    def _split_heads(self, y: Tensor, n: int, t: int) -> Tensor:
        """(N*T, D) -> (N, H, T, dh); stacked (S, N*T, D) -> (S, N, H, T, dh)."""
        h, dh = self.NUM_HEADS, self.head_dim
        if y.ndim == 3:
            return y.reshape(y.shape[0], n, t, h, dh).transpose(0, 1, 3, 2, 4)
        return y.reshape(n, t, h, dh).transpose(0, 2, 1, 3)

    def _merge_heads(self, y: Tensor, n: int, t: int) -> Tensor:
        """Inverse of :meth:`_split_heads`, back to token-flattened layout."""
        if y.ndim == 5:
            return y.transpose(0, 1, 3, 2, 4).reshape(y.shape[0], n * t, self.dim)
        return y.transpose(0, 2, 1, 3).reshape(n * t, self.dim)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim == 3:
            n, t, _ = x.shape
            flat = x.reshape(n * t, self.dim)
        elif x.ndim == 4:
            s, n, t, _ = x.shape
            flat = x.reshape(s, n * t, self.dim)
        else:
            raise ValueError(
                f"SelfAttention expects tokens (N, T, D) or stacked "
                f"(S, N, T, D), got shape {x.shape}"
            )
        q = self._split_heads(self.q_proj(flat), n, t)
        k = self._split_heads(self.k_proj(flat), n, t)
        v = self._split_heads(self.v_proj(flat), n, t)
        k_t = k.transpose(0, 1, 2, 4, 3) if k.ndim == 5 else k.transpose(0, 1, 3, 2)
        scores = q.matmul(k_t) * self.scale
        attn = F.softmax(scores)
        context = self._merge_heads(attn.matmul(v), n, t)
        out = self.out_proj(context)
        if out.ndim == 3:
            return out.reshape(out.shape[0], n, t, self.dim)
        return out.reshape(n, t, self.dim)

    def extra_repr(self) -> str:
        return f"dim={self.dim}, heads={self.NUM_HEADS}"
