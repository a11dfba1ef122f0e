"""Compensated layer wrappers: original layer + generator + compensator.

Faithful to paper Fig. 5:

- generator: ``m`` filters of shape 1x1x(l+n) applied to
  ``concat([avg_pool(input), output])`` — average pooling adapts the input
  feature maps to the output's spatial size;
- compensator: ``n`` filters of shape 1x1x(n+m) applied to
  ``concat([output, compensation_data])``, producing the same number of
  feature maps as the original layer so the wrapper is a drop-in.

The generator and compensator convolutions carry ``digital = True``:
the paper executes them on digital circuits, so variation injection and
analog mapping skip them.

**Vectorized Monte-Carlo eligibility.** Both wrappers declare
``sample_aware = True`` and handle the engine's sample-stacked
activations, so compensated models ride the vectorized engine instead of
falling back to the reference loop (see ``repro.evaluation.vectorized``).
Inside :meth:`VariationInjector.applied_stack` only the *original* layer's
weight carries the leading (S, ...) sample axis — the digital generator /
compensator weights are never varied and broadcast over the samples. The
forward detects the stacked case by the original layer's output rank:

- conv: a 5-D output means channel-major (S, n, N, OH, OW) stacked maps;
  the pooled input concatenates on the channel axis (axis 1) after being
  expanded over the sample axis, and the 1x1 generator/compensator convs
  run as shared-weight stacked convolutions;
- linear: a 3-D output means batch-major (S, N, n) stacked features; the
  input broadcasts over the sample axis and everything concatenates on
  the trailing feature axis.

Per the engine's paired-seed contract, both paths compute exactly the
per-sample math of the reference loop — only BLAS reduction order
differs.
"""

from __future__ import annotations

import numpy as np

from repro.autograd import Tensor, functional as F
from repro.autograd.tensor import concatenate
from repro.nn.layers import Conv2d, Linear
from repro.nn.module import Module
from repro.utils.rng import new_rng, SeedLike


def _mark_digital(module: Module) -> Module:
    module.digital = True
    return module


def _over_samples(shared: np.ndarray, stacked: Tensor) -> Tensor:
    """``shared`` as a read-only view repeated over ``stacked``'s sample
    axis. Untaped: a stacked output means the original layer ran a
    stacked kernel, which refuses to record, so no gradient flows here."""
    return Tensor(np.broadcast_to(shared, (stacked.shape[0],) + shared.shape))


class CompensatedConv2d(Module):
    """A convolutional layer wrapped with error compensation.

    Parameters
    ----------
    original:
        The trained :class:`Conv2d` to protect. Its weights are typically
        frozen before compensation training.
    m:
        Number of generator filters (the paper's per-layer knob; the RL
        agent chooses it as a ratio of the original filter count).
    """

    #: The forward handles the vectorized Monte-Carlo engine's stacked
    #: activations (module docstring), so the eligibility walk in
    #: ``repro.evaluation.vectorized`` recurses into the children.
    sample_aware = True

    def __init__(self, original: Conv2d, m: int, seed: SeedLike = None) -> None:
        super().__init__()
        if m <= 0:
            raise ValueError(f"generator filter count m must be positive, got {m}")
        rng = new_rng(seed)
        l = original.in_channels
        n = original.out_channels
        self.m = m
        self.original = original
        self.generator = _mark_digital(
            Conv2d(l + n, m, 1, seed=int(rng.integers(2**31)))
        )
        self.compensator = _mark_digital(
            Conv2d(n + m, n, 1, seed=int(rng.integers(2**31)))
        )
        # Start as identity-plus-correction: the compensator initially
        # passes the original output through unchanged, so an untrained
        # wrapper does not hurt nominal accuracy.
        with_identity = np.zeros_like(self.compensator.weight.data)
        for i in range(n):
            with_identity[i, i, 0, 0] = 1.0
        self.compensator.weight.data = (
            0.1 * self.compensator.weight.data + with_identity
        )

    def forward(self, x: Tensor) -> Tensor:
        y = self.original(x)
        if y.ndim == 5:
            # Channel-major stacked output (S, n, N, OH, OW): pool the
            # input to the output's spatial size, lift it to the stacked
            # layout, and let the shared-weight stacked conv kernels run
            # the digital 1x1 convolutions for all S samples at once.
            pooled = F.adaptive_avg_pool2d(x, y.shape[3:])
            if pooled.ndim == 4:  # shared (N, l, OH, OW) input batch
                pooled = _over_samples(pooled.data.transpose(1, 0, 2, 3), y)
        else:
            pooled = F.adaptive_avg_pool2d(x, y.shape[2:])
        compensation = self.generator(concatenate([pooled, y], axis=1))
        return self.compensator(concatenate([y, compensation], axis=1))

    def compensation_parameters(self) -> int:
        """Weight + bias count of the digital compensation path (the
        numerator of the paper's overhead metric)."""
        return sum(
            p.size for p in self.generator.parameters()
        ) + sum(p.size for p in self.compensator.parameters())

    def extra_repr(self) -> str:
        return f"m={self.m}"


class CompensatedLinear(Module):
    """Error compensation for a fully-connected layer.

    The 1x1-convolution construction degenerates naturally: the generator
    is a linear map from ``concat([x, y])`` (l+n features) to ``m``
    features, the compensator from ``concat([y, g])`` to ``n``.
    """

    #: See :class:`CompensatedConv2d` / the module docstring: stacked
    #: (S, N, features) activations are handled, so the vectorized
    #: Monte-Carlo engine's eligibility walk recurses into the children.
    sample_aware = True

    def __init__(self, original: Linear, m: int, seed: SeedLike = None) -> None:
        super().__init__()
        if m <= 0:
            raise ValueError(f"generator unit count m must be positive, got {m}")
        rng = new_rng(seed)
        l = original.in_features
        n = original.out_features
        self.m = m
        self.original = original
        self.generator = _mark_digital(
            Linear(l + n, m, seed=int(rng.integers(2**31)))
        )
        self.compensator = _mark_digital(
            Linear(n + m, n, seed=int(rng.integers(2**31)))
        )
        with_identity = np.zeros_like(self.compensator.weight.data)
        with_identity[:n, :n] = np.eye(n)
        self.compensator.weight.data = (
            0.1 * self.compensator.weight.data + with_identity
        )

    def forward(self, x: Tensor) -> Tensor:
        y = self.original(x)
        if y.ndim == 3 and x.ndim == 2:
            # Stacked (S, N, n) output from a shared (N, l) input: expand
            # the input over the sample axis so the concatenation below is
            # uniform. Features live on the trailing axis either way, so
            # axis=-1 covers both the plain 2-D and stacked 3-D layouts.
            x = _over_samples(x.data, y)
        compensation = self.generator(concatenate([x, y], axis=-1))
        return self.compensator(concatenate([y, compensation], axis=-1))

    def compensation_parameters(self) -> int:
        return sum(
            p.size for p in self.generator.parameters()
        ) + sum(p.size for p in self.compensator.parameters())

    def extra_repr(self) -> str:
        return f"m={self.m}"


def is_compensated(module: Module) -> bool:
    return isinstance(module, (CompensatedConv2d, CompensatedLinear))


def compensation_parameter_count(model: Module) -> int:
    """Total digital compensation parameters in ``model``."""
    total = 0
    for module in model.modules():
        if is_compensated(module):
            total += module.compensation_parameters()
    return total
